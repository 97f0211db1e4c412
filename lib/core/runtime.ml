(* The multiverse run-time library (Section 4, API of Table 1).

   The runtime interprets the binary descriptor sections of a linked image,
   selects variants according to the current configuration-switch values,
   and installs them by binary patching:

   - every recorded call site of the function is retargeted to the variant,
     or — when the variant body is smaller than the call instruction —
     the body is inlined into the call site (empty bodies become nops);
   - the prologue of the generic function is overwritten with an
     unconditional jump to the variant, which catches calls the compiler
     could not see (function pointers, foreign code): completeness,
     Section 7.4.

   If no variant's guards match the current values, the runtime reverts the
   function to its generic state and signals the situation via
   [fallbacks].

   Like the paper's library, the runtime deliberately performs no
   synchronization: the caller must ensure the program is in a patchable
   state (Section 2).

   Note on signedness: descriptor records carry the declared signedness of
   each switch, but sub-word switch values are evaluated zero-extended,
   matching the machine's sub-word loads; use full-width (8-byte) switches
   for negative domain values. *)

module Image = Mv_link.Image
module Insn = Mv_isa.Insn
module Trace = Mv_obs.Trace
module Objfile = Mv_codegen.Objfile
module Emit = Mv_codegen.Emit

type site_state =
  | Site_original
  | Site_retargeted of int  (** direct call to this address *)
  | Site_inlined of int  (** body of this variant inlined *)

type site = {
  s_addr : int;
  s_size : int;  (** 5 for direct calls, 6 for indirect *)
  s_original : bytes;
  mutable s_state : site_state;
  mutable s_written : bytes;  (** what we believe the site holds *)
}

(** One selectable variant under its own symbol.  Descriptors identify
    functions, switches and variants by address only (Section 5), so the
    runtime names each once — at [create], or for a lazy alias by the
    symbol [link_alias] registers — and every report reads the stored
    name.  Aliases that share a deduplicated body share
    [vn_addr]/[vn_size] but keep their own names. *)
type variant = {
  vn_name : string;
  vn_addr : int;  (** body address *)
  vn_size : int;  (** encoded body size *)
  vn_guards : Descriptor.guard_record list;
  mutable vn_stamp : int;  (** lazy LRU clock at the last selection *)
}

type fn_entry = {
  fe_name : string;
  fe_record : Descriptor.function_record;
  mutable fe_variants : variant list;
      (** the selectable variants: the parsed descriptor records, plus —
          under lazy materialization — every alias the runtime has linked
          so far (and minus the evicted ones) *)
  fe_sites : site list;
  mutable fe_prologue : bytes option;  (** saved generic prologue *)
  mutable fe_saved_body : bytes option;  (** saved generic body (body patching) *)
  mutable fe_installed : variant option;  (** the bound alias *)
}

(** A configuration switch and its symbol. *)
type switch = { sw_name : string; sw_var : Descriptor.variable }

type fnptr_entry = {
  fp_switch : switch;
  fp_sites : site list;
  mutable fp_committed : int option;
}

(* --- The safe-commit subsystem (beyond the paper, closing its Section 2
   "caller guarantees a patchable state" gap) ------------------------------

   Every decision hands its patch to the stager as an [action]; a
   deferred one is journaled, and one [commit_safe] or [revert_safe] call
   produces at most one [pending_set], which is applied transactionally —
   all actions or none — at a later quiescence point. *)

type pending_action =
  | Act_bind of fn_entry * variant
      (** install this variant for the function *)
  | Act_unbind of fn_entry  (** revert the function to its generic state *)
  | Act_bind_ptr of fnptr_entry * int
      (** bind the fn-pointer switch to the target captured at commit time *)
  | Act_unbind_ptr of fnptr_entry  (** restore the indirect call sites *)

type pending_set = {
  pset_id : int;
  pset_cid : int;
      (** causality id of the commit/revert that journaled this set — the
          [cid] its eventual [Pending_drained] event reports *)
  pset_hart : int;  (** hart the journaling commit ran on *)
  pset_actions : pending_action list;
}

(** Counters for the safe-commit paths (surfaced through {!stats}). *)
type safe_counters = {
  mutable sc_deferred : int;  (** actions journaled instead of applied *)
  mutable sc_denied : int;  (** actions refused under the [Deny] policy *)
  mutable sc_superseded : int;  (** journaled actions dropped by a newer commit *)
  mutable sc_applied : int;  (** deferred actions applied at a safepoint *)
  mutable sc_rolled_back : int;  (** pending sets rolled back mid-apply *)
  mutable sc_polls : int;  (** safepoint invocations *)
  mutable sc_osr_transfers : int;  (** live activations moved between bodies *)
  mutable sc_osr_aborts : int;
      (** transfers abandoned because the frame maps did not line up *)
}

(* --- On-stack replacement (the ROADMAP's unbounded-drain-latency fix) ----

   A never-returning activation (event loop, scheduler) keeps its function's
   body live forever, so a deferred patch for it would never drain.  With
   frame maps ([multiverse.framemaps]) the safepoint can instead *move* the
   activation: read every live virtual register out of the source frame,
   rebuild the frame in the target body's layout, and resume at the
   equivalent program point of the target.  The runtime stays VM-agnostic:
   it manipulates the hart through a closure record the harness wires to
   [Mv_vm.Machine]. *)

(** Accessors for the hart currently parked at a safepoint.  [oh_mem] /
    [oh_set_mem] operate on 8-byte words at absolute addresses. *)
type osr_hart = {
  oh_hart : int;
  oh_pc : unit -> int;
  oh_set_pc : int -> unit;
  oh_reg : int -> int;
  oh_set_reg : int -> int -> unit;
  oh_mem : int -> int;
  oh_set_mem : int -> int -> unit;
  oh_set_top_frame : int -> unit;
}

(* --- Lazy variant materialization (demand-driven specialization) ---------

   With [enable_lazy] the image carries no pre-expanded variants; instead
   the compiler hands over one specialization recipe per multiversed
   function.  The first commit of an unseen switch valuation specializes
   the recipe, optimizes and assembles the body, and links it into the
   image's reserved variant-text region.  Bodies are cached under their
   post-optimization canonical form — the same key the eager pipeline
   merges equal clones by — so a structurally equal body is never stored
   twice: a hash hit adds only a descriptor alias.  A configurable byte
   budget bounds residency; eviction drops cold aliases (advisor-ordered,
   least-recently-selected as the deterministic fallback) and routes
   installed victims through the existing revert / safe-commit / OSR
   machinery. *)

(** One resident variant body, shared by every alias whose specialized
    clone has the same canonical form. *)
type dedup_entry = {
  de_addr : int;  (** body address in the variant-text region *)
  de_size : int;  (** encoded body size *)
  de_alloc : int;  (** allocated block size (16-aligned) *)
  mutable de_refs : int;  (** descriptor aliases sharing the body *)
}

(** Book-keeping for one materialized descriptor alias. *)
type mat_info = {
  mi_fn : fn_entry;
  mi_key : string;  (** the body's canonical form — its dedup key *)
  mi_alias : variant;
}

(** What materializing one (recipe, assignment) pair needs besides the
    IR, kept so a re-materialization after eviction skips specializing,
    optimizing, hashing and emitting.  Eviction keeps it: it describes
    the assignment, not a resident body. *)
type spec = {
  sp_symbol : string;  (** the variant symbol *)
  sp_key : string;  (** the specialized body's canonical form *)
  sp_guards : Descriptor.guard_record list;
  mutable sp_frag : Emit.fragment option;
      (** emitted on the first dedup miss; [materialize] relocates a
          copy, so nothing writes these bytes *)
}

(** A function's specialization recipe and its memo. *)
type lazy_recipe = {
  lr_recipe : Variantgen.recipe;
  lr_memo : spec option array;
      (** one slot per assignment of the recipe's cross product, numbered
          as [recipe_assignment] numbers them; [[||]] when the cross
          product exceeds [Variantgen.default_max_variants] (the most
          variants eager generation emits for one function), and then
          every materialization specializes afresh *)
}

type lazy_state = {
  lz_recipes : (string, lazy_recipe) Hashtbl.t;  (** by function symbol *)
  lz_call_pad : string -> int;
      (** the program's call-site padding rule, so materialized bodies are
          assembled byte-compatible with the eager pipeline's *)
  mutable lz_budget : int;  (** resident variant-text byte budget *)
  mutable lz_cursor : int;  (** bump pointer into the variant-text region *)
  mutable lz_free : (int * int) list;
      (** freed (addr, size) blocks, address-sorted and coalesced *)
  lz_dedup : (string, dedup_entry) Hashtbl.t;  (** canonical form -> body *)
  lz_variants : (string, mat_info) Hashtbl.t;  (** by variant symbol *)
  mutable lz_bytes : int;  (** resident bytes (unique blocks, alloc-sized) *)
  mutable lz_tick : int;  (** LRU clock, bumped per selection *)
  mutable lz_specialized : int;
      (** recipe specializations run (read by [specializations], not part
          of [stats]) *)
  mutable lz_evict_pending : string list;
      (** victims whose body still has a live activation (or an undrained
          unbind): freed at a later safepoint, oldest first *)
  mutable lz_advisor : (unit -> string list) option;
      (** preferred eviction order (e.g. [Heat.evict_plan] victims) *)
  mutable lz_stale_cache : bool;
      (** fuzzing chaos: skip the dedup-table invalidation on free, so a
          later hash hit links a recycled block (must be caught by the
          lazy-eager-equiv oracle) *)
  (* counters, surfaced through [stats] *)
  mutable lz_materialized : int;
  mutable lz_dedup_hits : int;
  mutable lz_cache_hits : int;
  mutable lz_evictions : int;
  mutable lz_budget_denials : int;
}

(** How variants are installed.

    [Call_site_patching] is the paper's design: retarget (or inline into)
    every recorded call site, plus the completeness jump in the generic
    prologue.

    [Body_patching] is the alternative Section 7.1 weighs and rejects:
    copy the (relocated) variant body over the generic body.  It patches
    one location per function instead of one per call site — faster to
    commit — but requires the runtime to relocate variant bodies, and falls
    back to a prologue jump when the variant is larger than the generic. *)
type strategy = Call_site_patching | Body_patching

type t = {
  image : Image.t;
  patch : Patch.t;
  switches : switch list;  (** every configuration switch, descriptor order *)
  switch_at : (int, switch) Hashtbl.t;
      (** the switches by address; of two at one address, the first in
          descriptor order *)
  functions : fn_entry list;
  fnptrs : fnptr_entry list;
  mutable fallbacks : string list;  (** functions left generic by the last commit *)
  mutable skipped_sites : (int * string) list;  (** verification failures *)
  mutable inline_enabled : bool;  (** call-site body inlining (Section 4); on by default *)
  mutable strategy : strategy;
  mutable live_scanner : (unit -> int list) option;
      (** reports code addresses with live activations (pc + return
          addresses); wire to [Machine.live_code_addrs] *)
  mutable pending : pending_set list;  (** deferred patch sets, oldest first *)
  mutable next_pset_id : int;
  mutable next_cid : int;  (** commit causality id generator *)
  mutable cur_cid : int;  (** cid of the span currently open (-1: none) *)
  mutable hart_src : (unit -> int) option;
      (** reports the currently-executing hart for causal attribution of
          commit/drain events; wire to [Smp.current_hart] (default:
          hart 0) *)
  mutable in_safepoint : bool;  (** reentrancy guard for {!safepoint} *)
  safe : safe_counters;
  mutable tracer : (Trace.event -> unit) option;
      (** optional event sink; every patching decision is reported through
          it, and with [None] installed the emit sites reduce to one match
          (pay-for-use, like the safepoint hook) *)
  mutable barrier : ((unit -> unit) -> unit) option;
      (** cross-modifying-code barrier: when set, every patching operation
          (commit/revert and their safe/func/refs variants, plus the
          safepoint drain) runs inside it.  Wire to [Smp.stop_machine] so
          patches only land with every other hart parked at an
          interrupts-enabled instruction boundary.  Must be re-entrant:
          nested operations run their thunk directly. *)
  mutable framemaps : Descriptor.framemap_record list;
      (** parsed [multiverse.framemaps] records, one per multiversed body;
          lazy materialization appends a host-built record per fresh body
          (and drops it again on eviction) *)
  mutable osr : (unit -> osr_hart) option;
      (** accessors for the hart currently polling a safepoint; the harness
          wires them to [Mv_vm.Machine].  With [None] installed, safepoints
          never attempt on-stack replacement. *)
  mutable lazy_st : lazy_state option;  (** demand-driven variant cache *)
}

exception Runtime_error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The compiler may nop-pad call sites of multiversed symbols so larger
   bodies can be inlined (Section 7.1's "adjusting the sizes of call sites").
   At attach time nothing has been patched yet, so nops directly following
   the recorded call instruction can only be that padding; they become part
   of the site. *)
let max_callsite_padding = 10

let site_of_callsite (img : Image.t) (cs : Descriptor.callsite) : site =
  let _, insn_size = Mv_isa.Decode.decode img.Image.mem ~off:cs.cs_site in
  let nop = Char.chr (Insn.opcode Insn.Nop) in
  let rec pad_len k =
    if k >= max_callsite_padding then k
    else if Bytes.get img.Image.mem (cs.cs_site + insn_size + k) = nop then pad_len (k + 1)
    else k
  in
  let size = insn_size + pad_len 0 in
  let original = Image.read_bytes img cs.cs_site size in
  {
    s_addr = cs.cs_site;
    s_size = size;
    s_original = original;
    s_state = Site_original;
    s_written = original;
  }

(* Name every address in [addrs] in one pass over the symbol table: the
   first symbol the table yields at exactly that address, which is the
   one [Image.symbol_at] picks for it (descriptor addresses are symbol
   bases), or [<0xADDR>] when no symbol starts there. *)
let names_at (img : Image.t) (addrs : int list) : int -> string =
  let names = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace names a None) addrs;
  Hashtbl.iter
    (fun sym a ->
      match Hashtbl.find_opt names a with
      | Some None -> Hashtbl.replace names a (Some sym)
      | _ -> ())
    img.Image.symbols;
  fun a ->
    match Hashtbl.find_opt names a with
    | Some (Some name) -> name
    | _ -> Printf.sprintf "<0x%x>" a

(** Attach a runtime to a linked image.  [flush] is called after every text
    patch with the affected range (wire it to the machine's instruction-
    cache flush). *)
let create (img : Image.t) ~flush : t =
  let variables = Descriptor.parse_variables img in
  let fn_records = Descriptor.parse_functions img in
  let callsites = Descriptor.parse_callsites img in
  let name =
    names_at img
      (List.map (fun (v : Descriptor.variable) -> v.vr_addr) variables
      @ List.concat_map
          (fun (fr : Descriptor.function_record) ->
            fr.fd_generic
            :: List.map (fun (v : Descriptor.variant_record) -> v.va_addr) fr.fd_variants)
          fn_records)
  in
  let sites_of target =
    List.filter_map
      (fun (cs : Descriptor.callsite) ->
        if cs.cs_target = target then Some (site_of_callsite img cs) else None)
      callsites
  in
  let functions =
    List.map
      (fun (fr : Descriptor.function_record) ->
        {
          fe_name = name fr.fd_generic;
          fe_record = fr;
          fe_variants =
            List.map
              (fun (v : Descriptor.variant_record) ->
                {
                  vn_name = name v.va_addr;
                  vn_addr = v.va_addr;
                  vn_size = v.va_size;
                  vn_guards = v.va_guards;
                  vn_stamp = 0;
                })
              fr.fd_variants;
          fe_sites = sites_of fr.fd_generic;
          fe_prologue = None;
          fe_saved_body = None;
          fe_installed = None;
        })
      fn_records
  in
  let switches =
    List.map (fun (v : Descriptor.variable) -> { sw_name = name v.vr_addr; sw_var = v }) variables
  in
  let switch_at = Hashtbl.create 64 in
  List.iter
    (fun sw ->
      if not (Hashtbl.mem switch_at sw.sw_var.vr_addr) then
        Hashtbl.add switch_at sw.sw_var.vr_addr sw)
    switches;
  let fnptrs =
    List.filter_map
      (fun sw ->
        if not sw.sw_var.vr_fnptr then None
        else
          Some
            {
              fp_switch = sw;
              fp_sites = sites_of sw.sw_var.vr_addr;
              fp_committed = None;
            })
      switches
  in
  {
    image = img;
    patch = Patch.create img ~flush;
    switches;
    switch_at;
    functions;
    fnptrs;
    fallbacks = [];
    skipped_sites = [];
    inline_enabled = true;
    strategy = Call_site_patching;
    live_scanner = None;
    pending = [];
    next_pset_id = 0;
    next_cid = 0;
    cur_cid = -1;
    hart_src = None;
    in_safepoint = false;
    safe =
      {
        sc_deferred = 0;
        sc_denied = 0;
        sc_superseded = 0;
        sc_applied = 0;
        sc_rolled_back = 0;
        sc_polls = 0;
        sc_osr_transfers = 0;
        sc_osr_aborts = 0;
      };
    tracer = None;
    barrier = None;
    framemaps = Descriptor.parse_framemaps img;
    osr = None;
    lazy_st = None;
  }

(* ------------------------------------------------------------------ *)
(* Trace emission                                                      *)
(* ------------------------------------------------------------------ *)

(** Install (or remove) the structured-event sink.  See {!Mv_obs.Trace}. *)
let set_tracer t sink = t.tracer <- sink

(* The single emit funnel: one match when no sink is installed. *)
let emit t ev = match t.tracer with None -> () | Some sink -> sink ev

(** Install (or remove) the cross-modifying-code barrier (see the
    [barrier] field).  SMP harnesses wire it to [Smp.stop_machine]. *)
let set_patch_barrier t b = t.barrier <- b

(** Route every text mutation through a replacement writer — e.g. the
    SMP breakpoint-first [Smp.text_poke] ({!Patch.set_writer}). *)
let set_text_writer t w = Patch.set_writer t.patch w

(* Run a patching operation under the barrier (directly when none is
   installed).  The barrier contract: it must invoke the thunk exactly
   once, synchronously. *)
let with_barrier t (f : unit -> 'a) : 'a =
  match t.barrier with
  | None -> f ()
  | Some wrap ->
      let r = ref None in
      wrap (fun () -> r := Some (f ()));
      (match !r with
      | Some v -> v
      | None -> errf "patch barrier did not run its thunk")

(** Every configuration switch's (name, current value) — the payload of a
    commit span's begin event. *)
let switch_values t =
  List.map
    (fun sw -> (sw.sw_name, Image.read t.image sw.sw_var.vr_addr sw.sw_var.vr_width))
    t.switches

(** Install (or remove) the hart source used to attribute commit and
    drain events; wire to [Smp.current_hart].  Host-side only — never
    charged simulated cycles. *)
let set_hart_source t h = t.hart_src <- h

let cur_hart t = match t.hart_src with None -> 0 | Some f -> f ()

(* Journal a deferred patch set (used by the safe-commit paths, and by the
   variant cache when an eviction victim's body still has live
   activations). *)
let journal t actions =
  if actions <> [] then begin
    let pset =
      {
        pset_id = t.next_pset_id;
        pset_cid = t.cur_cid;
        pset_hart = cur_hart t;
        pset_actions = actions;
      }
    in
    t.next_pset_id <- t.next_pset_id + 1;
    t.pending <- t.pending @ [ pset ]
  end

(* Every commit/revert span gets a fresh causality id, traced or not, so
   a sink attached mid-run still sees ids consistent with the journal.  An
   untraced run skips reading the switch values. *)
let emit_span_begin t op =
  t.cur_cid <- t.next_cid;
  t.next_cid <- t.next_cid + 1;
  match t.tracer with
  | None -> ()
  | Some sink -> sink (Trace.Commit_begin { cid = t.cur_cid; op; switches = switch_values t })

let emit_span_end t op bound = emit t (Trace.Commit_end { cid = t.cur_cid; op; bound })

(* Fallback registration, with its event. *)
let fallback t name =
  t.fallbacks <- name :: t.fallbacks;
  emit t (Trace.Fallback { fn = name })

(** Disable or re-enable call-site body inlining (the A3 ablation: measure
    what the "current PV-Ops"-style inlining contributes). *)
let set_inlining t enabled = t.inline_enabled <- enabled

(** Switch the installation strategy (the A4 ablation).  Only allowed while
    nothing is installed: revert first. *)
let set_strategy t s =
  let busy =
    List.exists (fun fe -> fe.fe_installed <> None) t.functions
    || List.exists (fun fp -> fp.fp_committed <> None) t.fnptrs
  in
  if busy then errf "cannot switch strategy while variants are installed (revert first)";
  if t.pending <> [] then
    errf "cannot switch strategy while patch sets are pending (drain safepoints first)";
  t.strategy <- s

(* ------------------------------------------------------------------ *)
(* Switch evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let find_switch t addr = Hashtbl.find_opt t.switch_at addr

let read_switch t (addr : int) : int =
  match find_switch t addr with
  | Some { sw_var = v; _ } -> Image.read t.image v.vr_addr v.vr_width
  | None -> errf "guard references unknown switch at 0x%x" addr

let guards_satisfied t (guards : Descriptor.guard_record list) : bool =
  List.for_all
    (fun (g : Descriptor.guard_record) ->
      let v = read_switch t g.gr_var in
      g.gr_lo <= v && v <= g.gr_hi)
    guards

(* ------------------------------------------------------------------ *)
(* Site patching with verification                                     *)
(* ------------------------------------------------------------------ *)

(** A site is only touched when its current bytes are exactly what the
    runtime last wrote there (initially: what the linker produced).  A
    mismatch means some other mechanism — e.g. the prologue jump of an
    enclosing multiversed function — owns those bytes now; the site is
    skipped and reported, never corrupted. *)
let site_intact t (s : site) : bool =
  let current = Image.read_bytes t.image s.s_addr s.s_size in
  Bytes.equal current s.s_written

let write_site t (s : site) (b : bytes) (state : site_state) =
  Patch.write_text t.patch ~addr:s.s_addr b;
  s.s_written <- Image.read_bytes t.image s.s_addr s.s_size;
  s.s_state <- state

let skip_site t (s : site) reason =
  t.skipped_sites <- (s.s_addr, reason) :: t.skipped_sites

(** Point the site at [target]: either inline the body at [target] (if small
    enough) or patch a direct call.  [target_size] is the encoded size of
    the target body, from its descriptor. *)
let install_site t (s : site) ~who ~target ~target_size =
  if not (site_intact t s) then skip_site t s "site bytes changed by another mechanism"
  else begin
    let body =
      if t.inline_enabled then
        Patch.inlineable_body t.patch ~fn_addr:target ~fn_size:target_size ~budget:s.s_size
      else None
    in
    match body with
    | Some body ->
        let b = Bytes.make s.s_size (Char.chr (Insn.opcode Insn.Nop)) in
        Bytes.blit body 0 b 0 (Bytes.length body);
        write_site t s b (Site_inlined target);
        emit t (Trace.Site_inlined { fn = who; site = s.s_addr; target })
    | None ->
        (* a 6-byte indirect site gets a 5-byte direct call plus one nop *)
        let call = Patch.encode_call ~site:s.s_addr ~target in
        let b = Bytes.make s.s_size (Char.chr (Insn.opcode Insn.Nop)) in
        Bytes.blit call 0 b 0 (Bytes.length call);
        write_site t s b (Site_retargeted target);
        emit t (Trace.Site_retargeted { fn = who; site = s.s_addr; target })
  end

let restore_site t (s : site) =
  match s.s_state with
  | Site_original -> ()
  | Site_retargeted _ | Site_inlined _ ->
      if site_intact t s then write_site t s s.s_original Site_original
      else skip_site t s "cannot restore: site bytes changed by another mechanism"

(* ------------------------------------------------------------------ *)
(* Function-level install / revert                                     *)
(* ------------------------------------------------------------------ *)

let revert_fn_entry t (fe : fn_entry) =
  List.iter
    (Option.iter (Patch.restore_bytes t.patch ~addr:fe.fe_record.fd_generic))
    [ fe.fe_saved_body; fe.fe_prologue ];
  fe.fe_saved_body <- None;
  fe.fe_prologue <- None;
  List.iter (restore_site t) fe.fe_sites;
  fe.fe_installed <- None

let install_variant_call_sites t (fe : fn_entry) (v : variant) =
  List.iter
    (fun s -> install_site t s ~who:fe.fe_name ~target:v.vn_addr ~target_size:v.vn_size)
    fe.fe_sites;
  fe.fe_prologue <-
    Some (Patch.install_prologue_jmp t.patch ~fn_addr:fe.fe_record.fd_generic ~target:v.vn_addr);
  emit t (Trace.Prologue_patched { fn = fe.fe_name; target = v.vn_addr })

(* The Section 7.1 alternative: overwrite the generic body with the
   relocated variant body.  One patch per function, no call-site work, but
   the body must fit — otherwise fall back to the completeness jump. *)
let install_variant_body t (fe : fn_entry) (v : variant) =
  let generic = fe.fe_record.fd_generic in
  if v.vn_size <= fe.fe_record.fd_generic_size then begin
    fe.fe_saved_body <-
      Some (Patch.read_text t.patch ~addr:generic ~len:fe.fe_record.fd_generic_size);
    let relocated =
      Patch.relocate_body t.patch ~src:v.vn_addr ~len:v.vn_size ~dst:generic
    in
    Patch.write_text t.patch ~addr:generic relocated
  end
  else begin
    (* variant larger than the generic body: redirect the prologue instead *)
    fe.fe_prologue <-
      Some (Patch.install_prologue_jmp t.patch ~fn_addr:generic ~target:v.vn_addr);
    emit t (Trace.Prologue_patched { fn = fe.fe_name; target = v.vn_addr })
  end

(* Whether the function is bound to the body at [addr].  Aliases that
   share a body are one binding: selecting another alias of the bound
   body patches nothing and reports nothing, and evicting any alias of it
   unbinds the function. *)
let bound_at (fe : fn_entry) addr =
  match fe.fe_installed with Some v -> v.vn_addr = addr | None -> false

let install_variant t (fe : fn_entry) (v : variant) =
  if not (bound_at fe v.vn_addr) then begin
    emit t (Trace.Variant_selected { fn = fe.fe_name; variant = v.vn_name });
    (* return to the pristine state first, then apply the new variant *)
    revert_fn_entry t fe;
    (match t.strategy with
    | Call_site_patching -> install_variant_call_sites t fe v
    | Body_patching -> install_variant_body t fe v);
    fe.fe_installed <- Some v
  end

(* Return the function to its generic body, reporting the unbind when a
   variant was bound.  [install_variant]'s own revert before a rebind
   stays silent: the [Variant_selected] it emits already names the
   successor. *)
let unbind_fn t (fe : fn_entry) =
  Option.iter
    (fun v -> emit t (Trace.Variant_unbound { fn = fe.fe_name; variant = v.vn_name }))
    fe.fe_installed;
  revert_fn_entry t fe

(* ------------------------------------------------------------------ *)
(* Lazy materialization: the demand-driven variant cache               *)
(* ------------------------------------------------------------------ *)

(** Enable demand-driven materialization: [recipes] are the compiler's
    per-function specialization recipes ([Compiler.recipes]), [call_pad]
    the program-wide call-site padding rule ([Compiler.call_pad]), and
    [budget] the resident variant-text byte budget (default: the whole
    variant-text region). *)
let enable_lazy ?budget t ~recipes ~call_pad =
  let vt = t.image.Image.vtext in
  if vt.Image.sr_size = 0 then
    errf "lazy materialization needs a variant-text region (link with vtext_size > 0)";
  let budget = match budget with Some b -> b | None -> vt.Image.sr_size in
  if budget <= 0 then errf "variant budget must be positive";
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Variantgen.recipe) ->
      let n = Domain.cross_product_size r.Variantgen.rc_switches in
      let memo = if n <= Variantgen.default_max_variants then Array.make n None else [||] in
      Hashtbl.replace tbl r.Variantgen.rc_name { lr_recipe = r; lr_memo = memo })
    recipes;
  t.lazy_st <-
    Some
      {
        lz_recipes = tbl;
        lz_call_pad = call_pad;
        lz_budget = budget;
        lz_cursor = vt.Image.sr_base;
        lz_free = [];
        lz_dedup = Hashtbl.create 16;
        lz_variants = Hashtbl.create 16;
        lz_bytes = 0;
        lz_tick = 0;
        lz_specialized = 0;
        lz_evict_pending = [];
        lz_advisor = None;
        lz_stale_cache = false;
        lz_materialized = 0;
        lz_dedup_hits = 0;
        lz_cache_hits = 0;
        lz_evictions = 0;
        lz_budget_denials = 0;
      }

let lazy_required t =
  match t.lazy_st with
  | Some lz -> lz
  | None -> errf "lazy materialization is not enabled (Runtime.enable_lazy)"

(** Install (or remove) the eviction advisor: a thunk returning variant
    symbols in preferred eviction order (harnesses wire the [Evict]
    verdicts of [Heat.evict_plan] here).  Symbols the cache cannot evict
    — unknown, journaled for a pending bind, or already draining — are
    skipped; least-recently-selected order covers whatever the advisor
    does not. *)
let set_evict_advisor t adv = (lazy_required t).lz_advisor <- adv

(** Fuzzing chaos: make eviction skip the dedup-table invalidation, so a
    later structural-hash hit links a freed (and possibly recycled)
    block.  The lazy-eager-equiv oracle must catch the divergence. *)
let set_stale_cache_chaos t flag = (lazy_required t).lz_stale_cache <- flag

(** Whether the variant cache would specialize [fe] at all — it has
    resident variants, or a recipe to materialize one from. *)
let specializable t (fe : fn_entry) =
  fe.fe_variants <> []
  ||
  match t.lazy_st with
  | Some lz -> Hashtbl.mem lz.lz_recipes fe.fe_name
  | None -> false

(* The current point assignment of a recipe's switches with its number
   in the recipe's cross product (mixed radix over [rc_switches], each
   digit the value's position in its domain), or [None] when any switch
   value is outside its specialization domain (the generic fallback
   covers those, exactly as under eager generation). *)
let recipe_assignment t (r : Variantgen.recipe) : ((string * int) list * int) option =
  let ok = ref true and index = ref 0 in
  let a =
    List.map
      (fun (name, dom) ->
        match Image.symbol_opt t.image name with
        | None ->
            ok := false;
            (name, 0)
        | Some addr ->
            let v = read_switch t addr in
            (match List.find_index (Int.equal v) dom with
            | Some i -> index := (!index * List.length dom) + i
            | None -> ok := false);
            (name, v))
      r.Variantgen.rc_switches
  in
  if !ok then Some (a, !index) else None

(* First-fit allocation from the free list, else from the bump cursor;
   blocks are 16-aligned like the static text layout. *)
let vtext_alloc t lz size : (int * int) option =
  let size = (size + 15) / 16 * 16 in
  let rec take acc = function
    | [] -> None
    | (a, s) :: rest when s >= size ->
        let rest' = if s > size then (a + size, s - size) :: rest else rest in
        Some (a, List.rev_append acc rest')
    | blk :: rest -> take (blk :: acc) rest
  in
  match take [] lz.lz_free with
  | Some (a, free') ->
      lz.lz_free <- free';
      Some (a, size)
  | None ->
      let vt = t.image.Image.vtext in
      let a = lz.lz_cursor in
      if a + size <= vt.Image.sr_base + vt.Image.sr_size then begin
        lz.lz_cursor <- a + size;
        Some (a, size)
      end
      else None

let vtext_free lz ~addr ~size =
  let rec insert = function
    | [] -> [ (addr, size) ]
    | (a, s) :: rest when addr < a -> (addr, size) :: (a, s) :: rest
    | blk :: rest -> blk :: insert rest
  in
  let rec coalesce = function
    | (a1, s1) :: (a2, s2) :: rest when a1 + s1 = a2 -> coalesce ((a1, s1 + s2) :: rest)
    | blk :: rest -> blk :: coalesce rest
    | [] -> []
  in
  lz.lz_free <- coalesce (insert lz.lz_free)

(* Variant addresses a journaled Act_bind still needs: their bodies must
   survive until the set drains (or is superseded). *)
let pending_variant_addrs t =
  List.concat_map
    (fun pset ->
      List.filter_map
        (function Act_bind (_, v) -> Some v.vn_addr | _ -> None)
        pset.pset_actions)
    t.pending

(* Every touch takes a fresh tick, so no two resident aliases share a
   stamp and ordering by stamp alone is a total order ([make_room]
   relies on it). *)
let touch_lru lz (v : variant) =
  lz.lz_tick <- lz.lz_tick + 1;
  v.vn_stamp <- lz.lz_tick

(* Is any live activation inside [addr, addr+size)?  Without a scanner
   the paper's model applies — the caller guarantees a patchable state —
   and victims are treated as quiescent. *)
let victim_live t ~addr ~size =
  match t.live_scanner with
  | None -> false
  | Some scan -> List.exists (fun a -> a >= addr && a < addr + size) (scan ())

(* Drop the descriptor alias [sym]; release its body block when it was
   the last alias.  Returns the bytes returned to the allocator. *)
let drop_alias t lz sym (mi : mat_info) : int =
  let fe = mi.mi_fn in
  fe.fe_variants <- List.filter (fun v -> v != mi.mi_alias) fe.fe_variants;
  Hashtbl.remove lz.lz_variants sym;
  Image.remove_symbol t.image sym;
  let freed =
    match Hashtbl.find_opt lz.lz_dedup mi.mi_key with
    | Some de when de.de_addr = mi.mi_alias.vn_addr ->
        de.de_refs <- de.de_refs - 1;
        if de.de_refs > 0 then 0
        else begin
          (* last alias gone: release the block.  The stale-cache chaos
             mode skips the dedup invalidation — a later hash hit would
             link the recycled block, which the lazy-eager-equiv fuzz
             oracle exists to catch. *)
          if not lz.lz_stale_cache then Hashtbl.remove lz.lz_dedup mi.mi_key;
          t.framemaps <-
            List.filter
              (fun (fm : Descriptor.framemap_record) -> fm.Descriptor.fm_addr <> de.de_addr)
              t.framemaps;
          vtext_free lz ~addr:de.de_addr ~size:de.de_alloc;
          lz.lz_bytes <- lz.lz_bytes - de.de_alloc;
          de.de_alloc
        end
    | _ -> 0
  in
  lz.lz_evictions <- lz.lz_evictions + 1;
  emit t (Trace.Variant_evicted { fn = fe.fe_name; variant = sym; freed });
  freed

(* Evict one victim.  An installed victim whose body is quiescent is
   reverted to generic on the spot (the existing revert machinery); one
   with a live activation is journaled as an Act_unbind — drained, with
   OSR's help, at a later safepoint — and its bytes are released only
   once the unbind lands. *)
let evict_one t lz sym (mi : mat_info) : unit =
  let fe = mi.mi_fn in
  let addr = mi.mi_alias.vn_addr in
  let size = max mi.mi_alias.vn_size 1 in
  let defer () =
    if not (List.mem sym lz.lz_evict_pending) then
      lz.lz_evict_pending <- lz.lz_evict_pending @ [ sym ]
  in
  if bound_at fe addr then
    if victim_live t ~addr ~size then begin
      journal t [ Act_unbind fe ];
      defer ()
    end
    else begin
      unbind_fn t fe;
      ignore (drop_alias t lz sym mi)
    end
  else if victim_live t ~addr ~size then defer ()
  else ignore (drop_alias t lz sym mi)

(* Make room for [need] more resident bytes: evict candidates — advisor
   order first, then least-recently-selected — until the budget fits.
   Aliases journaled for a pending bind and victims already draining are
   never candidates.  Returns [false] when the budget still does not fit
   (deferred victims free their bytes only at a safepoint). *)
let make_room t lz ~need : bool =
  if lz.lz_bytes + need <= lz.lz_budget then true
  else begin
    let protected_addrs = pending_variant_addrs t in
    let evictable sym (mi : mat_info) =
      (not (List.mem sym lz.lz_evict_pending))
      && not (List.mem mi.mi_alias.vn_addr protected_addrs)
    in
    let by_lru =
      Hashtbl.fold (fun sym mi acc -> (sym, mi) :: acc) lz.lz_variants []
      |> List.filter (fun (sym, mi) -> evictable sym mi)
      |> List.sort (fun (_, (ma : mat_info)) (_, (mb : mat_info)) ->
             Int.compare ma.mi_alias.vn_stamp mb.mi_alias.vn_stamp)
    in
    let advised =
      match lz.lz_advisor with
      | None -> []
      | Some f ->
          List.filter_map
            (fun sym ->
              match Hashtbl.find_opt lz.lz_variants sym with
              | Some mi when evictable sym mi -> Some (sym, mi)
              | _ -> None)
            (f ())
    in
    let rec go seen = function
      | _ when lz.lz_bytes + need <= lz.lz_budget -> true
      | [] -> lz.lz_bytes + need <= lz.lz_budget
      | (sym, mi) :: rest ->
          if List.mem sym seen then go seen rest
          else begin
            evict_one t lz sym mi;
            go (sym :: seen) rest
          end
    in
    go [] (advised @ by_lru)
  end

(** Shrink (or grow) the resident byte budget.  Shrinking evicts down to
    the new budget immediately where possible; victims with live
    activations drain at later safepoints, so residency may exceed a
    just-shrunk budget until then — new materializations are denied in
    the meantime. *)
let set_variant_budget t b =
  let lz = lazy_required t in
  if b <= 0 then errf "variant budget must be positive";
  lz.lz_budget <- b;
  ignore (make_room t lz ~need:0)

(* Link one alias: append it to the function's variants under its own
   symbol, register the symbol and the book-keeping, stamp the LRU, report
   the materialization.  Returns the new alias. *)
let link_alias t lz (fe : fn_entry) ~symbol ~key ~addr ~size ~guards ~dedup =
  let alias =
    { vn_name = symbol; vn_addr = addr; vn_size = size; vn_guards = guards; vn_stamp = 0 }
  in
  fe.fe_variants <- fe.fe_variants @ [ alias ];
  Image.add_symbol t.image symbol ~addr ~size;
  Hashtbl.replace lz.lz_variants symbol { mi_fn = fe; mi_key = key; mi_alias = alias };
  touch_lru lz alias;
  lz.lz_materialized <- lz.lz_materialized + 1;
  emit t (Trace.Variant_materialized { fn = fe.fe_name; variant = symbol; addr; size; dedup });
  alias

let specialize lz (r : Variantgen.recipe) assignment =
  lz.lz_specialized <- lz.lz_specialized + 1;
  Variantgen.specialize_recipe r assignment

(* The spec of assignment number [index] of [lr]: its memo entry, or a
   fresh specialization — memoized when the recipe has a memo — returned
   with the variant whose IR a dedup miss emits. *)
let spec_of t lz (lr : lazy_recipe) assignment index : spec * Variantgen.variant option =
  let memoized = Array.length lr.lr_memo > 0 in
  match if memoized then lr.lr_memo.(index) else None with
  | Some sp -> (sp, None)
  | None ->
      let v = specialize lz lr.lr_recipe assignment in
      let key = Mv_opt.Merge.canonical_form v.Variantgen.v_fn in
      let guards =
        List.concat_map
          (fun box ->
            List.map
              (fun (r : Guard.range) ->
                {
                  Descriptor.gr_var = Image.symbol t.image r.Guard.g_var;
                  gr_lo = r.Guard.g_lo;
                  gr_hi = r.Guard.g_hi;
                })
              box)
          v.Variantgen.v_guards
      in
      let sp =
        { sp_symbol = v.Variantgen.v_symbol; sp_key = key; sp_guards = guards; sp_frag = None }
      in
      if memoized then lr.lr_memo.(index) <- Some sp;
      (sp, Some v)

(* Materialize the variant for [assignment] (number [index] of its
   recipe's cross product): specialize the recipe and optimize — or find
   both done in the memo — then either link the structurally-equal
   resident body (hash hit: no new bytes) or assemble the fragment (once
   per memoized spec), apply its relocations against the image's symbols
   to a copy, and write it into the variant-text region.  A spec whose
   first materialization was a hash hit has no fragment: its first miss
   specializes again to emit one.  Returns the linked alias.  A budget
   (or region-capacity) miss denies the materialization: no alias is
   linked ([None]), the function stays generic, and a later commit
   retries. *)
let materialize t lz (fe : fn_entry) (lr : lazy_recipe) (assignment : (string * int) list)
    index : variant option =
  let sp, fresh = spec_of t lz lr assignment index in
  let symbol = sp.sp_symbol and key = sp.sp_key and guards = sp.sp_guards in
  match Hashtbl.find_opt lz.lz_dedup key with
  | Some de ->
      (* structural-hash hit: the body is already resident *)
      de.de_refs <- de.de_refs + 1;
      lz.lz_dedup_hits <- lz.lz_dedup_hits + 1;
      Some
        (link_alias t lz fe ~symbol ~key ~addr:de.de_addr ~size:de.de_size ~guards
           ~dedup:true)
  | None -> (
      let frag =
        match sp.sp_frag with
        | Some frag -> frag
        | None ->
            let v =
              match fresh with Some v -> v | None -> specialize lz lr.lr_recipe assignment
            in
            let frag =
              try Emit.emit_fn ~call_pad:lz.lz_call_pad v.Variantgen.v_fn
              with Emit.Error m -> errf "materialize %s: %s" symbol m
            in
            sp.sp_frag <- Some frag;
            frag
      in
      let code = Bytes.copy frag.Emit.fr_code in
      let size = Bytes.length code in
      let alloc_size = (size + 15) / 16 * 16 in
      let denied () =
        lz.lz_budget_denials <- lz.lz_budget_denials + 1;
        None
      in
      if not (make_room t lz ~need:alloc_size) then denied ()
      else
        match vtext_alloc t lz size with
        | None -> denied () (* the region itself is exhausted (or too fragmented) *)
        | Some (addr, alloc) ->
            List.iter
              (fun (r : Objfile.reloc) ->
                let s =
                  match Image.symbol_opt t.image r.Objfile.r_sym with
                  | Some a -> a
                  | None ->
                      errf "materialize %s: undefined symbol %s" symbol r.Objfile.r_sym
                in
                let off = r.Objfile.r_offset in
                try Mv_link.Linker.patch_reloc code ~off ~p:(addr + off) ~s r
                with Mv_link.Linker.Link_error m -> errf "materialize %s: %s" symbol m)
              frag.Emit.fr_relocs;
            Patch.write_text t.patch ~addr code;
            (* host-built frame map, so OSR can transfer activations in
               and out of the materialized body *)
            t.framemaps <-
              t.framemaps
              @ [
                  {
                    Descriptor.fm_addr = addr;
                    fm_frame_bytes = frag.Emit.fr_frame_bytes;
                    fm_saves = frag.Emit.fr_saves;
                    fm_safepoints =
                      List.map
                        (fun (sp : Emit.safepoint) ->
                          {
                            Descriptor.fs_id = sp.Emit.sp_id;
                            fs_pc = addr + sp.Emit.sp_offset;
                            fs_live =
                              List.map
                                (fun (vreg, (a : Mv_codegen.Regalloc.assignment)) ->
                                  match a with
                                  | Mv_codegen.Regalloc.Phys r ->
                                      (vreg, Descriptor.Loc_reg r)
                                  | Mv_codegen.Regalloc.Slot s ->
                                      (vreg, Descriptor.Loc_slot s)
                                  | Mv_codegen.Regalloc.Unused -> assert false)
                                sp.Emit.sp_live;
                          })
                        frag.Emit.fr_safepoints;
                  }
                ];
            Hashtbl.replace lz.lz_dedup key
              { de_addr = addr; de_size = size; de_alloc = alloc; de_refs = 1 };
            lz.lz_bytes <- lz.lz_bytes + alloc;
            Some (link_alias t lz fe ~symbol ~key ~addr ~size ~guards ~dedup:false))

(** Select the variant for the current switch values: the first match in
    descriptor order.  On a lazy runtime an in-domain miss first
    materializes the variant (or dedup-links a resident body), so
    selection sees the candidates an eager image carries; an in-domain
    hit counts as a cache hit and refreshes the alias's LRU stamp.  One
    guard scan per call; with lazy materialization off, one [option]
    match more — pay-for-use, like the tracer. *)
let select_variant t (fe : fn_entry) : variant option =
  let found = List.find_opt (fun v -> guards_satisfied t v.vn_guards) fe.fe_variants in
  match t.lazy_st with
  | None -> found
  | Some lz -> (
      match Hashtbl.find_opt lz.lz_recipes fe.fe_name with
      | None -> found
      | Some lr -> (
          match (recipe_assignment t lr.lr_recipe, found) with
          | None, _ -> found (* out of domain: the generic fallback handles it *)
          | Some _, Some v ->
              lz.lz_cache_hits <- lz.lz_cache_hits + 1;
              touch_lru lz v;
              found
          | Some (assignment, index), None ->
              (* the fresh alias is guarded by this very assignment, so it
                 is the one candidate that now matches *)
              materialize t lz fe lr assignment index))

(* ------------------------------------------------------------------ *)
(* Function-pointer switches                                           *)
(* ------------------------------------------------------------------ *)

let revert_fnptr_entry t (fp : fnptr_entry) =
  List.iter (restore_site t) fp.fp_sites;
  fp.fp_committed <- None

(** Patch every recorded indirect call site of the fn-pointer switch into a
    direct call to [target] (or inline the target body).  The target's size
    is taken from the symbol table. *)
let install_fnptr t (fp : fnptr_entry) ~target =
  if fp.fp_committed <> Some target then begin
    revert_fnptr_entry t fp;
    let target_size =
      match Image.symbol_at t.image target with
      | Some name -> Image.symbol_size t.image name
      | None -> 0
    in
    List.iter
      (fun s -> install_site t s ~who:fp.fp_switch.sw_name ~target ~target_size)
      fp.fp_sites;
    fp.fp_committed <- Some target
  end

(* ------------------------------------------------------------------ *)
(* Staging: apply a patch now, or journal / refuse it while live      *)
(* ------------------------------------------------------------------ *)

(* The paper's runtime performs no synchronization — "the caller guarantees
   a patchable state" (Section 2) — and Section 7.1 leaves safe application
   while specialized code is live open.  In the simulator we can prove
   quiescence: the machine reports every code address with a live
   activation (pc + conservative stack scan), and a patch is applied only
   when none of them falls inside the bytes it would rewrite.  Patches for
   live functions are journaled and drained transactionally at quiescence
   points (the machine's safepoint hook).  The Table 1 API stages through
   the same path with nothing live. *)

type safe_policy = Defer | Deny

let set_live_scanner t scan = t.live_scanner <- Some scan

let live_addrs t =
  match t.live_scanner with
  | Some scan -> scan ()
  | None -> errf "safe commit requires a live scanner (Runtime.set_live_scanner)"

(* The half-open byte ranges a (re)bind or revert of the function would
   rewrite: the generic prologue/body and every recorded call site.  The
   range end matters: a return address just past an unpadded call
   instruction is *outside* its site and safe, while the same return
   address inside a nop-padded site (where an inlined body may extend past
   it) keeps the site live. *)
let fn_touched_ranges (fe : fn_entry) : (int * int) list =
  let generic = fe.fe_record.fd_generic in
  let body_hi = generic + max fe.fe_record.fd_generic_size Insn.jmp_size in
  (generic, body_hi)
  :: List.map (fun s -> (s.s_addr, s.s_addr + s.s_size)) fe.fe_sites

let fnptr_touched_ranges (fp : fnptr_entry) : (int * int) list =
  List.map (fun s -> (s.s_addr, s.s_addr + s.s_size)) fp.fp_sites

let ranges_live ranges live =
  List.exists (fun a -> List.exists (fun (lo, hi) -> a >= lo && a < hi) ranges) live

(* The body range of the currently installed variant.  Unbinding (or
   rebinding to a different variant) while an activation executes *inside*
   that body would leave it running code the runtime just declared stale,
   so the range counts as live-blocked — and is exactly what on-stack
   replacement transfers activations out of. *)
let installed_body_range (fe : fn_entry) : (int * int) list =
  match fe.fe_installed with
  | Some v -> [ (v.vn_addr, v.vn_addr + max v.vn_size 1) ]
  | None -> []

(* The ranges an unbind would actually rewrite, given the entry's current
   state: the saved prologue bytes, the saved generic body (body patching),
   every non-pristine call site — plus the installed variant's body (see
   above).  Unlike a bind, an unbind leaves the *generic* body semantically
   current for every switch value, so a generic activation parked past the
   prologue bytes does not block it; a pristine entry blocks on nothing,
   because its unbind rewrites nothing. *)
let fn_unbind_ranges (fe : fn_entry) : (int * int) list =
  let generic = fe.fe_record.fd_generic in
  let saved =
    List.filter_map
      (Option.map (fun b -> (generic, generic + Bytes.length b)))
      [ fe.fe_prologue; fe.fe_saved_body ]
  in
  let sites =
    List.filter_map
      (fun s ->
        match s.s_state with
        | Site_original -> None
        | Site_retargeted _ | Site_inlined _ -> Some (s.s_addr, s.s_addr + s.s_size))
      fe.fe_sites
  in
  installed_body_range fe @ saved @ sites

let action_ranges = function
  | Act_bind (fe, _) -> installed_body_range fe @ fn_touched_ranges fe
  | Act_unbind fe -> fn_unbind_ranges fe
  | Act_bind_ptr (fp, _) | Act_unbind_ptr fp -> fnptr_touched_ranges fp

let action_name = function
  | Act_bind (fe, _) | Act_unbind fe -> fe.fe_name
  | Act_bind_ptr (fp, _) | Act_unbind_ptr fp -> fp.fp_switch.sw_name

(* Lenient application, for patches staged to apply now: foreign site
   bytes are skipped and reported, never corrupted. *)
let apply_action_lenient t = function
  | Act_bind (fe, v) -> install_variant t fe v
  | Act_unbind fe -> unbind_fn t fe
  | Act_bind_ptr (fp, target) -> install_fnptr t fp ~target
  | Act_unbind_ptr fp -> revert_fnptr_entry t fp

(* The stager every commit and revert entry point hands its actions to:
   the live-activation set it was opened with ([[]] for the Table 1 API,
   whose caller guarantees a patchable state) and the actions it has
   journaled so far. *)
type stager = {
  sg_policy : safe_policy;
  sg_live : int list;
  mutable sg_deferred : pending_action list;  (* newest first *)
}

(* The per-entity Table 1 entry points: nothing live, nothing journaled. *)
let immediate () = { sg_policy = Defer; sg_live = []; sg_deferred = [] }

(* Apply [action] now or — when the bytes it would rewrite hold a live
   activation — journal it ([Defer]) or refuse it ([Deny]).  Returns
   whether it was applied.  With nothing live no patch range is computed:
   a spinlock with a thousand call sites would otherwise build its range
   list on every commit. *)
let stage t sg action : bool =
  let blocked =
    match sg.sg_live with [] -> false | live -> ranges_live (action_ranges action) live
  in
  if not blocked then begin
    apply_action_lenient t action;
    true
  end
  else begin
    (match sg.sg_policy with
    | Defer ->
        sg.sg_deferred <- action :: sg.sg_deferred;
        t.safe.sc_deferred <- t.safe.sc_deferred + 1;
        emit t (Trace.Safe_defer { cid = t.cur_cid; fn = action_name action })
    | Deny ->
        t.safe.sc_denied <- t.safe.sc_denied + 1;
        emit t (Trace.Safe_deny { cid = t.cur_cid; fn = action_name action }));
    false
  end

(* ------------------------------------------------------------------ *)
(* The per-entity decisions                                            *)
(* ------------------------------------------------------------------ *)

(** Decide what the function should be bound to under the current switch
    values and stage it: the selected variant, or the generic body (with a
    fallback signal) when none matches.  Binding decisions are made now; a
    journaled bind installs the variant selected now, not at application
    time.  An unbind is staged only when something is installed.  Returns
    [true] when the function ends bound. *)
let commit_fn t sg (fe : fn_entry) : bool =
  match select_variant t fe with
  | Some v -> bound_at fe v.vn_addr || stage t sg (Act_bind (fe, v))
  | None ->
      if fe.fe_installed <> None || fe.fe_prologue <> None || fe.fe_saved_body <> None
      then ignore (stage t sg (Act_unbind fe));
      (* only signal when the function actually has (or could materialize)
         specialized variants: a variant-less function is trivially bound
         to its generic body *)
      if specializable t fe then fallback t fe.fe_name;
      false

(** The same for a function-pointer switch: bind its indirect call sites
    to the pointer's current in-memory target, or restore them (with a
    fallback signal) while the pointer is null. *)
let commit_fnptr t sg (fp : fnptr_entry) : bool =
  let target = Image.read t.image fp.fp_switch.sw_var.vr_addr 8 in
  if target = 0 then begin
    if fp.fp_committed <> None then ignore (stage t sg (Act_unbind_ptr fp));
    fallback t fp.fp_switch.sw_name;
    false
  end
  else fp.fp_committed = Some target || stage t sg (Act_bind_ptr (fp, target))

let revert_fn t sg fe = stage t sg (Act_unbind fe)
let revert_fnptr t sg fp = stage t sg (Act_unbind_ptr fp)

(* Decide over the functions, then the fn-pointer switches; returns how
   many ended in the requested state. *)
let decide_each sg ~fn ~ptr fns ptrs =
  let count f xs = List.fold_left (fun n x -> if f sg x then n + 1 else n) 0 xs in
  let n = count fn fns in
  n + count ptr ptrs

let commit_each t sg = decide_each sg ~fn:(commit_fn t) ~ptr:(commit_fnptr t)
let revert_each t sg = decide_each sg ~fn:(revert_fn t) ~ptr:(revert_fnptr t)

(* ------------------------------------------------------------------ *)
(* The Table 1 API and its safe pair                                   *)
(* ------------------------------------------------------------------ *)

(* Any whole-image (re)decision makes previously journaled patch sets
   stale: drop them so a safepoint cannot apply an outdated binding over a
   newer one. *)
let supersede_pending t =
  List.iter
    (fun pset ->
      t.safe.sc_superseded <- t.safe.sc_superseded + List.length pset.pset_actions)
    t.pending;
  t.pending <- []

(* One whole-image span: the begin event, the live set, a superseded
   journal and fresh fallbacks, one decision per entity, the journal of
   whatever the stager deferred, and the end event with the count. *)
let span t op ~policy ~live decide : int =
  with_barrier t @@ fun () ->
  emit_span_begin t op;
  let sg = { sg_policy = policy; sg_live = live (); sg_deferred = [] } in
  supersede_pending t;
  t.fallbacks <- [];
  let n = decide sg t.functions t.fnptrs in
  journal t (List.rev sg.sg_deferred);
  emit_span_end t op n;
  n

let nothing_live () = []

(** [multiverse_commit]: the whole-image span with nothing live — the
    caller guarantees a patchable state.  Returns the number of entities
    bound to a specialized state; [fallbacks t] lists functions left
    generic. *)
let commit t : int = span t "commit" ~policy:Defer ~live:nothing_live (commit_each t)

(** [multiverse_revert]: restore the whole image to its unpatched state. *)
let revert t : int = span t "revert" ~policy:Defer ~live:nothing_live (revert_each t)

(** [multiverse_commit], made safe: the same span over the scanner's live
    set.  Entities whose patch ranges are live are journaled ([Defer],
    the default) or refused ([Deny]); the count excludes them until a
    safepoint applies them. *)
let commit_safe ?(policy = Defer) t : int =
  span t "commit_safe" ~policy ~live:(fun () -> live_addrs t) (commit_each t)

(** [multiverse_revert], made safe: returns the number of entities in the
    pristine state when the call returns. *)
let revert_safe ?(policy = Defer) t : int =
  span t "revert_safe" ~policy ~live:(fun () -> live_addrs t) (revert_each t)

let find_fn_by_name t name = List.find_opt (fun fe -> fe.fe_name = name) t.functions

(* Decide, with nothing live, for the multiversed function [name]. *)
let on_func t name decide =
  match find_fn_by_name t name with
  | Some fe -> with_barrier t (fun () -> decide (immediate ()) [ fe ] [])
  | None -> -1

(** [multiverse_commit_func(&fn)]. *)
let commit_func t name = on_func t name (commit_each t)

(** [multiverse_revert_func(&fn)]. *)
let revert_func t name = on_func t name (revert_each t)

(** Functions whose variants guard on the switch at [var_addr] — under
    lazy materialization, also functions whose {e recipe} specializes on
    it (their variants may not be resident yet). *)
let functions_referencing t var_addr =
  let recipe_refs fe =
    match t.lazy_st with
    | None -> false
    | Some lz -> (
        match Hashtbl.find_opt lz.lz_recipes fe.fe_name with
        | None -> false
        | Some lr ->
            List.exists
              (fun (name, _) -> Image.symbol_opt t.image name = Some var_addr)
              lr.lr_recipe.Variantgen.rc_switches)
  in
  List.filter
    (fun fe ->
      List.exists
        (fun v ->
          List.exists (fun (g : Descriptor.guard_record) -> g.gr_var = var_addr) v.vn_guards)
        fe.fe_variants
      || recipe_refs fe)
    t.functions

(* Decide, with nothing live, over every function that references the
   switch [name] and the switch itself when it is a function pointer. *)
let on_refs t name decide =
  match Image.symbol_opt t.image name with
  | None -> -1
  | Some var ->
      with_barrier t @@ fun () ->
      decide (immediate ()) (functions_referencing t var)
        (List.filter (fun fp -> fp.fp_switch.sw_var.vr_addr = var) t.fnptrs)

(** [multiverse_commit_refs(&var)]. *)
let commit_refs t name = on_refs t name (commit_each t)

(** [multiverse_revert_refs(&var)]. *)
let revert_refs t name = on_refs t name (revert_each t)

(* ------------------------------------------------------------------ *)
(* On-stack replacement                                                *)
(* ------------------------------------------------------------------ *)

(** Install (or remove) the OSR hart accessors.  Once installed, a
    safepoint that finds a pending set blocked by a live activation of the
    polling hart transfers that activation into the target body instead of
    leaving the set journaled. *)
let set_osr t ctx = t.osr <- ctx

let framemap_of t addr =
  List.find_opt
    (fun (fm : Descriptor.framemap_record) -> fm.Descriptor.fm_addr = addr)
    t.framemaps

(* Transfer the polling hart's activation from the body at [src] (address,
   size) to the equivalent program point of the body at [dst].  Succeeds
   only when the hart is parked exactly at a safepoint the source frame map
   records AND the target body kept a safepoint with the same stable id
   (specialization can delete program points; a lost id means there is no
   equivalent place to resume, and the set simply stays deferred).

   Frame reconstruction: with [sp_entry] the stack pointer at function
   entry, a body with [n] saved callee-saved registers and [frame_bytes] of
   spill area runs with [sp = sp_entry - 8n - frame_bytes]; save slot [i]
   (push order) lives at [sp_entry - 8(i+1)] and spill slot [s] at
   [sp + 8s].  The caller's value of a callee-saved register is in the
   source save area if the source pushed it, and still in the register
   itself if it did not (an untouched register is never clobbered).  The
   target spill area is zeroed before the live slots land so stale code
   addresses cannot keep the conservative stack scanner believing the old
   frame is still live. *)
let try_osr_transfer t (ctx : osr_hart) ~cid ~(fe : fn_entry) ~src:(src_addr, src_size)
    ~(dst : int) : bool =
  let pc = ctx.oh_pc () in
  if src_addr = dst || pc < src_addr || pc >= src_addr + src_size then false
  else
    match (framemap_of t src_addr, framemap_of t dst) with
    | Some fm_s, Some fm_d -> (
        match
          List.find_opt
            (fun (s : Descriptor.safepoint_record) -> s.Descriptor.fs_pc = pc)
            fm_s.Descriptor.fm_safepoints
        with
        | None -> false (* live in the body, but not parked at a known point *)
        | Some sp_s -> (
            match
              List.find_opt
                (fun (s : Descriptor.safepoint_record) ->
                  s.Descriptor.fs_id = sp_s.Descriptor.fs_id)
                fm_d.Descriptor.fm_safepoints
            with
            | None ->
                (* the target body lost this program point to specialization *)
                t.safe.sc_osr_aborts <- t.safe.sc_osr_aborts + 1;
                false
            | Some sp_d ->
                let sp_cur = ctx.oh_reg Insn.sp in
                let n_saves_s = List.length fm_s.Descriptor.fm_saves in
                let sp_entry = sp_cur + fm_s.Descriptor.fm_frame_bytes + (8 * n_saves_s) in
                let read_loc = function
                  | Descriptor.Loc_reg r -> ctx.oh_reg r
                  | Descriptor.Loc_slot s -> ctx.oh_mem (sp_cur + (8 * s))
                in
                let src_vals =
                  List.map (fun (v, loc) -> (v, read_loc loc)) sp_s.Descriptor.fs_live
                in
                if
                  List.exists
                    (fun (v, _) -> not (List.mem_assoc v src_vals))
                    sp_d.Descriptor.fs_live
                then begin
                  (* a target-live vreg has no source value: maps disagree *)
                  t.safe.sc_osr_aborts <- t.safe.sc_osr_aborts + 1;
                  false
                end
                else begin
                  let src_save_idx r =
                    let rec go i = function
                      | [] -> None
                      | r' :: _ when r' = r -> Some i
                      | _ :: rest -> go (i + 1) rest
                    in
                    go 0 fm_s.Descriptor.fm_saves
                  in
                  let caller_val r =
                    match src_save_idx r with
                    | Some i -> ctx.oh_mem (sp_entry - (8 * (i + 1)))
                    | None -> ctx.oh_reg r
                  in
                  let caller_vals =
                    List.map
                      (fun r -> (r, caller_val r))
                      (List.sort_uniq compare
                         (fm_s.Descriptor.fm_saves @ fm_d.Descriptor.fm_saves))
                  in
                  let n_saves_d = List.length fm_d.Descriptor.fm_saves in
                  let sp_new =
                    sp_entry - (8 * n_saves_d) - fm_d.Descriptor.fm_frame_bytes
                  in
                  List.iteri
                    (fun i r ->
                      ctx.oh_set_mem (sp_entry - (8 * (i + 1))) (List.assoc r caller_vals))
                    fm_d.Descriptor.fm_saves;
                  for s = 0 to (fm_d.Descriptor.fm_frame_bytes / 8) - 1 do
                    ctx.oh_set_mem (sp_new + (8 * s)) 0
                  done;
                  List.iter
                    (fun (v, loc) ->
                      let value = List.assoc v src_vals in
                      match loc with
                      | Descriptor.Loc_reg r -> ctx.oh_set_reg r value
                      | Descriptor.Loc_slot s -> ctx.oh_set_mem (sp_new + (8 * s)) value)
                    sp_d.Descriptor.fs_live;
                  (* registers only the source saved: the target epilogue
                     will not restore them, so the caller's value goes back
                     into the register now *)
                  List.iter
                    (fun r ->
                      if not (List.mem r fm_d.Descriptor.fm_saves) then
                        ctx.oh_set_reg r (List.assoc r caller_vals))
                    fm_s.Descriptor.fm_saves;
                  ctx.oh_set_reg Insn.sp sp_new;
                  ctx.oh_set_pc sp_d.Descriptor.fs_pc;
                  ctx.oh_set_top_frame dst;
                  t.safe.sc_osr_transfers <- t.safe.sc_osr_transfers + 1;
                  emit t
                    (Trace.Osr_transfer
                       {
                         cid;
                         hart = ctx.oh_hart;
                         fn = fe.fe_name;
                         sp_id = sp_s.Descriptor.fs_id;
                         from_pc = pc;
                         to_pc = sp_d.Descriptor.fs_pc;
                         slots = List.length sp_d.Descriptor.fs_live;
                       });
                  true
                end))
    | _ -> false

(* Candidate (source, target) body pairs for one pending action: a bind
   moves the activation out of the generic (or the previously installed
   variant) into the variant being bound; an unbind moves it from the
   installed variant back into the generic.  Function-pointer actions have
   no frame maps — their sites are in foreign callers. *)
let osr_for_action t (ctx : osr_hart) ~cid = function
  | Act_bind (fe, v) ->
      let g = fe.fe_record.fd_generic in
      let moved =
        try_osr_transfer t ctx ~cid ~fe
          ~src:(g, fe.fe_record.fd_generic_size)
          ~dst:v.vn_addr
      in
      if not moved then (
        match fe.fe_installed with
        | Some old when old.vn_addr <> v.vn_addr ->
            ignore
              (try_osr_transfer t ctx ~cid ~fe ~src:(old.vn_addr, old.vn_size)
                 ~dst:v.vn_addr)
        | _ -> ())
  | Act_unbind fe -> (
      match fe.fe_installed with
      | Some v ->
          ignore
            (try_osr_transfer t ctx ~cid ~fe ~src:(v.vn_addr, v.vn_size)
               ~dst:fe.fe_record.fd_generic)
      | None -> ())
  | Act_bind_ptr _ | Act_unbind_ptr _ -> ()

(* Deferred application is strict where an interactive commit is lenient: a
   call site whose bytes diverged from what the runtime last wrote is a
   transaction failure (triggering rollback of the whole set), not a
   skip-and-report.  A deferred set must apply exactly as journaled or not
   at all. *)
let check_sites_strict t who sites =
  List.iter
    (fun s ->
      if not (site_intact t s) then
        errf "deferred apply: call site 0x%x of %s changed by another mechanism" s.s_addr
          who)
    sites

(* Strict application, used inside a deferred transaction: foreign site
   bytes abort the set (and roll it back) instead of being skipped. *)
let apply_action t action =
  (match action with
  | Act_bind (fe, _) | Act_unbind fe -> check_sites_strict t fe.fe_name fe.fe_sites
  | Act_bind_ptr (fp, _) | Act_unbind_ptr fp ->
      check_sites_strict t fp.fp_switch.sw_name fp.fp_sites);
  apply_action_lenient t action

(* What it takes to restore an entity to its pre-transaction state. *)
type undo =
  | Undo_fn of fn_entry * variant option  (* previously bound alias *)
  | Undo_ptr of fnptr_entry * int option  (* previously committed target *)

let undo_of = function
  | Act_bind (fe, _) | Act_unbind fe -> Undo_fn (fe, fe.fe_installed)
  | Act_bind_ptr (fp, _) | Act_unbind_ptr fp -> Undo_ptr (fp, fp.fp_committed)

let undo_action t = function
  | Undo_fn (fe, prior) -> (
      match prior with
      | Some v ->
          revert_fn_entry t fe;
          install_variant t fe v
      | None -> unbind_fn t fe)
  | Undo_ptr (fp, prior) -> (
      revert_fnptr_entry t fp;
      match prior with None -> () | Some target -> install_fnptr t fp ~target)

(** Apply one journaled set transactionally: every action, in order, or —
    if any application fails — undo the already-applied prefix (in reverse
    order) so the image is exactly as before the attempt.  Returns [true]
    on full application. *)
let apply_set t (pset : pending_set) : bool =
  let applied = ref [] in
  match
    List.iter
      (fun act ->
        applied := undo_of act :: !applied;
        apply_action t act)
      pset.pset_actions
  with
  | () ->
      t.safe.sc_applied <- t.safe.sc_applied + List.length pset.pset_actions;
      emit t
        (Trace.Pending_drained
           {
             cid = pset.pset_cid;
             pset = pset.pset_id;
             actions = List.length pset.pset_actions;
           });
      (* close the cross-hart commit chain: the commit staged on
         [pset_hart], the drain ran here *)
      emit t
        (Trace.Causal_edge
           {
             edge = "drain";
             id = pset.pset_cid;
             src_hart = pset.pset_hart;
             dst_hart = cur_hart t;
           });
      true
  | exception (Runtime_error _ | Patch.Patch_error _) ->
      List.iter (undo_action t) !applied;
      t.safe.sc_rolled_back <- t.safe.sc_rolled_back + 1;
      emit t (Trace.Pending_rollback { cid = pset.pset_cid; pset = pset.pset_id });
      false

(* Sweep the variant cache's deferred eviction victims: a victim on the
   evict-pending list releases its alias (and, for the last alias, its
   body bytes) once the body is neither installed — its journaled unbind
   drained, or a newer commit re-bound the function elsewhere — nor home
   to a live activation (OSR may have just moved one out). *)
let sweep_evictions t =
  match t.lazy_st with
  | None -> ()
  | Some lz ->
      if lz.lz_evict_pending <> [] then begin
        let live = match t.live_scanner with Some scan -> scan () | None -> [] in
        lz.lz_evict_pending <-
          List.filter
            (fun sym ->
              match Hashtbl.find_opt lz.lz_variants sym with
              | None -> false (* already gone *)
              | Some mi ->
                  let addr = mi.mi_alias.vn_addr in
                  let size = max mi.mi_alias.vn_size 1 in
                  if
                    bound_at mi.mi_fn addr
                    || List.exists (fun a -> a >= addr && a < addr + size) live
                  then true
                  else begin
                    ignore (drop_alias t lz sym mi);
                    false
                  end)
            lz.lz_evict_pending
      end

(** The quiescence-point drain, wired to the machine's safepoint hook.
    Cheap when nothing is pending (one list check).  Otherwise each pending
    set whose touched ranges are all quiescent is applied transactionally
    and removed — applied exactly once, or rolled back and dropped if an
    application fails mid-set.  Sets whose targets are still live stay
    journaled for a later safepoint.  The variant cache's deferred
    eviction victims are swept here too: their bytes come free once the
    unbind has landed and no activation remains in the body. *)
let safepoint t =
  t.safe.sc_polls <- t.safe.sc_polls + 1;
  let evict_waiting =
    match t.lazy_st with Some lz -> lz.lz_evict_pending <> [] | None -> false
  in
  if (t.pending <> [] || evict_waiting) && not t.in_safepoint then begin
    (* only polls that actually inspect a journal are reported: the
       empty-journal fast path would flood the ring with noise *)
    if t.pending <> [] then
      emit t (Trace.Safepoint_poll { pending = List.length t.pending });
    t.in_safepoint <- true;
    Fun.protect
      ~finally:(fun () -> t.in_safepoint <- false)
      (fun () ->
        (* Resolve the polling hart's accessors *before* entering the
           rendezvous: parking the other harts advances the container's
           current-hart cursor, and the transfer must target the hart
           whose safepoint this is. *)
        let osr_ctx =
          match t.osr with
          | Some ctx_of when t.strategy = Call_site_patching -> Some (ctx_of ())
          | _ -> None
        in
        with_barrier t @@ fun () ->
        (* Before testing quiescence, try to *create* it: move the polling
           hart's activation out of any body a pending action still needs
           (on-stack replacement).  Only under call-site patching — body
           patching relocates variant code over the generic body, which the
           frame maps do not describe. *)
        (match osr_ctx with
        | Some ctx ->
            List.iter
              (fun pset ->
                List.iter (osr_for_action t ctx ~cid:pset.pset_cid) pset.pset_actions)
              t.pending
        | None -> ());
        if t.pending <> [] then begin
          let live = live_addrs t in
          t.pending <-
            List.filter
              (fun pset ->
                let quiescent =
                  not
                    (List.exists
                       (fun a -> ranges_live (action_ranges a) live)
                       pset.pset_actions)
                in
                if quiescent then begin
                  ignore (apply_set t pset);
                  false (* applied or rolled back: either way the set is done *)
                end
                else true)
              t.pending
        end;
        sweep_evictions t)
  end

(** Names of entities with journaled (not yet applied) patches. *)
let pending t : string list =
  List.concat_map (fun pset -> List.map action_name pset.pset_actions) t.pending

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let fallbacks t = List.rev t.fallbacks
let skipped_sites t = List.rev t.skipped_sites

let installed_variant t name =
  match find_fn_by_name t name with
  | Some fe -> Option.map (fun v -> v.vn_name) fe.fe_installed
  | None -> None

(** Whether [name] is the symbol of a selectable variant: an eager
    variant, or a resident lazy alias. *)
let is_variant t name =
  List.exists (fun fe -> List.exists (fun v -> v.vn_name = name) fe.fe_variants) t.functions

(** Every multiversed body as a named [Mv_obs.Heat.region]: the generic
    body plus one region per variant alias under its own name, with
    address ranges from the descriptors and the variant's switch binding
    rendered from its guard records ([switch=v], ranges as
    [switch=lo..hi], comma-joined).  Aliases that share a body share its
    extent, so each reports the body's hits since it was registered.
    Registration order is function order, generic before variants, so
    heat reports are deterministic.  This is the region census
    [Harness.enable_heat] feeds to the heat accumulator. *)
let heat_regions t : Mv_obs.Heat.region list =
  let switch_name addr =
    match find_switch t addr with Some sw -> sw.sw_name | None -> Printf.sprintf "<0x%x>" addr
  in
  let switches_of v =
    String.concat ","
      (List.map
         (fun (g : Descriptor.guard_record) ->
           let name = switch_name g.Descriptor.gr_var in
           if g.Descriptor.gr_lo = g.Descriptor.gr_hi then
             Printf.sprintf "%s=%d" name g.Descriptor.gr_lo
           else Printf.sprintf "%s=%d..%d" name g.Descriptor.gr_lo g.Descriptor.gr_hi)
         v.vn_guards)
  in
  List.concat_map
    (fun fe ->
      let fd = fe.fe_record in
      {
        Mv_obs.Heat.r_name = fe.fe_name;
        r_fn = fe.fe_name;
        r_kind = Mv_obs.Heat.Generic;
        r_switches = "";
        r_lo = fd.Descriptor.fd_generic;
        r_hi = fd.Descriptor.fd_generic + fd.Descriptor.fd_generic_size;
      }
      :: List.map
           (fun v ->
             {
               Mv_obs.Heat.r_name = v.vn_name;
               r_fn = fe.fe_name;
               r_kind = Mv_obs.Heat.Variant;
               r_switches = switches_of v;
               r_lo = v.vn_addr;
               r_hi = v.vn_addr + v.vn_size;
             })
           fe.fe_variants)
    t.functions

(** Whether demand-driven materialization is enabled. *)
let lazy_enabled t = t.lazy_st <> None

(** Materialized variants currently resident: (symbol, body address,
    body size), symbol-sorted.  Dedup aliases appear individually (same
    address, distinct symbols); empty when lazy materialization is off. *)
let materialized_variants t : (string * int * int) list =
  match t.lazy_st with
  | None -> []
  | Some lz ->
      Hashtbl.fold
        (fun sym (mi : mat_info) acc -> (sym, mi.mi_alias.vn_addr, mi.mi_alias.vn_size) :: acc)
        lz.lz_variants []
      |> List.sort compare

(** Variant symbols the cache must keep resident for the journal's sake:
    each journaled (not yet drained) bind still needs its variant's body
    bytes, so [Heat.evict_plan] advisors must exclude these.  Sorted;
    empty when lazy materialization is off. *)
let pending_variants t : string list =
  match t.lazy_st with
  | None -> []
  | Some lz ->
      let addrs = pending_variant_addrs t in
      Hashtbl.fold
        (fun sym (mi : mat_info) acc ->
          if List.mem mi.mi_alias.vn_addr addrs then sym :: acc else acc)
        lz.lz_variants []
      |> List.sort_uniq compare

(** Resident variant-text bytes (unique bodies, allocation-sized) — the
    quantity the byte budget bounds.  [0] when lazy materialization is
    off. *)
let variant_bytes t =
  match t.lazy_st with None -> 0 | Some lz -> lz.lz_bytes

(** Recipe specializations the variant cache has run.  [0] when lazy
    materialization is off. *)
let specializations t =
  match t.lazy_st with None -> 0 | Some lz -> lz.lz_specialized

type stats = {
  st_functions : int;
  st_variants : int;
  st_callsites : int;
  st_sites_inlined : int;
  st_sites_retargeted : int;
  st_patches : int;
  st_bytes_patched : int;
  st_safe_deferred : int;  (** actions journaled by commit_safe/revert_safe *)
  st_safe_denied : int;  (** actions refused under the [Deny] policy *)
  st_safe_superseded : int;  (** journaled actions dropped by a newer commit *)
  st_safe_applied : int;  (** deferred actions applied at safepoints *)
  st_safe_rolled_back : int;  (** pending sets rolled back mid-apply *)
  st_safepoint_polls : int;  (** safepoint invocations *)
  st_pending : int;  (** actions currently journaled *)
  st_osr_transfers : int;  (** live activations moved by on-stack replacement *)
  st_osr_aborts : int;  (** transfers abandoned (frame maps did not line up) *)
  st_materialized : int;  (** variants materialized on demand (dedup hits included) *)
  st_dedup_hits : int;  (** materializations satisfied by a structural-hash hit *)
  st_cache_hits : int;  (** commits that found the needed variant already resident *)
  st_evictions : int;  (** aliases dropped under the byte budget *)
  st_budget_denials : int;  (** materializations refused (budget or region full) *)
  st_variant_bytes : int;  (** resident variant-text bytes (unique bodies) *)
}

let stats t =
  let all_sites =
    List.concat_map (fun fe -> fe.fe_sites) t.functions
    @ List.concat_map (fun fp -> fp.fp_sites) t.fnptrs
  in
  let lzc f = match t.lazy_st with None -> 0 | Some lz -> f lz in
  {
    st_functions = List.length t.functions;
    st_variants =
      List.fold_left (fun acc fe -> acc + List.length fe.fe_variants) 0 t.functions;
    st_callsites = List.length all_sites;
    st_sites_inlined =
      List.length (List.filter (fun s -> match s.s_state with Site_inlined _ -> true | _ -> false) all_sites);
    st_sites_retargeted =
      List.length
        (List.filter (fun s -> match s.s_state with Site_retargeted _ -> true | _ -> false) all_sites);
    st_patches = t.patch.Patch.patches;
    st_bytes_patched = t.patch.Patch.bytes_patched;
    st_safe_deferred = t.safe.sc_deferred;
    st_safe_denied = t.safe.sc_denied;
    st_safe_superseded = t.safe.sc_superseded;
    st_safe_applied = t.safe.sc_applied;
    st_safe_rolled_back = t.safe.sc_rolled_back;
    st_safepoint_polls = t.safe.sc_polls;
    st_pending =
      List.fold_left (fun acc pset -> acc + List.length pset.pset_actions) 0 t.pending;
    st_osr_transfers = t.safe.sc_osr_transfers;
    st_osr_aborts = t.safe.sc_osr_aborts;
    st_materialized = lzc (fun lz -> lz.lz_materialized);
    st_dedup_hits = lzc (fun lz -> lz.lz_dedup_hits);
    st_cache_hits = lzc (fun lz -> lz.lz_cache_hits);
    st_evictions = lzc (fun lz -> lz.lz_evictions);
    st_budget_denials = lzc (fun lz -> lz.lz_budget_denials);
    st_variant_bytes = lzc (fun lz -> lz.lz_bytes);
  }

(* Every {!stats} counter with its export name (the field without the
   [st_] prefix): the one list both exports read. *)
let stats_fields (s : stats) : (string * int) list =
  [
    ("functions", s.st_functions);
    ("variants", s.st_variants);
    ("callsites", s.st_callsites);
    ("sites_inlined", s.st_sites_inlined);
    ("sites_retargeted", s.st_sites_retargeted);
    ("patches", s.st_patches);
    ("bytes_patched", s.st_bytes_patched);
    ("safe_deferred", s.st_safe_deferred);
    ("safe_denied", s.st_safe_denied);
    ("safe_superseded", s.st_safe_superseded);
    ("safe_applied", s.st_safe_applied);
    ("safe_rolled_back", s.st_safe_rolled_back);
    ("safepoint_polls", s.st_safepoint_polls);
    ("pending", s.st_pending);
    ("osr_transfers", s.st_osr_transfers);
    ("osr_aborts", s.st_osr_aborts);
    ("materialized", s.st_materialized);
    ("dedup_hits", s.st_dedup_hits);
    ("cache_hits", s.st_cache_hits);
    ("evictions", s.st_evictions);
    ("budget_denials", s.st_budget_denials);
    ("variant_bytes", s.st_variant_bytes);
  ]

(** The {!stats} record as a JSON object (field names without the [st_]
    prefix) — one third of the unified metrics export. *)
let stats_json (s : stats) : Mv_obs.Json.t =
  Mv_obs.Json.Obj (List.map (fun (name, v) -> (name, Mv_obs.Json.Int v)) (stats_fields s))

(** Export the {!stats} counters into a metrics registry as
    [mv_runtime_<counter>] gauges, so one registry scrape carries the
    runtime's cumulative state alongside the event-derived series.
    Gauges, not counters: {!stats} is already cumulative, and re-bridging
    after more patching must overwrite, not double-count. *)
let stats_metrics (s : stats) (m : Mv_obs.Metrics.t) : unit =
  List.iter
    (fun (name, v) ->
      Mv_obs.Metrics.set_gauge m ("mv_runtime_" ^ name) [] (float_of_int v))
    (stats_fields s)
