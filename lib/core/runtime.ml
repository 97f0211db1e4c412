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
   for negative domain values.

   Binding an entity — a function to a variant or back to its generic
   body, a fn-pointer switch to a target or back to its indirect calls —
   is one operation: it writes each location whose bytes change once,
   over the bytes the runtime last wrote there.  A rebind retargets every
   site and the prologue jump directly; it never passes through the
   linker's bytes.

   Two extensions of ours live behind their own modules: the lazy variant
   cache ([Variant_cache]) and on-stack replacement ([Osr]).  This module
   keeps the sites, the binds, the per-entity decision, the stager and
   the spans, and the safe-commit journal. *)

module Image = Mv_link.Image
module Insn = Mv_isa.Insn
module Trace = Mv_obs.Trace

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

(* Descriptors identify functions, switches and variants by address only
   (Section 5), so the runtime names each variant once — at [create], or
   for a lazy alias by the symbol the cache links it under — and every
   report reads the stored name. *)
type variant = Variant_cache.variant = {
  vn_name : string;
  vn_addr : int;
  vn_size : int;
  vn_guards : Descriptor.guard_record list;
  mutable vn_stamp : int;
}

type fn_entry = {
  fe_name : string;
  fe_record : Descriptor.function_record;
  fe_variants : variant list;
      (** the parsed descriptor records; a lazy runtime's resident
          aliases are the cache's ({!variants}) *)
  fe_sites : site list;
  mutable fe_saved : bytes option;
      (** the generic bytes at the function's entry that a bind covered:
          the prologue under a jump, or the whole body under a relocated
          variant body (body patching) *)
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

   Every decision, and every unbind of an eviction victim, hands its
   patch to the open span's stager as an [action]; a deferred one is
   journaled, and one span produces at most one [pending_set], which is
   applied transactionally — all actions or none — at a later quiescence
   point. *)

type pending_action =
  | Act_fn of fn_entry * variant option
      (** bind the function to this variant, or ([None]) return it to its
          generic body *)
  | Act_ptr of fnptr_entry * int option
      (** bind the fn-pointer switch's call sites to the target captured
          at commit time, or ([None]) restore its indirect calls *)

type pending_set = {
  pset_id : int;
  pset_cid : int;
      (** causality id of the commit/revert that journaled this set — the
          [cid] its eventual [Pending_drained] event reports *)
  pset_hart : int;  (** hart the journaling commit ran on *)
  pset_actions : pending_action list;
}

type safe_policy = Defer | Deny

(* The stager a span hands its actions to: the live-activation set its
   decisions are tested against ([[]] for the Table 1 API, whose caller
   guarantees a patchable state) and the actions it has deferred so far. *)
type stager = {
  sg_policy : safe_policy;
  sg_live : int list;
  mutable sg_deferred : pending_action list;  (* newest first *)
}

(** Counters for the safe-commit paths (surfaced through {!stats}). *)
type safe_counters = {
  mutable sc_deferred : int;  (** actions journaled instead of applied *)
  mutable sc_denied : int;  (** actions refused under the [Deny] policy *)
  mutable sc_superseded : int;  (** journaled actions dropped by a newer commit *)
  mutable sc_applied : int;  (** deferred actions applied at a safepoint *)
  mutable sc_rolled_back : int;  (** pending sets rolled back mid-apply *)
  mutable sc_polls : int;  (** safepoint invocations *)
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
  mutable fallbacks : string list;  (** entities left generic by the last entry point *)
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
  mutable stager : stager option;  (** the open span's, for eviction unbinds *)
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
  osr : Osr.t;  (** the frame maps and the transfer counters *)
  mutable osr_hart : (unit -> Osr.hart) option;
      (** accessors for the hart currently polling a safepoint; the harness
          wires them to [Mv_vm.Machine].  With [None] installed, safepoints
          never attempt on-stack replacement. *)
  cache : fn_entry Variant_cache.t;
      (** the variant cache: empty, and never consulted past its recipe
          table, until [enable_lazy] *)
}

exception Runtime_error = Variant_cache.Error

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
          fe_saved = None;
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
  let patch = Patch.create img ~flush and osr = Osr.create img in
  {
    image = img;
    patch;
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
    stager = None;
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
      };
    tracer = None;
    barrier = None;
    osr;
    osr_hart = None;
    cache = Variant_cache.create img patch osr;
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

(* Journal the actions a span deferred as one patch set. *)
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
    runtime last wrote there (initially: what the linker produced) — the
    paper's check that a site still points to an expected call target
    (Section 4).  A mismatch means some other mechanism — e.g. the
    prologue jump of an enclosing multiversed function — owns those bytes
    now; the site is skipped and reported, never corrupted. *)
let site_intact t (s : site) : bool =
  let current = Image.read_bytes t.image s.s_addr s.s_size in
  Bytes.equal current s.s_written

let write_site t (s : site) (b : bytes) (state : site_state) =
  Patch.write_text t.patch ~addr:s.s_addr b;
  s.s_written <- Image.read_bytes t.image s.s_addr s.s_size;
  s.s_state <- state

(** Point the site at [target] — [Some (addr, size)]: inline the body at
    [addr] (of [size] encoded bytes, from its descriptor) if it is small
    enough, else call it; [None]: the original bytes, written only when
    the runtime last wrote something else there.  One write over what the
    runtime last wrote there; a site whose bytes are foreign is skipped
    and reported instead. *)
let set_site t (s : site) ~who target =
  match (target, s.s_state) with
  | None, Site_original -> ()
  | _ when not (site_intact t s) ->
      t.skipped_sites <- (s.s_addr, "site bytes changed by another mechanism") :: t.skipped_sites
  | None, (Site_retargeted _ | Site_inlined _) -> write_site t s s.s_original Site_original
  | Some (target, target_size), _ -> (
      let body =
        if t.inline_enabled then
          Patch.inlineable_body t.patch ~fn_addr:target ~fn_size:target_size ~budget:s.s_size
        else None
      in
      (* a 6-byte indirect site gets a 5-byte direct call plus one nop *)
      let b = Bytes.make s.s_size (Char.chr (Insn.opcode Insn.Nop)) in
      match body with
      | Some body ->
          Bytes.blit body 0 b 0 (Bytes.length body);
          write_site t s b (Site_inlined target);
          emit t (Trace.Site_inlined { fn = who; site = s.s_addr; target })
      | None ->
          let call = Patch.encode_call ~site:s.s_addr ~target in
          Bytes.blit call 0 b 0 (Bytes.length call);
          write_site t s b (Site_retargeted target);
          emit t (Trace.Site_retargeted { fn = who; site = s.s_addr; target }))

(* ------------------------------------------------------------------ *)
(* Binding a function                                                  *)
(* ------------------------------------------------------------------ *)

(* Write [b] over the function's entry, saving the generic bytes it
   covers at the first such write; a later one (a rebind) keeps them. *)
let write_entry t (fe : fn_entry) b =
  let generic = fe.fe_record.fd_generic in
  if fe.fe_saved = None then
    fe.fe_saved <- Some (Patch.read_text t.patch ~addr:generic ~len:(Bytes.length b));
  Patch.write_text t.patch ~addr:generic b

let restore_entry t (fe : fn_entry) =
  Option.iter (Patch.write_text t.patch ~addr:fe.fe_record.fd_generic) fe.fe_saved;
  fe.fe_saved <- None

(* The completeness jump: calls the compiler could not see (function
   pointers, foreign code) enter the generic prologue and land in [v]. *)
let jump_entry t (fe : fn_entry) (v : variant) =
  let generic = fe.fe_record.fd_generic in
  write_entry t fe (Patch.encode_jmp ~site:generic ~target:v.vn_addr);
  emit t (Trace.Prologue_patched { fn = fe.fe_name; target = v.vn_addr })

(* Whether the function is bound to the body at [addr].  Aliases that
   share a body are one binding: selecting another alias of the bound
   body patches nothing and reports nothing, and evicting any alias of it
   unbinds the function. *)
let bound_at (fe : fn_entry) addr =
  match fe.fe_installed with Some v -> v.vn_addr = addr | None -> false

(** Bind the function to [Some v], or return it to its generic body with
    [None] (reporting the unbind when a variant was bound).  The entry
    names its new binding before the first write, so a rollback after a
    write fails midway undoes the whole bind.

    Under call-site patching every site and the prologue jump is written
    once, retargeted straight from the previous variant.  Body patching
    (the Section 7.1 alternative) patches no call sites: it restores the
    generic body and then overwrites it with the relocated variant body —
    one patch per function — or, when the variant does not fit, with the
    completeness jump. *)
let bind_fn t (fe : fn_entry) (target : variant option) =
  match target with
  | Some v when bound_at fe v.vn_addr -> ()
  | None ->
      Option.iter
        (fun v -> emit t (Trace.Variant_unbound { fn = fe.fe_name; variant = v.vn_name }))
        fe.fe_installed;
      fe.fe_installed <- None;
      restore_entry t fe;
      List.iter (fun s -> set_site t s ~who:fe.fe_name None) fe.fe_sites
  | Some v -> (
      emit t (Trace.Variant_selected { fn = fe.fe_name; variant = v.vn_name });
      fe.fe_installed <- target;
      match t.strategy with
      | Call_site_patching ->
          List.iter
            (fun s -> set_site t s ~who:fe.fe_name (Some (v.vn_addr, v.vn_size)))
            fe.fe_sites;
          jump_entry t fe v
      | Body_patching ->
          restore_entry t fe;
          List.iter (fun s -> set_site t s ~who:fe.fe_name None) fe.fe_sites;
          let generic = fe.fe_record.fd_generic in
          if v.vn_size <= fe.fe_record.fd_generic_size then
            write_entry t fe
              (Patch.relocate_body t.patch ~src:v.vn_addr ~len:v.vn_size ~dst:generic)
          else jump_entry t fe v)

(* ------------------------------------------------------------------ *)
(* Selection, and the variant cache behind it                          *)
(* ------------------------------------------------------------------ *)

(* Is any of the [live] code addresses inside [lo, hi)? *)
let live_in live (lo, hi) = List.exists (fun a -> a >= lo && a < hi) live

let body_range v = (v.vn_addr, v.vn_addr + max v.vn_size 1)

(* The code addresses with live activations, and whether one is in the
   body of [v].  Without a scanner the paper's model applies — the caller
   guarantees a patchable state — and none is. *)
let scanned t = match t.live_scanner with None -> [] | Some scan -> scan ()
let body_live t v = live_in (scanned t) (body_range v)

(* Variant addresses a journaled bind, or one the open span deferred,
   still needs: their bodies must survive until the set drains (or is
   superseded). *)
let pending_variant_addrs t =
  let deferred = match t.stager with Some sg -> sg.sg_deferred | None -> [] in
  List.filter_map
    (function Act_fn (_, Some v) -> Some v.vn_addr | _ -> None)
    (List.concat_map (fun pset -> pset.pset_actions) t.pending @ deferred)

(* Every selectable variant of [fe]: its descriptor records, then the
   cache's resident aliases in link order. *)
let variants t fe = fe.fe_variants @ Variant_cache.aliases t.cache fe.fe_name

(** Whether the function has variants, or a recipe to materialize one. *)
let specializable t (fe : fn_entry) =
  fe.fe_variants <> [] || Option.is_some (Variant_cache.recipe t.cache fe.fe_name)

(** Select the variant for the current switch values: the first match in
    descriptor order.  On a lazy runtime the cache completes the
    selection — the first resident alias that matches; an in-domain miss
    first materializes the variant (or dedup-links a resident body), so
    selection sees the candidates an eager image carries.  One guard scan
    per call. *)
let select_variant t (fe : fn_entry) : variant option =
  let sat v = guards_satisfied t v.vn_guards in
  Variant_cache.select t.cache fe ~name:fe.fe_name ~sat (List.find_opt sat fe.fe_variants)

(* ------------------------------------------------------------------ *)
(* Function-pointer switches                                           *)
(* ------------------------------------------------------------------ *)

(** Bind every recorded indirect call site of the fn-pointer switch to a
    direct call to [Some target] (or inline the target body), or restore
    the indirect calls with [None].  The target's size is taken from the
    symbol table. *)
let bind_ptr t (fp : fnptr_entry) (target : int option) =
  match target with
  | Some a when fp.fp_committed = Some a -> ()
  | _ ->
      fp.fp_committed <- target;
      let sized a =
        match Image.symbol_at t.image a with
        | Some name -> (a, Image.symbol_size t.image name)
        | None -> (a, 0)
      in
      let target = Option.map sized target in
      List.iter (fun s -> set_site t s ~who:fp.fp_switch.sw_name target) fp.fp_sites

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

let ranges_live ranges live = List.exists (live_in live) ranges

(* The body range of the currently installed variant.  Unbinding (or
   rebinding to a different variant) while an activation executes *inside*
   that body would leave it running code the runtime just declared stale,
   so the range counts as live-blocked — and is exactly what on-stack
   replacement transfers activations out of. *)
let installed_body_range (fe : fn_entry) : (int * int) list =
  match fe.fe_installed with Some v -> [ body_range v ] | None -> []

(* The ranges an unbind would actually rewrite, given the entry's current
   state: the saved generic bytes (prologue or body), every non-pristine
   call site — plus the installed variant's body (see above).  Unlike a
   bind, an unbind leaves the *generic* body semantically current for
   every switch value, so a generic activation parked past the prologue
   bytes does not block it; a pristine entry blocks on nothing, because
   its unbind rewrites nothing. *)
let fn_unbind_ranges (fe : fn_entry) : (int * int) list =
  let generic = fe.fe_record.fd_generic in
  let saved =
    match fe.fe_saved with Some b -> [ (generic, generic + Bytes.length b) ] | None -> []
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
  | Act_fn (fe, Some _) -> installed_body_range fe @ fn_touched_ranges fe
  | Act_fn (fe, None) -> fn_unbind_ranges fe
  | Act_ptr (fp, _) -> fnptr_touched_ranges fp

let action_name = function
  | Act_fn (fe, _) -> fe.fe_name
  | Act_ptr (fp, _) -> fp.fp_switch.sw_name

(* Lenient application, for patches staged to apply now: foreign site
   bytes are skipped and reported, never corrupted. *)
let apply_action_lenient t = function
  | Act_fn (fe, v) -> bind_fn t fe v
  | Act_ptr (fp, target) -> bind_ptr t fp target

(* Apply [action] now or — when the bytes it would rewrite hold one of
   the [live] activations — defer it into the stager ([Defer]) or refuse
   it ([Deny]).  Returns whether it was applied.  With nothing live no
   patch range is computed: a spinlock with a thousand call sites would
   otherwise build its range list on every commit. *)
let stage t sg ~live action : bool =
  let blocked = match live with [] -> false | live -> ranges_live (action_ranges action) live in
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
  | Some v -> bound_at fe v.vn_addr || stage t sg ~live:sg.sg_live (Act_fn (fe, Some v))
  | None ->
      if fe.fe_installed <> None || fe.fe_saved <> None then
        ignore (stage t sg ~live:sg.sg_live (Act_fn (fe, None)));
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
    if fp.fp_committed <> None then ignore (stage t sg ~live:sg.sg_live (Act_ptr (fp, None)));
    fallback t fp.fp_switch.sw_name;
    false
  end
  else fp.fp_committed = Some target || stage t sg ~live:sg.sg_live (Act_ptr (fp, Some target))

let revert_fn t sg fe = stage t sg ~live:sg.sg_live (Act_fn (fe, None))
let revert_fnptr t sg fp = stage t sg ~live:sg.sg_live (Act_ptr (fp, None))

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

(* A (re)decision makes the journaled actions of the entities it decides
   over stale: drop exactly those, so a safepoint cannot apply an outdated
   binding over a newer one.  A set left with no actions is dropped. *)
let supersede t fns ptrs =
  let stale = function Act_fn (fe, _) -> List.memq fe fns | Act_ptr (fp, _) -> List.memq fp ptrs in
  t.pending <-
    List.filter_map
      (fun pset ->
        let dropped, kept = List.partition stale pset.pset_actions in
        t.safe.sc_superseded <- t.safe.sc_superseded + List.length dropped;
        if kept = [] then None else Some { pset with pset_actions = kept })
      t.pending

(* One span over the functions [fns] and fn-pointer switches [ptrs] (by
   default all of them): the begin event, the live set, their journaled
   actions superseded and fresh fallbacks, one decision per entity — its
   evictions staging through the same stager — the journal of whatever
   the stager deferred, and the end event with the count. *)
let span t ?(fns = t.functions) ?(ptrs = t.fnptrs) op ~policy ~live decide : int =
  with_barrier t @@ fun () ->
  emit_span_begin t op;
  let sg = { sg_policy = policy; sg_live = live (); sg_deferred = [] } in
  supersede t fns ptrs;
  t.fallbacks <- [];
  t.stager <- Some sg;
  let n = decide sg fns ptrs in
  t.stager <- None;
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

(** Functions whose variants guard on the switch at [var_addr] — under
    lazy materialization, also functions whose {e recipe} specializes on
    it (their variants may not be resident yet). *)
let functions_referencing t var_addr =
  let recipe_refs fe =
    match Variant_cache.recipe t.cache fe.fe_name with
    | None -> false
    | Some r ->
        List.exists
          (fun (name, _) -> Image.symbol_opt t.image name = Some var_addr)
          r.Variantgen.rc_switches
  in
  List.filter
    (fun fe ->
      List.exists
        (fun v ->
          List.exists (fun (g : Descriptor.guard_record) -> g.gr_var = var_addr) v.vn_guards)
        (variants t fe)
      || recipe_refs fe)
    t.functions

(* The span with nothing live over the function [name] ([_func]), or over
   every function that references the switch [name] and the switch itself
   when it is a function pointer ([_refs]); [-1] when [name] names none. *)
let on_func t op name decide =
  match find_fn_by_name t name with
  | Some fe -> span t ~fns:[ fe ] ~ptrs:[] op ~policy:Defer ~live:nothing_live decide
  | None -> -1

let on_refs t op name decide =
  match Image.symbol_opt t.image name with
  | Some var ->
      let ptrs = List.filter (fun fp -> fp.fp_switch.sw_var.vr_addr = var) t.fnptrs in
      span t ~fns:(functions_referencing t var) ~ptrs op ~policy:Defer ~live:nothing_live decide
  | None -> -1

(** [multiverse_commit_func(&fn)], [multiverse_revert_func(&fn)],
    [multiverse_commit_refs(&var)] and [multiverse_revert_refs(&var)]. *)
let commit_func t name = on_func t "commit_func" name (commit_each t)
let revert_func t name = on_func t "revert_func" name (revert_each t)
let commit_refs t name = on_refs t "commit_refs" name (commit_each t)
let revert_refs t name = on_refs t "revert_refs" name (revert_each t)

(* ------------------------------------------------------------------ *)
(* The variant cache's entry points                                    *)
(* ------------------------------------------------------------------ *)

(** Enable demand-driven materialization: [recipes] are the compiler's
    per-function specialization recipes ([Compiler.recipes]), [call_pad]
    the program-wide call-site padding rule ([Compiler.call_pad]), and
    [budget] the resident variant-text byte budget (default: the whole
    variant-text region).  Evictions run inside a span: an installed
    victim's unbind goes to that span's stager, tested against the
    scanner's live set over every range it rewrites, so it applies now
    or is deferred into the span's set (drained, with OSR's help, at a
    later safepoint) or denied; the victim's bytes wait until its body
    is no longer in use. *)
let enable_lazy ?budget t ~recipes ~call_pad =
  let region = t.image.Image.vtext.Image.sr_size in
  if region = 0 then
    errf "lazy materialization needs a variant-text region (link with vtext_size > 0)";
  let budget = Option.value budget ~default:region in
  if budget <= 0 then errf "variant budget must be positive";
  Variant_cache.enable t.cache ~recipes ~call_pad ~budget
    {
      Variant_cache.emit = emit t;
      read = read_switch t;
      release =
        (fun fe v ->
          match t.stager with
          | None -> errf "eviction of %s outside a span" v.vn_name
          | Some sg when bound_at fe v.vn_addr ->
              not (stage t sg ~live:(scanned t) (Act_fn (fe, None)))
          | Some _ -> body_live t v);
      in_use = (fun fe v -> bound_at fe v.vn_addr || body_live t v);
      journaled = (fun () -> pending_variant_addrs t);
    }

(* The one check of the setters that need a lazy runtime. *)
let lazy_cache t =
  if not (Variant_cache.enabled t.cache) then
    errf "lazy materialization is not enabled (Runtime.enable_lazy)";
  t.cache

(** Shrink (or grow) the resident byte budget: a span over no entity,
    whose evictions stage like any other.  Shrinking evicts down to the
    new budget where possible; a victim whose unbind is deferred frees
    its bytes at a later safepoint, so residency may exceed a
    just-shrunk budget until then — new materializations are denied in
    the meantime. *)
let set_variant_budget t b =
  let c = lazy_cache t in
  if b <= 0 then errf "variant budget must be positive";
  let evict _ _ _ = Variant_cache.set_budget c b; 0 in
  ignore (span t ~fns:[] ~ptrs:[] "set_variant_budget" ~policy:Defer ~live:nothing_live evict)

let set_evict_advisor t adv = Variant_cache.set_advisor (lazy_cache t) adv
let set_stale_cache_chaos t flag = Variant_cache.set_stale_cache (lazy_cache t) flag

(* ------------------------------------------------------------------ *)
(* On-stack replacement                                                *)
(* ------------------------------------------------------------------ *)

(** Install (or remove) the OSR hart accessors.  Once installed, a
    safepoint that finds a pending set blocked by a live activation of the
    polling hart transfers that activation into the target body instead of
    leaving the set journaled. *)
let set_osr t hart_of = t.osr_hart <- hart_of

(* Move the polling hart's activation of [fe] into the body at [into]
   (see [Osr.transfer]).  Function-pointer actions have no frame maps —
   their sites are in foreign callers. *)
let osr_for_action t hart ~cid action =
  let move fe into =
    Osr.transfer t.osr hart ~emit:(emit t) ~cid ~fn:fe.fe_name
      ~generic:(fe.fe_record.fd_generic, fe.fe_record.fd_generic_size)
      ~installed:(Option.map (fun v -> (v.vn_addr, v.vn_size)) fe.fe_installed)
      ~into
  in
  match action with
  | Act_fn (fe, Some v) -> move fe v.vn_addr
  | Act_fn (fe, None) -> move fe fe.fe_record.fd_generic
  | Act_ptr _ -> ()

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
  | Act_fn (fe, _) -> check_sites_strict t fe.fe_name fe.fe_sites
  | Act_ptr (fp, _) -> check_sites_strict t fp.fp_switch.sw_name fp.fp_sites);
  apply_action_lenient t action

(* The action that returns an entity to its current binding. *)
let inverse = function
  | Act_fn (fe, _) -> Act_fn (fe, fe.fe_installed)
  | Act_ptr (fp, _) -> Act_ptr (fp, fp.fp_committed)

(** Apply one journaled set transactionally: every action, in order, or —
    if any application fails — apply the inverses of the already-started
    prefix (in reverse order, leniently) so the image is exactly as
    before the attempt.  Returns [true] on full application. *)
let apply_set t (pset : pending_set) : bool =
  let applied = ref [] in
  match
    List.iter
      (fun act ->
        applied := inverse act :: !applied;
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
      List.iter (apply_action_lenient t) !applied;
      t.safe.sc_rolled_back <- t.safe.sc_rolled_back + 1;
      emit t (Trace.Pending_rollback { cid = pset.pset_cid; pset = pset.pset_id });
      false

(** The quiescence-point drain, wired to the machine's safepoint hook.
    Cheap when nothing is pending (one list check).  Otherwise each pending
    set whose touched ranges are all quiescent is applied transactionally
    and removed — applied exactly once, or rolled back and dropped if an
    application fails mid-set.  Sets whose targets are still live stay
    journaled for a later safepoint.  The variant cache's deferred
    eviction victims are swept here too: a victim's alias (and, for the
    last alias, its body bytes) goes once the body is neither installed —
    its journaled unbind drained, or a newer commit re-bound the function
    elsewhere — nor home to a live activation (OSR may have just moved
    one out). *)
let safepoint t =
  t.safe.sc_polls <- t.safe.sc_polls + 1;
  if (t.pending <> [] || Variant_cache.sweeping t.cache) && not t.in_safepoint then begin
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
        let osr_hart =
          match t.osr_hart with
          | Some hart_of when t.strategy = Call_site_patching -> Some (hart_of ())
          | _ -> None
        in
        with_barrier t @@ fun () ->
        (* Before testing quiescence, try to *create* it: move the polling
           hart's activation out of any body a pending action still needs
           (on-stack replacement).  Only under call-site patching — body
           patching relocates variant code over the generic body, which the
           frame maps do not describe. *)
        (match osr_hart with
        | Some hart ->
            List.iter
              (fun pset ->
                List.iter (osr_for_action t hart ~cid:pset.pset_cid) pset.pset_actions)
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
        Variant_cache.sweep t.cache)
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
  List.exists (fun fe -> List.exists (fun v -> v.vn_name = name) (variants t fe)) t.functions

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
           (variants t fe))
    t.functions

(** Whether demand-driven materialization is enabled. *)
let lazy_enabled t = Variant_cache.enabled t.cache

(** Materialized variants currently resident: (symbol, body address,
    body size), symbol-sorted.  Dedup aliases appear individually (same
    address, distinct symbols); empty when lazy materialization is off. *)
let materialized_variants t = Variant_cache.resident t.cache

(** Variant symbols the cache must keep resident for the journal's sake:
    each journaled (not yet drained) bind still needs its variant's body
    bytes, so [Heat.evict_plan] advisors must exclude these.  Sorted;
    empty when lazy materialization is off. *)
let pending_variants t : string list =
  let addrs = pending_variant_addrs t in
  List.filter_map
    (fun (sym, addr, _) -> if List.mem addr addrs then Some sym else None)
    (materialized_variants t)

let variant_bytes t = (Variant_cache.counters t.cache).bytes
let specializations t = (Variant_cache.counters t.cache).specialized

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
  let c = Variant_cache.counters t.cache in
  {
    st_functions = List.length t.functions;
    st_variants =
      List.fold_left (fun acc fe -> acc + List.length (variants t fe)) 0 t.functions;
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
    st_osr_transfers = Osr.transfers t.osr;
    st_osr_aborts = Osr.aborts t.osr;
    st_materialized = c.materialized;
    st_dedup_hits = c.dedup_hits;
    st_cache_hits = c.cache_hits;
    st_evictions = c.evictions;
    st_budget_denials = c.budget_denials;
    st_variant_bytes = c.bytes;
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
