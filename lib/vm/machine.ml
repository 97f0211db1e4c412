(* The machine simulator: fetch / decode / execute over a linked image, with
   a cycle cost model, branch prediction, and a superblock decode cache that
   models the instruction cache.

   Execution is driven from pre-decoded superblocks: straight-line runs of
   instructions are decoded once into arrays of OCaml closures
   (superinstructions) and dispatched through a cursor, so the hot path pays
   one closure call per instruction instead of a fetch/decode/dispatch
   cascade.  The decode cache is the reason the multiverse runtime must
   flush after patching (Section 4: "flush the instruction cache for the
   respective locations"): until [flush_icache] covers a patched range, the
   machine keeps executing the stale pre-decoded closures.

   [compile] is the one place an instruction's semantics is written.  The
   reference stepper [step_ref] fetches and dispatches one instruction at a
   time over the same compiled instructions, from its own per-instruction
   cache; the test suite and the [interp-superblock] bench row drive both
   and require bit-identical simulated cycles, perf counters, and trace
   events, which pins block building, the dispatch cursor, and
   block-granular invalidation against the per-instruction model. *)

module Insn = Mv_isa.Insn
module Image = Mv_link.Image

exception Fault of string

let faultf fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

(** Native hardware or a Xen paravirtualized guest.  In a PV guest the
    privileged [cli]/[sti] instructions must not be executed directly — the
    kernel has to go through hypercalls (Section 6.1). *)
type platform = Native | Xen

(** Host-side decode-cache statistics.  None of these counters move the
    simulated clock; the superblock tests assert on them to prove that
    re-decode happens only after an invalidation. *)
type decode_stats = {
  mutable ds_blocks : int;  (** superblocks compiled since creation *)
  mutable ds_insns : int;  (** instructions decoded into superblocks *)
  mutable ds_invalidated : int;  (** superblocks dropped by icache flushes *)
}

type t = {
  image : Image.t;
  hart_id : int;
      (** which hart this context is, for event attribution; a plain
          single-hart machine is hart 0 *)
  stack_base : int;
      (** top of this hart's stack region — the image's [stack_base] for
          hart 0, lower disjoint slices for the others *)
  regs : int array;
  mutable pc : int;
  perf : Perf.t;
  bp : Branch_pred.t;
  cost : Cost.t;
  platform : platform;
  code_span : int;
      (** executable bytes from the text base: the static text plus —
          when the image reserves one — the variant-text region the lazy
          materializer writes into.  A fetch at or past it faults. *)
  mutable pages : page array;
      (** the decode index, a directory of pages: [pages.(off lsr
          page_bits)] holds the decode state of text offset [off].  It
          is empty until the first write, then spans the code span; a
          slot never written holds the shared, always-empty [no_page] *)
  mutable sb_cur : superblock;
      (** dispatch cursor: the superblock expected to contain [pc], or the
          never-live [no_block] when there is none.  A sentinel rather
          than an option, so entering a block allocates no [Some] box *)
  mutable sb_ix : int;  (** index into [sb_cur] expected to execute next *)
  mutable sb_max_span : int;
      (** the longest byte range of any superblock this machine has
          built: no block overlapping a flushed window starts further
          than this before it *)
  dstats : decode_stats;
  mutable irq_enabled : bool;
  mutable steps_left : int;
  max_steps : int;
  mutable safepoint : (unit -> unit) option;
      (** invoked at every quiescence point (after each [ret] and on halt);
          the safe-commit runtime drains deferred patch sets here *)
  mutable tracer : (Mv_obs.Trace.event -> unit) option;
      (** optional event sink for machine-side events (icache flushes) *)
  mutable sampler : (int -> unit) option;
      (** optional per-instruction pc observer — the sampling profiler's
          feed.  A host-side observer: it charges no simulated cycles, so
          cycle counts are identical with and without it *)
  mutable frames : int array;
      (** entry addresses of live activations, outermost first, as a stack
          of [depth] entries — pushed on [call], popped on [ret].  An array
          (doubled when full) so a call allocates nothing.  Host-side
          bookkeeping like the perf counters: it charges no simulated
          cycles, and the stack profiler reads it through {!call_frames}
          to symbolize whole call stacks *)
  mutable depth : int;  (** live entries of [frames] *)
  mutable brk : (int -> bool) option;
      (** breakpoint handler: called with the pc of a fetched [Brk].
          Returning [true] means "spin here" (the pc does not advance and a
          pause is charged — the text_poke wait loop); returning [false],
          or having no handler, faults.  The SMP layer installs this. *)
  mutable on_trap : (string -> unit) option;
      (** invoked with the fault message when a {!Fault} escapes the
          execution entry points ({!step}, {!step_ref}, {!finish}) — the
          flight recorder's dump trigger.  Host-side and exactly-once per
          escaping fault; exceptions it raises itself are swallowed so a
          failing dump never masks the original fault. *)
  mutable heat : bool;
      (** block-entry hit counting ({!enable_heat}); [false] means the
          dispatch slow path skips heat accounting entirely *)
}

(* A pre-decoded straight-line run of instructions, each a closure built
   by [compile].  Blocks end at control transfers
   ([call]/[jmp]/branches/[ret]/[halt]/[brk]) and are dropped — never
   patched in place — when an icache flush overlaps their byte range. *)
and superblock = {
  sb_start : int;  (** text offset of the first instruction *)
  sb_end : int;  (** text offset one past the last decoded byte *)
  sb_pcs : int array;  (** absolute pc of each instruction *)
  sb_ops : (t -> unit) array;  (** compiled instructions, in order *)
  mutable sb_live : bool;  (** cleared when an icache flush drops the block *)
}

(* One page of the decode index: the decode state of [page_size]
   consecutive text offsets, allocated on the first write to any of them,
   so a machine's decode state grows with the code that runs rather than
   with the code span. *)
and page = {
  pg_blocks : superblock array;
      (** the live superblock entered at each offset, or [no_block] — the
          dispatch slow path's lookup *)
  pg_insns : (t -> unit) array;
      (** the compiled instruction at each offset, or [no_insn] — the
          reference stepper's ({!step_ref}) icache model.  The superblock
          path keeps it coherent but does not read it. *)
  mutable pg_heat : int array;
      (** code-heat counters, three per offset: entries via the dispatch
          slow path, instructions dispatched from there, and the end
          offset of the block entered there.  [[||]] until a block entered
          in this page is counted.  They live here, outside the blocks, so
          a flush that drops a block keeps the hits already charged to its
          entry, and a rebuilt block resumes counting in the same slot. *)
}

let return_sentinel = 0

(* The "no block" sentinel of the dispatch cursor and the decode index.
   Never live, so the cursor check refuses it; shared by all machines and
   never run. *)
let no_block =
  { sb_start = -1; sb_end = -1; sb_pcs = [||]; sb_ops = [||]; sb_live = false }

(* The "not cached" sentinel of the reference stepper's icache, so a hit
   unwraps no option; shared by all machines and never run. *)
let no_insn : t -> unit = fun _ -> ()

(* Text offsets per decode-index page: a small program touches a few
   pages, and the directory of a multi-MiB code span is a few thousand
   words at most. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let new_page () =
  {
    pg_blocks = Array.make page_size no_block;
    pg_insns = Array.make page_size no_insn;
    pg_heat = [||];
  }

(* What every directory slot that was never written holds: reads find
   [no_block] and [no_insn] in it without first testing that the page
   exists.  Shared by all machines and never written — [page_for_write]
   replaces it first. *)
let no_page = new_page ()

let create ?(cost = Cost.default) ?(platform = Native) ?(max_steps = 2_000_000_000)
    ?(hart_id = 0) ?stack_base (image : Image.t) : t =
  (* decode state covers every executable byte: the static text plus —
     when the image reserves one — the variant-text region the lazy
     materializer writes into, so freshly materialized bodies fetch and
     superblock-compile like any AOT code.  Nothing is allocated for it
     here: the index pages in on first write. *)
  let code_span =
    let text = image.Image.text in
    let text_end = text.Image.sr_base + text.Image.sr_size in
    let vt = image.Image.vtext in
    let code_end =
      if vt.Image.sr_size > 0 then max text_end (vt.Image.sr_base + vt.Image.sr_size)
      else text_end
    in
    code_end - text.Image.sr_base
  in
  {
    image;
    hart_id;
    stack_base =
      (match stack_base with None -> image.Image.stack_base | Some sb -> sb);
    regs = Array.make Insn.num_regs 0;
    pc = return_sentinel;
    perf = Perf.create ();
    bp = Branch_pred.create ();
    cost;
    platform;
    code_span = max 1 code_span;
    pages = [||];
    sb_cur = no_block;
    sb_ix = 0;
    sb_max_span = 0;
    dstats = { ds_blocks = 0; ds_insns = 0; ds_invalidated = 0 };
    irq_enabled = true;
    steps_left = max_steps;
    max_steps;
    safepoint = None;
    tracer = None;
    sampler = None;
    frames = Array.make 16 0;
    depth = 0;
    brk = None;
    on_trap = None;
    heat = false;
  }

(** Install (or remove) the safepoint hook.  While a hook is installed,
    every [ret] and halt charges [Cost.safepoint_poll] cycles and invokes
    it — the polling overhead the safe-commit bench measures.  With no
    hook the machine behaves exactly as before (zero cost). *)
let set_safepoint t hook = t.safepoint <- hook

(** Install (or remove) the machine-side event sink (icache flushes). *)
let set_tracer t sink = t.tracer <- sink

(** Install (or remove) the per-instruction pc observer (the sampling
    profiler's feed; see [Mv_obs.Stackprof]).  Purely host-side: simulated
    cycle counts do not change. *)
let set_sampler t hook = t.sampler <- hook

(** Install (or remove) the breakpoint handler (see the [brk] field). *)
let set_brk_handler t h = t.brk <- h

(** Install (or remove) the trap hook (see the [on_trap] field). *)
let set_trap_hook t h = t.on_trap <- h

(* Report an escaping fault to the trap hook (once), then re-raise.  The
   hook is host-side; anything it raises is swallowed so a broken dump
   path cannot mask the machine fault being reported. *)
let report_trap t e =
  (match (t.on_trap, e) with
  | Some hook, Fault msg -> ( try hook msg with _ -> ())
  | _ -> ());
  raise e

(** Which hart this machine is (0 for plain single-hart machines). *)
let hart_id t = t.hart_id

(** Host-side decode-cache statistics (superblock builds, instructions
    decoded, invalidations).  Reading them never moves the simulated
    clock. *)
let decode_stats t = t.dstats

let emit t ev = match t.tracer with None -> () | Some sink -> sink ev

let text_base t = t.image.Image.text.Image.sr_base

(* The page holding text offset [off], or [no_page] if none was written. *)
let page_at t off =
  let i = off lsr page_bits in
  if i < Array.length t.pages then Array.unsafe_get t.pages i else no_page

(* The page holding text offset [off] (which must lie in the code span),
   allocated on first write.  The directory itself is allocated whole on
   the machine's first write: one word per page of the code span. *)
let page_for_write t off =
  if Array.length t.pages = 0 then
    t.pages <- Array.make (((t.code_span - 1) lsr page_bits) + 1) no_page;
  let i = off lsr page_bits in
  let pg = t.pages.(i) in
  if pg != no_page then pg
  else begin
    let pg = new_page () in
    t.pages.(i) <- pg;
    pg
  end

(* [iter_pages t ~lo ~hi f] calls [f pg base first last] on every
   allocated page overlapping the text-offset window [lo, hi), in address
   order: [base] is the offset of the page's slot 0 and [first, last) the
   window's slots in it.  A page never written holds no decode state, so
   it costs one directory read and no slot reads. *)
let iter_pages t ~lo ~hi f =
  let hi = min hi (Array.length t.pages lsl page_bits) in
  if hi > lo then
    for i = lo lsr page_bits to (hi - 1) lsr page_bits do
      let pg = t.pages.(i) in
      if pg != no_page then begin
        let base = i lsl page_bits in
        f pg base (max lo base - base) (min hi (base + page_size) - base)
      end
    done

let max_block_insns = 64

(* Drop every superblock whose byte range overlaps the text-offset window
   [lo, hi) (which must not start below 0).  Such a block is entered below
   [hi] and less than [sb_max_span] bytes before [lo] — the longest block
   this machine has built, not the longest one could be — so the walk
   reads only that stretch of the index: a flush costs its window plus the
   longest block, however many blocks were ever decoded.  A dropped block
   is marked dead so the dispatch cursor (which may still point at it
   mid-run) refuses it on the next step.  Over-approximation is safe:
   dropping a block only forces a re-decode, which costs nothing on the
   simulated clock. *)
let invalidate_blocks t ~lo ~hi =
  if hi > lo then
    iter_pages t ~lo:(max 0 (lo - t.sb_max_span)) ~hi (fun pg _ first last ->
        for s = first to last - 1 do
          let b = Array.unsafe_get pg.pg_blocks s in
          if b != no_block && b.sb_end > lo then begin
            b.sb_live <- false;
            t.dstats.ds_invalidated <- t.dstats.ds_invalidated + 1;
            Array.unsafe_set pg.pg_blocks s no_block
          end
        done);
  if not t.sb_cur.sb_live then t.sb_cur <- no_block

(** Drop decoded state overlapping [addr, addr+len): per-instruction cache
    entries and every superblock touching the range.  Mirrors an
    instruction-cache flush; the multiverse runtime calls this after every
    patch. *)
let flush_icache t ~addr ~len =
  t.perf.Perf.icache_flushes <- t.perf.Perf.icache_flushes + 1;
  emit t (Mv_obs.Trace.Icache_flush { hart = t.hart_id; addr; len });
  let base = text_base t in
  let lo = max 0 (addr - base - 15) and hi = min t.code_span (addr - base + len) in
  iter_pages t ~lo ~hi (fun pg _ first last ->
      Array.fill pg.pg_insns first (last - first) no_insn);
  invalidate_blocks t ~lo ~hi

(** Arm the code-heat counters.  Idempotent: counts already accumulated
    survive a second call.  Purely host-side — the dispatch slow path
    gains three counter writes and the simulated clock does not move, so
    cycle counts are identical with and without it.  Allocates nothing:
    a page's counters appear with its first counted block. *)
let enable_heat t = t.heat <- true

(* Charge one entry into block [b], entered at text offset [off]. *)
let count_heat t off b =
  let pg = page_for_write t off in
  if Array.length pg.pg_heat = 0 then pg.pg_heat <- Array.make (3 * page_size) 0;
  let h = pg.pg_heat and i = 3 * (off land page_mask) in
  h.(i) <- h.(i) + 1;
  h.(i + 1) <- h.(i + 1) + Array.length b.sb_ops;
  h.(i + 2) <- b.sb_end

(** Snapshot the heat counters as [(lo, hi, hits, insns)] per superblock
    entry with at least one hit — absolute byte range, cumulative entry
    count, cumulative instructions dispatched.  Non-destructive (counts
    keep accumulating) and ordered by address; [[]] when heat was never
    enabled.  [hi] reflects the most recent shape of the block at [lo]
    (a re-decode after patching may change its extent).  Walks only the
    pages that hold counters. *)
let heat_blocks t : (int * int * int * int) list =
  let text = text_base t in
  let acc = ref [] in
  iter_pages t ~lo:0 ~hi:t.code_span (fun pg base first last ->
      let h = pg.pg_heat in
      if Array.length h > 0 then
        for s = first to last - 1 do
          let n = h.(3 * s) in
          if n > 0 then
            acc := (text + base + s, text + h.((3 * s) + 2), n, h.((3 * s) + 1)) :: !acc
        done);
  List.rev !acc

(* Charge [c] simulated cycles.  It stays here, next to the compiled
   instructions, where the compiler inlines it: the update writes the
   unboxed clock in place.  Cross-module calls are never inlined when
   modules are compiled [-opaque] (dune's dev profile), and an out-of-line
   call would box [c] whenever it is read from the flat float [Cost.t]. *)
let add_cycles t c =
  let k = t.perf.Perf.clock in
  k.Perf.cycles <- k.Perf.cycles +. c

(* The call-frame stack.  It only grows, by doubling, so pushes allocate
   only until the deepest call chain has been seen once. *)
let grow_frames t =
  let a = Array.make (2 * Array.length t.frames) 0 in
  Array.blit t.frames 0 a 0 t.depth;
  t.frames <- a

let push_frame t addr =
  if t.depth = Array.length t.frames then grow_frames t;
  Array.unsafe_set t.frames t.depth addr;
  t.depth <- t.depth + 1

let pop_frame t = if t.depth > 0 then t.depth <- t.depth - 1

let push_word t v =
  t.regs.(Insn.sp) <- t.regs.(Insn.sp) - 8;
  Image.write t.image t.regs.(Insn.sp) v 8

let pop_word t =
  let v = Image.read t.image t.regs.(Insn.sp) 8 in
  t.regs.(Insn.sp) <- t.regs.(Insn.sp) + 8;
  v

let alu_eval op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Insn.Mod -> if b = 0 then raise (Fault "modulo by zero") else a mod b
  | Insn.Band -> a land b
  | Insn.Bor -> a lor b
  | Insn.Bxor -> a lxor b
  | Insn.Shl -> a lsl (b land 63)
  | Insn.Shr -> a asr (b land 63)
  | Insn.Eq -> Bool.to_int (a = b)
  | Insn.Ne -> Bool.to_int (a <> b)
  | Insn.Lt -> Bool.to_int (a < b)
  | Insn.Le -> Bool.to_int (a <= b)
  | Insn.Gt -> Bool.to_int (a > b)
  | Insn.Ge -> Bool.to_int (a >= b)

let alu_cost (c : Cost.t) = function
  | Insn.Mul -> c.Cost.mul
  | Insn.Div | Insn.Mod -> c.Cost.div
  | _ -> c.Cost.alu

(* A quiescence point: an activation just ended ([ret]/halt), so code ranges
   that were live may have gone quiet.  The poll itself models a cached-flag
   test and is charged only when a hook is installed. *)
let poll_safepoint t =
  match t.safepoint with
  | None -> ()
  | Some hook ->
      add_cycles t t.cost.Cost.safepoint_poll;
      hook ()

(* ------------------------------------------------------------------ *)
(* Superblock compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Superblocks are straight-line: any instruction that transfers control —
   or that may refuse to advance the pc ([Brk]) — ends its block. *)
let ends_block = function
  | Insn.Call _ | Insn.Call_ind _ | Insn.Jmp _ | Insn.Jnz _ | Insn.Jz _
  | Insn.Ret | Insn.Halt | Insn.Brk ->
      true
  | _ -> false

(* Compile one instruction at [pc] into a closure: the only definition of
   what an instruction does, run by both steppers.  A closure first moves
   the pc past the instruction (or straight to its target), so a fault
   leaves [pc = next] behind.  The cycle-cost record is immutable per
   machine, so its floats are captured at compile time. *)
let compile (c : Cost.t) pc (insn : Insn.t) size : t -> unit =
  let next = pc + size in
  match insn with
  | Insn.Mov_ri (rd, imm) | Insn.Mov_ri32 (rd, imm) ->
      let cyc = c.Cost.mov_imm in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- imm;
        add_cycles t cyc
  | Insn.Mov_rr (rd, rs) ->
      let cyc = c.Cost.mov in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- t.regs.(rs);
        add_cycles t cyc
  | Insn.Alu (op, rd, ra, rb) ->
      let cyc = alu_cost c op in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- alu_eval op t.regs.(ra) t.regs.(rb);
        add_cycles t cyc
  | Insn.Alu_ri (op, rd, ra, imm) ->
      let cyc = alu_cost c op in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- alu_eval op t.regs.(ra) imm;
        add_cycles t cyc
  | Insn.Un (op, rd, ra) ->
      let cyc = c.Cost.alu in
      fun t ->
        t.pc <- next;
        let a = t.regs.(ra) in
        t.regs.(rd) <-
          (match op with
          | Insn.Neg -> -a
          | Insn.Lnot -> Bool.to_int (a = 0)
          | Insn.Bnot -> lnot a);
        add_cycles t cyc
  | Insn.Load (rd, ra, off, w) ->
      let cyc = c.Cost.load in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- Image.read t.image (t.regs.(ra) + off) w;
        t.perf.Perf.loads <- t.perf.Perf.loads + 1;
        add_cycles t cyc
  | Insn.Store (ra, off, rs, w) ->
      let cyc = c.Cost.store in
      fun t ->
        t.pc <- next;
        Image.write t.image (t.regs.(ra) + off) t.regs.(rs) w;
        t.perf.Perf.stores <- t.perf.Perf.stores + 1;
        add_cycles t cyc
  | Insn.Loadg (rd, addr, w) ->
      let cyc = c.Cost.load_global in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- Image.read t.image addr w;
        t.perf.Perf.loads <- t.perf.Perf.loads + 1;
        add_cycles t cyc
  | Insn.Storeg (addr, rs, w) ->
      let cyc = c.Cost.store in
      fun t ->
        t.pc <- next;
        Image.write t.image addr t.regs.(rs) w;
        t.perf.Perf.stores <- t.perf.Perf.stores + 1;
        add_cycles t cyc
  | Insn.Lea (rd, addr) ->
      let cyc = c.Cost.lea in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- addr;
        add_cycles t cyc
  | Insn.Call rel ->
      let target = next + rel and cyc = c.Cost.call in
      fun t ->
        t.pc <- next;
        push_word t next;
        t.pc <- target;
        push_frame t target;
        t.perf.Perf.calls <- t.perf.Perf.calls + 1;
        add_cycles t cyc
  | Insn.Call_ind addr ->
      let cyc = c.Cost.call +. c.Cost.call_ind
      and miss = c.Cost.btb_miss_penalty in
      fun t ->
        t.pc <- next;
        let target = Image.read t.image addr 8 in
        push_word t next;
        t.pc <- target;
        push_frame t target;
        t.perf.Perf.calls <- t.perf.Perf.calls + 1;
        t.perf.Perf.indirect_calls <- t.perf.Perf.indirect_calls + 1;
        add_cycles t cyc;
        if not (Branch_pred.indirect t.bp ~pc ~target) then begin
          t.perf.Perf.btb_misses <- t.perf.Perf.btb_misses + 1;
          add_cycles t miss
        end
  | Insn.Jmp rel ->
      let target = next + rel and cyc = c.Cost.jmp in
      fun t ->
        t.pc <- target;
        add_cycles t cyc
  | Insn.Jnz (r, rel) | Insn.Jz (r, rel) ->
      let target = next + rel
      and cyc = c.Cost.branch
      and miss = c.Cost.mispredict_penalty
      and test_nz = match insn with Insn.Jnz _ -> true | _ -> false in
      fun t ->
        let taken = if test_nz then t.regs.(r) <> 0 else t.regs.(r) = 0 in
        t.pc <- (if taken then target else next);
        t.perf.Perf.branches <- t.perf.Perf.branches + 1;
        add_cycles t cyc;
        if not (Branch_pred.conditional t.bp ~pc ~taken) then begin
          t.perf.Perf.branch_mispredicts <- t.perf.Perf.branch_mispredicts + 1;
          add_cycles t miss
        end
  | Insn.Ret ->
      let cyc = c.Cost.ret in
      fun t ->
        t.pc <- next;
        let target = pop_word t in
        t.pc <- target;
        pop_frame t;
        add_cycles t cyc;
        poll_safepoint t
  | Insn.Push r ->
      let cyc = c.Cost.push in
      fun t ->
        t.pc <- next;
        push_word t t.regs.(r);
        add_cycles t cyc
  | Insn.Pop r ->
      let cyc = c.Cost.pop in
      fun t ->
        t.pc <- next;
        t.regs.(r) <- pop_word t;
        add_cycles t cyc
  | Insn.Cli ->
      let cyc = c.Cost.cli in
      fun t ->
        t.pc <- next;
        if t.platform = Xen then faultf "privileged cli in PV guest at 0x%x" pc;
        t.irq_enabled <- false;
        add_cycles t cyc
  | Insn.Sti ->
      let cyc = c.Cost.sti in
      fun t ->
        t.pc <- next;
        if t.platform = Xen then faultf "privileged sti in PV guest at 0x%x" pc;
        t.irq_enabled <- true;
        add_cycles t cyc
  | Insn.Pause ->
      let cyc = c.Cost.pause in
      fun t ->
        t.pc <- next;
        add_cycles t cyc
  | Insn.Fence ->
      let cyc = c.Cost.fence in
      fun t ->
        t.pc <- next;
        add_cycles t cyc
  | Insn.Xchg (rd, ra, rs) ->
      let cyc = c.Cost.atomic in
      fun t ->
        t.pc <- next;
        let addr = t.regs.(ra) in
        let old = Image.read t.image addr 8 in
        Image.write t.image addr t.regs.(rs) 8;
        t.regs.(rd) <- old;
        t.perf.Perf.atomics <- t.perf.Perf.atomics + 1;
        add_cycles t cyc
  | Insn.Hypercall _n ->
      let cyc = c.Cost.hypercall in
      fun t ->
        t.pc <- next;
        if t.platform = Native then faultf "hypercall on native hardware at 0x%x" pc;
        t.perf.Perf.hypercalls <- t.perf.Perf.hypercalls + 1;
        add_cycles t cyc
  | Insn.Rdtsc rd ->
      let cyc = c.Cost.rdtsc in
      fun t ->
        t.pc <- next;
        t.regs.(rd) <- int_of_float t.perf.Perf.clock.Perf.cycles;
        add_cycles t cyc
  | Insn.Halt ->
      fun t ->
        t.pc <- return_sentinel;
        t.depth <- 0;
        poll_safepoint t
  | Insn.Nop ->
      let cyc = c.Cost.nop in
      fun t ->
        t.pc <- next;
        add_cycles t cyc
  | Insn.Brk ->
      let cyc = c.Cost.pause in
      fun t ->
        t.pc <- next;
        (match t.brk with
        | Some handler when handler pc ->
            (* an in-progress text_poke owns this address: spin in place,
               modelling the wait loop a real hart performs on the trap *)
            t.pc <- pc;
            add_cycles t cyc
        | _ -> faultf "breakpoint at 0x%x" pc)

(* Decode the instruction about to execute, with every fault a fetch can
   raise: outside the code span, protection, or a wrapped decode error.
   Both steppers fetch through it on a cache miss, and a miss is the only
   way an offset outside the code span is ever looked up: no cache slot
   for one is ever filled. *)
let decode_strict t pc : Insn.t * int =
  let off = pc - text_base t in
  if off < 0 || off >= t.code_span then
    faultf "instruction fetch outside text at 0x%x" pc;
  Image.check_exec t.image pc 1;
  try Mv_isa.Decode.decode t.image.Image.mem ~off:pc
  with Mv_isa.Decode.Decode_error (m, o) -> faultf "decode at 0x%x: %s" o m

(* Build (and register) the superblock entered at [pc0].  The first
   instruction decodes strictly — its faults belong to this step.  The
   block then extends speculatively down the straight line; a speculative
   decode failure (unmapped bytes, protection, torn encoding) silently
   ends the block, because the reference interpreter would only fault when
   execution actually reaches that instruction. *)
let build_block t pc0 : superblock =
  let c = t.cost in
  let insn0, size0 = decode_strict t pc0 in
  let text_end = text_base t + t.code_span in
  let pcs = ref [] and ops = ref [] in
  let rec extend pc insn size n =
    pcs := pc :: !pcs;
    ops := compile c pc insn size :: !ops;
    let next = pc + size in
    if ends_block insn || n + 1 >= max_block_insns || next >= text_end then next
    else
      match decode_strict t next with
      | insn', size' -> extend next insn' size' (n + 1)
      | exception Fault _ -> next
      | exception _ -> next
  in
  let end_pc = extend pc0 insn0 size0 0 in
  let base = text_base t in
  let b =
    {
      sb_start = pc0 - base;
      sb_end = end_pc - base;
      sb_pcs = Array.of_list (List.rev !pcs);
      sb_ops = Array.of_list (List.rev !ops);
      sb_live = true;
    }
  in
  (page_for_write t b.sb_start).pg_blocks.(b.sb_start land page_mask) <- b;
  t.sb_max_span <- max t.sb_max_span (b.sb_end - b.sb_start);
  t.dstats.ds_blocks <- t.dstats.ds_blocks + 1;
  t.dstats.ds_insns <- t.dstats.ds_insns + Array.length b.sb_ops;
  b

(* Find the block holding the compiled instruction for [pc] when the
   dispatch cursor missed: the decode index, else a fresh build.  Jumps
   into the middle of an existing block build a new (overlapping) block —
   blocks are keyed by entry offset only. *)
let locate_slow t pc : superblock =
  let off = pc - text_base t in
  let b = Array.unsafe_get (page_at t off).pg_blocks (off land page_mask) in
  let b = if b != no_block then b else build_block t pc in
  (* Code-heat hook: every fresh block entry passes through here exactly
     once (cursor hits are mid-block continuations), so counting at this
     point charges one hit per superblock execution.  Host-side only —
     the simulated clock does not move. *)
  if t.heat then count_heat t off b;
  b

(** Execute exactly one instruction at [t.pc] through the superblock
    cache.  Returns [false] when the machine returned to the sentinel
    address (top-level return).

    The fast path — the cursor still points at a live block position whose
    recorded pc matches — is field loads, two compares and one closure
    call.  Only a cursor miss (block transition, invalidation, or a jump
    the cursor did not predict) touches the decode index.  Neither path
    allocates once the blocks are built: the cursor is a plain field, the
    cycle charge writes the unboxed clock, and [call] pushes onto the
    frame array. *)
let step_core t : bool =
  if t.steps_left <= 0 then faultf "step limit exceeded (pc=0x%x)" t.pc;
  t.steps_left <- t.steps_left - 1;
  let pc = t.pc in
  let b = t.sb_cur in
  if
    b.sb_live && t.sb_ix < Array.length b.sb_pcs
    && Array.unsafe_get b.sb_pcs t.sb_ix = pc
  then begin
    t.perf.Perf.instructions <- t.perf.Perf.instructions + 1;
    (match t.sampler with None -> () | Some observe -> observe pc);
    let ix = t.sb_ix in
    t.sb_ix <- ix + 1;
    (Array.unsafe_get b.sb_ops ix) t
  end
  else begin
    let b = locate_slow t pc in
    t.perf.Perf.instructions <- t.perf.Perf.instructions + 1;
    (match t.sampler with None -> () | Some observe -> observe pc);
    t.sb_cur <- b;
    t.sb_ix <- 1;
    (Array.unsafe_get b.sb_ops 0) t
  end;
  t.pc <> return_sentinel

let step t : bool = try step_core t with Fault _ as e -> report_trap t e

(** The reference stepper: execute exactly one instruction at [t.pc],
    fetched from its own per-instruction cache ([pg_insns]) of the
    closures {!compile} builds and dispatched on its own.  Compared with
    {!step}, it checks how the superblock path finds an instruction, not
    what the instruction does.  Do not mix [step] and [step_ref] on the
    same machine mid-call — each maintains its own decode state. *)
let step_ref_core t : bool =
  if t.steps_left <= 0 then faultf "step limit exceeded (pc=0x%x)" t.pc;
  t.steps_left <- t.steps_left - 1;
  let pc = t.pc in
  let off = pc - text_base t in
  let op = Array.unsafe_get (page_at t off).pg_insns (off land page_mask) in
  let op =
    if op != no_insn then op
    else begin
      let insn, size = decode_strict t pc in
      let op = compile t.cost pc insn size in
      (page_for_write t off).pg_insns.(off land page_mask) <- op;
      op
    end
  in
  t.perf.Perf.instructions <- t.perf.Perf.instructions + 1;
  (match t.sampler with None -> () | Some observe -> observe pc);
  op t;
  t.pc <> return_sentinel

let step_ref t : bool = try step_ref_core t with Fault _ as e -> report_trap t e

(** Prepare a call to [addr] without running it: load argument registers,
    reset the stack, push the return sentinel, point the pc at the entry.
    Drive the prepared call with {!step} (or {!finish}); this is how the
    safe-commit tests and demos park the machine mid-function. *)
let start_call_addr t addr (args : int list) : unit =
  if List.length args > 6 then invalid_arg "start_call_addr: too many arguments";
  List.iteri (fun i v -> t.regs.(i) <- v) args;
  t.regs.(Insn.sp) <- t.stack_base;
  push_word t return_sentinel;
  t.pc <- addr;
  t.depth <- 0;
  push_frame t addr;
  t.steps_left <- t.max_steps

let start_call t name args = start_call_addr t (Image.symbol t.image name) args

(** Run the machine until control returns to the sentinel; returns r0.

    Dispatches whole superblocks: the per-instruction cursor guard of
    {!step} is only needed when control can have moved unpredictably, and
    inside a straight-line block it cannot — every instruction that can
    transfer control, fault into a handler, or reach a runtime hook
    (call/ret/halt/brk/jumps, where safepoints and therefore icache
    flushes live) ends its block, so the inner loop runs the block tail
    with just the step-limit check, the perf/sampler bookkeeping, and the
    closure call per instruction.  Observable state transitions are the
    exact {!step} sequence; only host-side dispatch overhead differs. *)
let rec run_block_plain t perf ops n i =
  if i < n then begin
    if t.steps_left <= 0 then faultf "step limit exceeded (pc=0x%x)" t.pc;
    t.steps_left <- t.steps_left - 1;
    perf.Perf.instructions <- perf.Perf.instructions + 1;
    t.sb_ix <- i + 1;
    (Array.unsafe_get ops i) t;
    run_block_plain t perf ops n (i + 1)
  end

let rec run_block_sampled t perf observe ops pcs n i =
  if i < n then begin
    if t.steps_left <= 0 then faultf "step limit exceeded (pc=0x%x)" t.pc;
    t.steps_left <- t.steps_left - 1;
    perf.Perf.instructions <- perf.Perf.instructions + 1;
    observe (Array.unsafe_get pcs i);
    t.sb_ix <- i + 1;
    (Array.unsafe_get ops i) t;
    run_block_sampled t perf observe ops pcs n (i + 1)
  end

let rec finish_loop t perf =
  let pc = t.pc in
  let b = t.sb_cur in
  let b =
    if
      b.sb_live && t.sb_ix < Array.length b.sb_pcs
      && Array.unsafe_get b.sb_pcs t.sb_ix = pc
    then b
    else begin
      let b = locate_slow t pc in
      t.sb_cur <- b;
      t.sb_ix <- 0;
      b
    end
  in
  let ops = b.sb_ops in
  let n = Array.length ops in
  (match t.sampler with
  | None -> run_block_plain t perf ops n t.sb_ix
  | Some observe -> run_block_sampled t perf observe ops b.sb_pcs n t.sb_ix);
  if t.pc <> return_sentinel then finish_loop t perf

let finish t : int =
  (try finish_loop t t.perf with Fault _ as e -> report_trap t e);
  t.regs.(0)

(** {!finish} driven by {!step_ref} — the reference interpreter's run
    loop, for differential comparison against the superblock path. *)
let finish_ref t : int =
  while step_ref t do
    ()
  done;
  t.regs.(0)

(** Call the function at [addr] with up to 6 arguments; runs to completion
    and returns r0.  The machine's memory (globals, heap) persists across
    calls. *)
let call_addr t addr (args : int list) : int =
  start_call_addr t addr args;
  finish t

let call t name args = call_addr t (Image.symbol t.image name) args

(* ------------------------------------------------------------------ *)
(* Stack/PC scanning (the safe-commit quiescence detector)             *)
(* ------------------------------------------------------------------ *)

(** Every code address with a live activation: the current pc plus a
    conservative scan of the simulated stack.  Any stack word that falls
    inside the text section is treated as a potential return address (the
    same over-approximation a conservative garbage collector makes for
    roots); false positives can only delay a deferred patch, never corrupt
    one.  The return sentinel and data words outside text are excluded. *)
let live_code_addrs t : int list =
  let live = if Image.in_text t.image t.pc then [ t.pc ] else [] in
  let sp = t.regs.(Insn.sp) and base = t.stack_base in
  if sp <= 0 || sp > base then live
  else begin
    let acc = ref live in
    let a = ref sp in
    while !a < base do
      let v = Image.read t.image !a 8 in
      if Image.in_text t.image v then acc := v :: !acc;
      a := !a + 8
    done;
    !acc
  end

(** The live call stack as function entry addresses, innermost first.
    Exact (maintained on call/ret), unlike the conservative
    {!live_code_addrs} scan; the stack profiler symbolizes it into folded
    stacks.  Reading it costs nothing on the simulated clock; the list is
    built here, on read, so the call path never allocates one. *)
let call_frames t : int list =
  let rec build i acc =
    if i = t.depth then acc else build (i + 1) (t.frames.(i) :: acc)
  in
  build 0 []

(** Replace the innermost call frame with [addr] (push it when the stack
    is empty) — what an on-stack replacement does to the activation it
    moves into another body. *)
let set_top_frame t addr =
  if t.depth = 0 then push_frame t addr else t.frames.(t.depth - 1) <- addr

(** Read/write globals by symbol from the host side (test and benchmark
    drivers use this to set configuration switches). *)
let read_global t name ~width = Image.read t.image (Image.symbol t.image name) width

let write_global t name v ~width = Image.write t.image (Image.symbol t.image name) v width
