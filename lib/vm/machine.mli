(** The machine simulator: fetch / decode / execute over a linked image,
    with a cycle cost model, branch prediction, per-page protection
    enforcement, and a superblock decode cache that models the instruction
    cache.

    Execution is driven from {e pre-decoded superblocks}: straight-line
    basic blocks are decoded once into arrays of OCaml closures and
    dispatched through a cursor, so the hot path pays one closure call per
    instruction.  {!step_ref} runs the same compiled instructions one at a
    time from its own cache; both paths are required (and tested) to
    produce bit-identical simulated cycles, perf counters, and trace events.

    The decode cache is why the multiverse runtime must flush after
    patching: until {!flush_icache} covers a patched range, the machine
    keeps executing the stale decoded instructions — observable, and
    covered by the test suite. *)

module Insn = Mv_isa.Insn
module Image = Mv_link.Image

exception Fault of string

(** Native hardware or a Xen PV guest.  In a PV guest the privileged
    [cli]/[sti] fault (the kernel must go through PV-Ops); on native
    hardware [hypercall] faults. *)
type platform = Native | Xen

(** Host-side decode-cache statistics: superblocks compiled, instructions
    decoded into them, and superblocks dropped by icache flushes.  None of
    these counters move the simulated clock; the superblock tests assert
    on them to prove re-decode happens only after an invalidation. *)
type decode_stats = {
  mutable ds_blocks : int;  (** superblocks compiled since creation *)
  mutable ds_insns : int;  (** instructions decoded into superblocks *)
  mutable ds_invalidated : int;  (** superblocks dropped by icache flushes *)
}

type t = {
  image : Image.t;
  hart_id : int;  (** event-attribution id; 0 for plain machines *)
  stack_base : int;
      (** top of this hart's stack region (the image default for hart 0) *)
  regs : int array;
  mutable pc : int;
  perf : Perf.t;
  bp : Branch_pred.t;
  cost : Cost.t;
  platform : platform;
  code_span : int;
      (** executable bytes from the text base: static text plus the
          variant-text reserve; a fetch at or past it faults *)
  mutable pages : page array;
      (** the decode index over text offsets: a directory of fixed-size
          {!type-page}s, each allocated on the first write to one of its
          offsets.  The directory is empty until the first write, so
          creating a machine costs O(1) in the code span and decode
          state grows only with the code that runs *)
  mutable sb_cur : superblock;
      (** dispatch cursor: the superblock expected to contain [pc], or a
          shared never-live sentinel when there is none (a sentinel, not
          an option, so entering a block allocates nothing) *)
  mutable sb_ix : int;
      (** index into [sb_cur] expected to execute next *)
  mutable sb_max_span : int;
      (** the longest byte range of any superblock built so far: how far
          before a flushed window {!flush_icache} looks for blocks *)
  dstats : decode_stats;  (** read via {!decode_stats} *)
  mutable irq_enabled : bool;
  mutable steps_left : int;
  max_steps : int;
  mutable safepoint : (unit -> unit) option;
      (** quiescence-point hook; install via {!set_safepoint} *)
  mutable tracer : (Mv_obs.Trace.event -> unit) option;
      (** machine-side event sink; install via {!set_tracer} *)
  mutable sampler : (int -> unit) option;
      (** per-instruction pc observer; install via {!set_sampler} *)
  mutable frames : int array;
      (** live activation entries as a stack, outermost first, of [depth]
          entries; grown by doubling, so a [call] allocates nothing.  Read
          via {!call_frames}, rewrite the top via {!set_top_frame} *)
  mutable depth : int;  (** live entries of [frames] *)
  mutable brk : (int -> bool) option;
      (** breakpoint handler; install via {!set_brk_handler} *)
  mutable on_trap : (string -> unit) option;
      (** trap observer; install via {!set_trap_hook} *)
  mutable heat : bool;
      (** block-entry hit counting; arm via {!enable_heat} *)
}

(** A pre-decoded straight-line run of instructions: one closure per
    instruction, compiled exactly as {!step_ref} compiles the instruction
    it caches, so the two steppers differ only in how they find it.
    Blocks end at control transfers and are dropped — never patched in
    place — when an icache flush overlaps their byte range; the
    {!text_poke}/{!flush_icache} discipline the cross-modifying-code
    protocol already enforces is therefore the complete invalidation
    contract (ARCHITECTURE §13). *)
and superblock = {
  sb_start : int;  (** text offset of the first instruction *)
  sb_end : int;  (** text offset one past the last decoded byte *)
  sb_pcs : int array;  (** absolute pc of each instruction *)
  sb_ops : (t -> unit) array;  (** compiled instructions, in order *)
  mutable sb_live : bool;  (** cleared when an icache flush drops the block *)
}

(** One page of the decode index: for each of its text offsets, the
    superblock entered there (the dispatch slow path's lookup; one
    directory read more than a flat array), the compiled instruction
    {!step_ref} caches there, and the code-heat counters.  The heat
    counters live here, outside the superblocks, so an icache flush that
    drops a block never loses the hits already charged to its entry. *)
and page

(** Text offsets per decode-index {!type-page}: the granularity at which a
    machine allocates decode state. *)
val page_size : int

(** The address a top-level call returns to; control reaching it ends
    {!step}'s [true] stream.  It lies outside the text section, so it can
    never be mistaken for a live code address. *)
val return_sentinel : int

(** Build a machine over a linked image.  [cost] selects the cycle model,
    [platform] whether privileged instructions or hypercalls fault, and
    [max_steps] bounds each top-level call (runaway-loop protection).
    [hart_id] (default 0) tags this context's events; [stack_base]
    (default the image's) lets an SMP container give each hart a disjoint
    stack slice.  The defaults reproduce the single-hart machine
    bit-for-bit. *)
val create :
  ?cost:Cost.t ->
  ?platform:platform ->
  ?max_steps:int ->
  ?hart_id:int ->
  ?stack_base:int ->
  Image.t ->
  t

(** Install (or remove, with [None]) the safepoint hook.  While installed,
    every [ret] and halt charges {!Cost.t.safepoint_poll} cycles and invokes
    the hook — wire it to {!Core.Runtime.safepoint} so deferred patch sets
    drain at quiescence points.  Without a hook the machine is exactly as
    fast as before. *)
val set_safepoint : t -> (unit -> unit) option -> unit

(** Install (or remove, with [None]) the machine-side event sink.  The
    machine reports [Icache_flush] events through it.  With no sink the
    flush paths behave exactly as before. *)
val set_tracer : t -> (Mv_obs.Trace.event -> unit) option -> unit

(** Install (or remove, with [None]) the per-instruction pc observer —
    the sampling profiler's feed ([Mv_obs.Stackprof.sample]).  The observer
    is host-side only: it charges no simulated cycles, so guest cycle
    counts are bit-for-bit identical with and without it. *)
val set_sampler : t -> (int -> unit) option -> unit

(** Install (or remove, with [None]) the breakpoint handler.  When the
    machine fetches a [Brk] the handler receives the pc; returning [true]
    leaves the pc in place and charges one pause (the text_poke spin),
    anything else faults.  With no handler every [Brk] faults — plain
    machines never execute one. *)
val set_brk_handler : t -> (int -> bool) option -> unit

(** Install (or remove, with [None]) the trap observer.  The hook
    receives the fault message whenever a {!Fault} escapes {!step},
    {!step_ref} or {!finish} — exactly once per escaping fault, before it
    propagates to the caller — and is where the flight recorder dumps its
    postmortem snapshot.  Host-side only: no simulated cycles, and an
    exception raised by the hook itself is swallowed so a failing dump
    never masks the fault. *)
val set_trap_hook : t -> (string -> unit) option -> unit

(** This machine's hart id (0 unless created by the SMP container). *)
val hart_id : t -> int

(** Host-side decode-cache statistics (superblock builds, instructions
    decoded, invalidations).  Reading them never moves the simulated
    clock; asserting [ds_blocks] stays flat across repeated runs proves
    re-decode only happens after an invalidation. *)
val decode_stats : t -> decode_stats

(** Arm the code-heat counters: from now on every superblock entry
    through the dispatch slow path increments a per-entry-offset hit
    counter, kept in the entry's {!type-page}.  Idempotent — a second call
    keeps the counts already accumulated, and arming allocates nothing:
    a page's counters appear with the first block counted in it.  Host-side only: the simulated clock
    does not move, so cycle counts are bit-identical with and without it
    (pinned by the obs-overhead bench's [heat] arm).  Counting happens at
    block granularity on the {!step}/{!finish} superblock path; the
    reference stepper ({!step_ref}) does not feed it. *)
val enable_heat : t -> unit

(** Snapshot the heat counters as [(lo, hi, hits, insns)] per superblock
    entry with at least one hit: absolute byte range of the block,
    cumulative entry count, cumulative instructions dispatched from it.
    Non-destructive and address-ordered; [[]] when heat was never
    enabled.  Because counters are cumulative, feed snapshots to
    [Mv_obs.Heat.observe], which folds deltas.  [hi] reflects the
    block's most recent shape (a re-decode after patching may change its
    extent).  Walks only the pages that hold counters. *)
val heat_blocks : t -> (int * int * int * int) list

(** Drop decoded state overlapping the range (icache flush): both the
    per-instruction cache entries and every superblock touching the
    range.  The cost is bounded by the range plus the longest superblock
    this machine has built (at most 64 instructions, but usually far
    shorter: the walk looks back [sb_max_span] bytes, not the 640 a
    64-instruction block could span), not by the number of blocks ever
    decoded, and pages never written are skipped without reading their
    slots. *)
val flush_icache : t -> addr:int -> len:int -> unit

(** Execute one instruction through the superblock cache; [false] once
    control returns to the sentinel. *)
val step : t -> bool

(** Execute one instruction, fetched and dispatched on its own from a
    per-instruction cache of the instructions {!step} runs in blocks.  As
    the differential reference it must match {!step} bit for bit in
    simulated cycles, perf counters, and trace events (superblock tests,
    [interp-superblock] bench row), which pins block building, the
    dispatch cursor, and block-granular invalidation.  Do not mix the two
    on one machine mid-call; each has its own decode state. *)
val step_ref : t -> bool

(** Prepare a call without running it: argument registers, fresh stack with
    the return sentinel pushed, pc at the entry.  Drive the prepared call
    with {!step} or {!finish} — this is how callers park the machine inside
    a function (e.g. to exercise safe-commit deferral). *)
val start_call_addr : t -> int -> int list -> unit

(** [start_call t name args]: {!start_call_addr} by symbol name. *)
val start_call : t -> string -> int list -> unit

(** Run until control returns to the sentinel; returns r0. *)
val finish : t -> int

(** {!finish} driven by {!step_ref} — the reference stepper's run loop,
    for differential comparison against the superblock path. *)
val finish_ref : t -> int

(** Call the function at [addr] with up to 6 integer arguments; runs to
    completion and returns r0.  Memory (globals, heap) persists across
    calls. *)
val call_addr : t -> int -> int list -> int

(** [call t name args]: {!call_addr} by symbol name. *)
val call : t -> string -> int list -> int

(** Every code address with a live activation: the current pc plus a
    conservative scan of the simulated stack (any word inside the text
    section counts, like conservative GC root scanning).  False positives
    only delay deferred patches; they never unblock an unsafe one.  Wire
    this to {!Core.Runtime.set_live_scanner}. *)
val live_code_addrs : t -> int list

(** The live call stack as function entry addresses, innermost first:
    pushed on every [call], popped on the matching [ret], reset by
    {!start_call_addr}/halt.  Exact where {!live_code_addrs} is
    conservative.  Host-side bookkeeping only — maintaining and reading
    it never moves the simulated clock, so a stack profiler built on it
    (see [Mv_obs.Stackprof]) keeps cycle counts bit-identical.  The list
    is built on each read; the call path itself allocates none. *)
val call_frames : t -> int list

(** [set_top_frame t addr] replaces the innermost call frame with [addr],
    or pushes it when the stack is empty: on-stack replacement moves the
    parked activation into another body, and the stack profiler should
    follow it there. *)
val set_top_frame : t -> int -> unit

(** [read_global t name ~width] reads a global by symbol (host-side view of
    configuration switches). *)
val read_global : t -> string -> width:int -> int

(** [write_global t name v ~width] writes a global by symbol (host-side
    switch flipping for tests and benches). *)
val write_global : t -> string -> int -> width:int -> unit
