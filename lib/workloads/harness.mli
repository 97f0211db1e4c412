(** The measurement harness, mirroring the paper's protocol (Section 6.1):
    many samples of a fixed number of calls each, with "clearly
    distinguishable" outliers (simulated interrupts) excluded. *)

type measurement = {
  m_mean : float;  (** mean cycles per call, outliers excluded *)
  m_stddev : float;
  m_min : float;  (** fastest kept sample *)
  m_max : float;  (** slowest kept sample *)
  m_p50 : float;  (** median (nearest-rank) *)
  m_p95 : float;  (** 95th percentile — the tail-latency figure *)
  m_samples : int;  (** samples kept *)
  m_excluded : int;  (** outliers dropped *)
}

(** A built program on an N-hart {!Mv_vm.Smp.t} container — one shared
    image, per-hart registers/stacks/icaches, a deterministic seeded
    scheduler — with its multiverse runtime, plus the observability
    state: the event ring, always on, and the optional fields the
    [enable_*] functions fill.  A unicore session is the 1-hart case:
    its container's only hart is bit-identical to a plain machine. *)
type session = {
  program : Core.Compiler.program;
  smp : Mv_vm.Smp.t;
  machine : Mv_vm.Machine.t;  (** hart 0 *)
  runtime : Core.Runtime.t;
  sm_runtime : Core.Runtime.t;
      (** [runtime] again, for the benchmark (see the aliases below) *)
  mutable ring : Mv_obs.Trace.ring;
      (** the session's one event recorder, the only recording sink in
          its chain: 512 events from creation, replaced by a fresh
          4,096-event ring by {!enable_tracing}.  {!trace_events},
          {!trace_dump}, {!flight_dump}, the trap hooks and
          {!metrics_json} all read the current ring. *)
  mutable stackprofs : Mv_obs.Stackprof.t array;
      (** one per hart once {!enable_stack_profiling} ran *)
  mutable metrics : Mv_obs.Metrics.t option;
  mutable metrics_sink : Mv_obs.Trace.sink option;
      (** the registry's event bridge, teed behind the ring sink *)
  mutable heat : Mv_obs.Heat.t option;
      (** the code-heat accumulator, set by {!enable_heat} *)
}

(** Build a session over [n_harts] harts (default 1; [policy]/[seed] as
    in {!Mv_vm.Smp.create}): {!Core.Compiler.build} (given
    [callsite_padding], [lazy_variants] and [vtext_size]), then
    {!attach}.

    The wiring follows the hart count.  One hart writes text directly
    and leaves safe commit opt-in ({!enable_safe_commit}).  More harts
    wire the runtime for cross-modifying code: every patching operation
    runs inside a [stop_machine] rendezvous, every text mutation goes
    through the breakpoint-first [text_poke], commit-chain events carry
    the hart they ran on, and safe commit is armed (per-hart safepoints
    drain the journal; the live scanner sees every hart).

    [lazy_variants] builds in lazy-materialization mode: the compiler
    records per-function specialization recipes instead of pre-expanding
    the switch product, the link reserves a [vtext_size]-byte growable
    text region, and the runtime's lazy materializer is armed
    ([Core.Runtime.enable_lazy]) with a resident-variant byte [budget]
    (default: the whole region).  The first commit of an unseen
    valuation specializes, assembles and links the needed variant on
    demand (inside the rendezvous, through [text_poke], on several
    harts); structurally identical bodies dedup to one copy; cold
    variants are evicted when the budget runs out.

    The event ring (512 events) is armed immediately, clocked by the
    session clock (summed hart cycles), with every hart's trap hook
    dumping the session's current ring as a [mv-flight/1] artifact on an
    escaping fault (gated on [MV_SMP_ARTIFACT_DIR] — a plain test run
    writes nothing). *)
val session :
  ?n_harts:int ->
  ?policy:Mv_vm.Smp.policy ->
  ?seed:int ->
  ?platform:Mv_vm.Machine.platform ->
  ?callsite_padding:int ->
  ?lazy_variants:bool ->
  ?vtext_size:int ->
  ?budget:int ->
  (string * string) list ->
  session

(** {!session} without the build: the container, the runtime and its
    wiring, the ring and the trap hooks over an already built
    [program] — the one place a runtime is attached to a simulated
    machine.  A caller that edits the image between the link and the
    runtime's first parse (a corrupted descriptor or frame map, say)
    builds, edits, then attaches.  The arguments are {!session}'s that
    do not go to the build.  A [lazy_variants] build's recipes arm the
    lazy materializer with [budget]; a build without recipes (eager, or
    lazy with no switch-dependent function) attaches as an eager
    one. *)
val attach :
  ?n_harts:int ->
  ?policy:Mv_vm.Smp.policy ->
  ?seed:int ->
  ?platform:Mv_vm.Machine.platform ->
  ?budget:int ->
  Core.Compiler.program ->
  session

(** {!session} over one source (unit name ["main"]). *)
val session1 :
  ?n_harts:int ->
  ?policy:Mv_vm.Smp.policy ->
  ?seed:int ->
  ?platform:Mv_vm.Machine.platform ->
  ?callsite_padding:int ->
  ?lazy_variants:bool ->
  ?vtext_size:int ->
  ?budget:int ->
  string ->
  session

(** Read/write a word-sized global by symbol through the shared image. *)
val set : session -> string -> int -> unit

val get : session -> string -> int

(** Point a function-pointer global at a function symbol. *)
val set_fnptr : session -> string -> string -> unit

(** Whole-image [Runtime.commit] / [Runtime.revert] (under the
    rendezvous barrier on several harts). *)
val commit : session -> int

val revert : session -> int

(** Wire safe commit end to end: install the container's stack scanner
    (every hart's stack) as the runtime's live-activation source and the
    runtime's {!Core.Runtime.safepoint} as every hart's quiescence-point
    hook.  After this, every guest [ret] pays the (small) safepoint-poll
    cost and drains deferred patch sets.  Armed at creation on several
    harts. *)
val enable_safe_commit : session -> unit

(** Wire the runtime for cross-modifying code: every patching operation
    runs inside a [stop_machine] rendezvous ({!Mv_vm.Smp.stop_machine}),
    every text mutation goes through the breakpoint-first [text_poke],
    commit-chain events carry the hart they ran on, and
    {!enable_safe_commit} is armed.  Done at creation on several harts.
    On one hart the barrier and the three-phase poke change no simulated
    cycle, but they add a rendezvous per patching operation and two
    extra flushes per patched site, and the safepoint poll charges its
    cost on every [ret]; the workloads that measure the rendezvous itself
    ([Spinlock.run_contended]) arm it at any hart count. *)
val enable_stop_machine : session -> unit

(** {!Core.Runtime.commit_safe} / {!Core.Runtime.revert_safe} on the
    session's runtime ({!enable_safe_commit} first on one hart). *)
val commit_safe : ?policy:Core.Runtime.safe_policy -> session -> int

val revert_safe : ?policy:Core.Runtime.safe_policy -> session -> int

(** Arm on-stack replacement ({!Core.Runtime.set_osr}): the runtime gains
    accessors to the polling hart's registers, stack words, and frame
    list, so a safepoint that finds a deferred patch blocked by a live
    activation transfers that hart's activation into the target body
    (via the image's frame maps) instead of waiting for the frame to
    unwind.  Compose with {!enable_safe_commit}. *)
val enable_osr : session -> unit

(** Prepare a call on one hart; drive with {!step}/{!run}. *)
val start : session -> hart:int -> string -> int list -> unit

(** One scheduler step; [false] when every hart halted. *)
val step : session -> bool

(** Drive until every hart halted. *)
val run : session -> unit

(** Hart [hart]'s return value (r0). *)
val result : session -> hart:int -> int

(** {1 Observability}

    Structured tracing, sampling profiling, code heat, and the unified
    metrics snapshot.  All of it is host-side: the always-on ring and
    every [enable_*] leave the simulated cycle counts bit-identical to a
    session with no sink at all. *)

(** Widen the event window: swap the session's 512-event ring for a
    fresh, empty one of 4,096 events, clocked by the session clock, with
    hart stamps from the container's current hart, receiving the
    runtime's patching events, every hart's icache flushes, and the
    IPI/rendezvous lifecycle.  Events recorded before the call are
    dropped with the old ring.  The swap is visible everywhere the ring
    is read: a later {!flight_dump} or trap dump covers the traced
    window, and a run longer than 4,096 events numbers [hseq] densely
    within the window (see {!Mv_obs.Trace.stamped}).  Calling again
    starts another fresh ring. *)
val enable_tracing : session -> unit

(** Attach the stack-aware sampler to every hart ([interval] is the
    sampling period in instructions, default 97): each sample records the
    collapsed call stack (from [Machine.call_frames]) with the sampled
    pc's symbol appended as the leaf when it differs from the innermost
    frame — so a prologue-jump into a variant shows up as
    [...;spin_lock;spin_lock.config_smp=0].  Frames are classified as
    variants by the runtime's own names ({!Core.Runtime.is_variant}), so
    a lazy session's materialized aliases count once resident.  On
    several harts each stack is rooted at a synthetic ["hartN"] frame
    (see [Mv_obs.Stackprof.create]'s [root]).  {!Mv_obs.Stackprof.leaves}
    over [stackprofs] is the flat hot-function table. *)
val enable_stack_profiling : ?interval:int -> session -> unit

(** Attach the metrics registry: a {!Mv_obs.Metrics.trace_sink} bridges
    every runtime/machine trace event into counters and latency
    histograms ([mv_commits_total], [mv_patch_latency_cycles], ...),
    labelled with the hart that closed them.  Composes with
    {!enable_tracing} (both sinks tee off the single tracer slot). *)
val enable_metrics : session -> unit

(** Arm code-heat telemetry end to end: every hart's block-entry hit
    counters ([Mv_vm.Machine.enable_heat] — host-side, zero simulated
    cycles), the runtime's body census as the region registry
    ([Core.Runtime.heat_regions]), and the residency sink
    ([Mv_obs.Heat.sink]) teed into the session's event chain.  One
    accumulator folds the harts' counters keyed by hart id, so harts
    sharing text offsets never collide.  Hotness decays at
    {!Mv_obs.Heat.create}'s default rate.  Composes with the other
    [enable_*] in any order. *)
val enable_heat : session -> unit

(** The heat accumulator armed by {!enable_heat}, if any, with every
    hart's cumulative block counters folded in first (delta-safe:
    reading repeatedly never double-counts). *)
val heat : session -> Mv_obs.Heat.t option

(** Close a decay epoch: fold the hart counters, then apply the decay
    step to every region's hotness score. *)
val heat_epoch : session -> unit

(** Per-region heat accounting across all harts, synced ([[]] until
    {!enable_heat}).  A lazy session re-registers the runtime's current
    census on every sync, one region per resident alias under its own
    name (aliases that share a body each report its hits since the alias
    was registered); coverage survives the re-registration unless a
    region's extent moved, so consecutive reports agree. *)
val heat_report : session -> Mv_obs.Heat.region_stat list

(** The session's [mv-heat/1] document, synced, with open residency
    intervals extended to the current session clock; [budget] adds the
    eviction advisor's plan (with variants a journaled-but-undrained
    bind still needs excluded from it).  [Json.Null] until
    {!enable_heat}. *)
val heat_json : ?budget:int -> session -> Mv_obs.Json.t

(** Wire the heat accumulator in as the lazy materializer's eviction
    advisor ({!Core.Runtime.set_evict_advisor}): when the runtime needs
    room in the variant cache, {!Mv_obs.Heat.evict_plan} (freshly
    synced over every hart, pending variants excluded) ranks the
    resident variants and the [Evict] verdicts are offered
    coldest-first.  [budget] is the advisor's keep-budget — variants
    whose cumulative densest-first size fits are never advised away;
    the default [0] makes every resident variant eligible.  Requires
    {!enable_heat} and a [lazy_variants] session. *)
val enable_evict_advisor : ?budget:int -> session -> unit

(** The current ring's window, stamped, oldest first: the always-on
    512-event window until {!enable_tracing}, the traced window after. *)
val trace_events : session -> Mv_obs.Trace.stamped list

(** The recorded events as a Chrome [trace_event] JSON document (one lane
    per hart) — loadable in [about:tracing] / Perfetto. *)
val trace_dump : session -> string

(** The current ring dumped as a [mv-flight/1] document with full
    postmortem context (runtime stats, every hart's pc/stack) — what the
    trap hooks write, callable on demand. *)
val flight_dump : ?reason:string -> session -> string

(** Every hart's hot-stack table, hart 0's first, each hottest first with
    shares of its own hart's cycles ([[]] until
    {!enable_stack_profiling}). *)
val stack_report : session -> Mv_obs.Stackprof.row list

(** Every hart's stack profile in folded-stack format
    ([frame;frame;... count] lines, flamegraph.pl / speedscope input),
    concatenated; [""] until {!enable_stack_profiling}. *)
val folded_dump : session -> string

(** The metrics registry ([None] until {!enable_metrics}). *)
val metrics : session -> Mv_obs.Metrics.t option

(** The unified metrics snapshot ([mv-metrics/1]): runtime patching
    counters, hart 0's perf counters with derived metrics, static
    program statistics, profile (the stack profiler's per-leaf view),
    stacks and metrics sections when enabled, and a trace section with
    the current ring's [recorded]/[dropped] counts (the always-on
    window's before {!enable_tracing}). *)
val metrics_json : session -> Mv_obs.Json.t

(** Run a guest function by symbol name to completion; returns r0. *)
val call : session -> string -> int list -> int

(** Cycles consumed by one invocation. *)
val cycles_of_call : session -> string -> int list -> float

val mean : float list -> float
val stddev : float list -> float

(** Nearest-rank percentile of a sample list, [p] in [0, 1]; [0.0] for
    the empty list. *)
val percentile : float list -> float -> float

(** Drop samples beyond 3x the median (interrupt-scale disturbances);
    returns (kept, excluded). *)
val exclude_outliers : float list -> float list * float list

(** Measure [loop_fn], a guest function running [calls] invocations of the
    function under test per sample, after three warm-up runs.  [jitter] (a seed) makes a small
    fraction of samples absorb a simulated interrupt, exercising the
    outlier-exclusion protocol. *)
val measure :
  ?samples:int ->
  ?calls:int ->
  ?jitter:int ->
  session ->
  loop_fn:string ->
  measurement

(** Perf-counter deltas over one [loop_fn calls] invocation. *)
val counters : session -> loop_fn:string -> calls:int -> Mv_vm.Perf.snapshot

(** A measurement as a JSON object
    ([mean]/[stddev]/[min]/[max]/[p50]/[p95]/[samples]/[excluded]) — the
    bench exporter's row payload. *)
val measurement_json : measurement -> Mv_obs.Json.t

(** {1 Benchmark aliases}

    The names the repository benchmark ([perfbench/]) calls, kept so it
    runs unchanged until it moves to the unified API; nothing else may
    use them ([scripts/check.sh] fails if another source file does).
    Each is the unified function above; [sm_runtime] is the matching
    record field. *)

(** [session1 ~lazy_variants:true ~budget]. *)
val lazy_session1 : budget:int -> string -> session

(** [session1 ~n_harts ~seed]. *)
val smp_session1 : n_harts:int -> seed:int -> string -> session

val smp_set : session -> string -> int -> unit
val smp_get : session -> string -> int
val smp_commit : session -> int
val smp_start : session -> hart:int -> string -> int list -> unit
val smp_step : session -> bool
val smp_run : session -> unit
