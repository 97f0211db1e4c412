(** Differential oracles.

    Each oracle runs one generated case through a pair of pipeline
    configurations whose observable behavior must match, and reports the
    first divergence: differing return values, differing observable
    global/array state after a run, a fault on one side only, or
    text-segment bytes that fail to return to the pristine image after a
    final revert.

    Observable state excludes pointer-typed globals (their values are
    layout-dependent) and [__rdtsc] never occurs in generated programs, so
    any divergence is a genuine bug in the pipeline under test.

    Every compiled side runs in a {!Mv_workloads.Harness} session
    ({!Mv_workloads.Harness.attach}), wired as the benchmarks and tests
    wire theirs: each records into the session's 512-event ring, and
    with [MV_SMP_ARTIFACT_DIR] set an escaping guest fault dumps a
    [vm-trap] flight artifact. *)

(** Fault injection for validating the oracles themselves: [Skip_flush]
    drops the icache flush after every text write, [Lost_flush] after
    every other one (a lost invalidation IPI — the classic
    cross-modifying-code bug) — both in the sessions that write text
    directly, not in the multi-hart oracle, whose [text_poke] writer
    flushes on its own — [Drop_ack] severs one hart's IPI channel
    in the multi-hart oracle (it is neither stopped by the rendezvous nor
    re-flushed, so it keeps executing the stale variant), and
    [Corrupt_framemap] bumps one live-entry location per safepoint in the
    OSR oracle's frame map, so the on-stack transfer reconstructs the
    parked frame from the wrong register or spill slot, and
    [Stale_cache] makes variant-cache eviction skip the dedup-table
    invalidation in the lazy oracle, so a later structural-hash hit
    links a freed-and-recycled block holding some other variant's body.
    A healthy pipeline diverges under each, and the fuzzer must catch
    it. *)
type chaos =
  | No_chaos
  | Skip_flush
  | Lost_flush
  | Drop_ack
  | Corrupt_framemap
  | Stale_cache

(** A caught mismatch: which oracle fired and a human-readable account
    of the first differing observation. *)
type divergence = {
  d_oracle : string;
  d_detail : string;
}

(** [<oracle>: <detail>], one line. *)
val pp_divergence : Format.formatter -> divergence -> unit

(** All oracle names, in the order {!run_all} tries them. *)
val oracle_names : string list

(** Run one oracle by name ([Invalid_argument] on unknown names).
    [chaos] affects the oracles that patch ([commit-soundness],
    [commit-idempotent], [schedule-equiv], [osr-state-equiv],
    [smp-schedule-equiv], [lazy-eager-equiv] — [Drop_ack] bites only
    the multi-hart oracle, which runs the case's driver against a
    patched-under-load multi-hart workload and probes every hart's
    icache coherence after the rendezvous; [Corrupt_framemap] bites only
    [osr-state-equiv], which compares a frame transferred mid-loop by
    on-stack replacement against the same program run from scratch in
    the committed world; [Stale_cache] bites only [lazy-eager-equiv],
    which runs every committed valuation through an eager pre-expansion
    session and a demand-driven session whose one-block byte budget
    forces continual evict-and-recycle churn — results and observable
    globals must match, cycle counts aside). *)
val run_named :
  ?chaos:chaos -> string -> Gen.case -> Schedule.t -> divergence option

(** Run every oracle; first divergence wins.  [only] restricts to a
    subset of {!oracle_names}. *)
val run_all :
  ?chaos:chaos ->
  ?only:string list ->
  Gen.case ->
  Schedule.t ->
  divergence option
