(** A process-wide metrics registry: counters, gauges, and histograms
    identified by name plus label set (the Prometheus data model, scoped
    to a registry value so sessions and tests stay isolated).

    The registry is fed by {e interpreting} the structured trace events
    the runtime and machine already emit — {!trace_sink} turns a registry
    into an ordinary [Trace.sink] — so arming metrics adds zero new hook
    sites to any hot path, and (like every observability sink) never
    moves the simulated clock.

    Standard series produced by the trace bridge:
    - [mv_events_total{kind}] — every event, by constructor tag;
    - [mv_commits_total{op}] / [mv_commit_switch_total{op,switch,value}]
      — runtime entry points and the switch values they committed;
    - [mv_variant_installs_total{fn,variant}] — variant selections;
    - [mv_patches_total{kind}] — site retargets/inlines/prologue patches;
    - [mv_fallbacks_total{fn}], [mv_safe_total{outcome}],
      [mv_safepoint_polls_total], [mv_icache_flushes_total];
    - [mv_patch_latency_cycles{op}] — histogram of commit/revert span
      durations (simulated cycles);
    - [mv_safe_drain_latency_cycles] — histogram of defer-to-drain
      latencies under safe commit, each drain paired with the defers of
      its own [cid];
    - [mv_pending_sets] — gauge of journaled sets at the last poll. *)

(** A label set; order does not matter (labels are canonicalized). *)
type labels = (string * string) list

(** A registry: an isolated collection of named, labeled series. *)
type t

(** An empty registry. *)
val create : unit -> t

(** Add [by] (default 1) to a counter, creating it at 0 first.
    @raise Invalid_argument if [name]+[labels] exists with another kind. *)
val inc : ?by:int -> t -> string -> labels -> unit

(** Set a gauge to [v], creating it first. *)
val set_gauge : t -> string -> labels -> float -> unit

(** Record one observation into a histogram, creating it (with [bounds],
    default a 1..100k cycle ladder) on first use.  [bounds] is only
    consulted at creation. *)
val observe : ?bounds:float array -> t -> string -> labels -> float -> unit

(** Current counter value; [0] when absent. *)
val counter_value : t -> string -> labels -> int

(** Current gauge value; [None] when absent. *)
val gauge_value : t -> string -> labels -> float option

(** Aggregate view of one histogram (bucket counts live in the
    {!to_json} export). *)
type hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
}

(** Histogram summary; [None] when absent or empty. *)
val histogram_summary : t -> string -> labels -> hist_summary option

(** All registered series names, sorted, deduplicated. *)
val names : t -> string list

(** The registry as a [mv-metrics-registry/1] document: a sorted
    [series] array of [{name, labels, type, ...}] objects (counters carry
    [value]; gauges carry [value]; histograms carry
    [count]/[sum]/[min]/[max]/[bounds]/[counts], where [counts] has one
    entry per bound plus the overflow bucket). *)
val to_json : t -> Json.t

(** Human-readable one-line-per-series rendering, sorted. *)
val pp : Format.formatter -> t -> unit

(** [trace_sink t ~clock ()] is a [Trace.sink] that feeds the registry from
    the existing event stream; [clock] supplies the timestamps the
    latency histograms are computed from (wire to the machine's cycle
    counter) and [hart] the hart observations are attributed to (default:
    constant 0; wire to [Smp.current_hart] under SMP — the patch-latency
    and drain-latency histograms then carry a ["hart"] label exposing
    per-hart drain skew).  Compose it with a recording sink to get
    both. *)
val trace_sink :
  t -> clock:(unit -> float) -> ?hart:(unit -> int) -> unit -> Trace.sink
