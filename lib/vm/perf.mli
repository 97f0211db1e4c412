(** Performance counters, in the spirit of the paper's TSC /
    CPU_CLK_UNHALTED measurements (Section 6) and the branch counts
    reported for musl ("-40% branches for malloc(1)"). *)

(** The simulated cycle counter.  It is a record of its own because an
    all-float record stores its field unboxed: [Machine] charges every
    instruction by updating it in place, which allocates nothing, where a
    float field of {!t} would box a fresh float on every charge.  Only
    the machine writes it; everyone else reads {!cycles}. *)
type clock = { mutable cycles : float }

type t = {
  clock : clock;  (** read via {!cycles} *)
  mutable instructions : int;
  mutable branches : int;
  mutable branch_mispredicts : int;
  mutable calls : int;
  mutable indirect_calls : int;
  mutable btb_misses : int;
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable hypercalls : int;
  mutable icache_flushes : int;
}

(** Fresh counters, all zero. *)
val create : unit -> t

(** Simulated cycles charged so far. *)
val cycles : t -> float

(** Immutable counter snapshot. *)
type snapshot = {
  s_cycles : float;
  s_instructions : int;
  s_branches : int;
  s_branch_mispredicts : int;
  s_calls : int;
  s_indirect_calls : int;
  s_btb_misses : int;
  s_loads : int;
  s_stores : int;
  s_atomics : int;
  s_hypercalls : int;
  s_icache_flushes : int;
}

(** Capture the current counter values. *)
val snapshot : t -> snapshot

(** [diff a b] is the counter delta from [a] to [b]. *)
val diff : snapshot -> snapshot -> snapshot

(** {1 Derived metrics}

    The ratios the paper's evaluation argues with; all return [0.0] when
    the denominator is zero (an empty delta). *)

(** Instructions per cycle. *)
val ipc : snapshot -> float

(** Mispredicted fraction of executed conditional branches, in [0, 1]. *)
val mispredict_rate : snapshot -> float

(** Mean cycles per executed call instruction. *)
val cycles_per_call : snapshot -> float

(** One-counter-per-line rendering of a snapshot, raw counters followed
    by the derived {!ipc}/{!mispredict_rate}/{!cycles_per_call} block. *)
val pp : Format.formatter -> snapshot -> unit

(** Snapshot as a JSON object (raw counters plus derived metrics) — the
    machine's third of the unified metrics export
    ([Mv_obs.Export.metrics]). *)
val snapshot_json : snapshot -> Mv_obs.Json.t
