(** Offline analysis over recorded observability artifacts: span
    extraction and duration statistics from an event stream, and the
    structural diff of two [mv-bench-rows/1] bench documents with a
    configurable regression threshold (the gate behind
    [mvtrace diff --gate] and the CI bench-regression step). *)

(** {1 Spans} *)

(** A completed begin/end pair; times in the recording's clock units
    (simulated cycles for the standard wiring). *)
type span = { sp_op : string; sp_start : float; sp_dur : float }

(** Pair [Commit_begin]/[Commit_end] events into spans (same-op spans
    nest like parentheses; unmatched halves are dropped), completion
    order. *)
val spans : Trace.stamped list -> span list

(** Summary statistics of a duration population. *)
type dist = {
  d_count : int;
  d_mean : float;
  d_min : float;
  d_max : float;
  d_p95 : float;  (** nearest-rank *)
}

(** Span-duration statistics per operation kind, sorted by op. *)
val span_stats : Trace.stamped list -> (string * dist) list

(** Event counts per constructor tag, sorted by tag. *)
val event_counts : Trace.stamped list -> (string * int) list

(** Render the {!span_stats} table. *)
val pp_span_stats : Format.formatter -> (string * dist) list -> unit

(** {1 Bench diff} *)

(** One compared numeric leaf of the baseline.  [dl_field] is the row
    field name; measurement objects contribute their mean as
    ["field.mean"].  [dl_fresh] is [None] when the fresh document ran the
    experiment but lacks the leaf (its row or field was dropped).
    [dl_pct] is [(fresh - base) / |base| * 100] (0 when both are 0, 100
    when only the base is 0, [infinity] when the leaf is missing, so a
    missing leaf fails every gate). *)
type delta = {
  dl_exp : string;
  dl_label : string;
  dl_field : string;
  dl_base : float;
  dl_fresh : float option;
  dl_pct : float;
}

(** The default skip predicate: host wall-clock series ([commit_ms] /
    [revert_ms] fields and the [host-ms] row), the only values in a
    bench document that are not a pure function of the simulator. *)
val default_skip : label:string -> field:string -> bool

(** [bench_diff ~base ~fresh ()] compares every numeric leaf of the
    baseline with the fresh document — experiments matched by id, rows by
    [label], fields by name; measurement objects by their [mean] — and
    returns the per-leaf deltas in document order.  A baseline leaf whose
    row or field the fresh document lacks is a missing delta; an
    experiment the fresh document did not run at all (an [--only] run) is
    skipped.  [skip] (default {!default_skip}; called with [field = ""]
    for whole-row decisions) filters nondeterministic series.  [Error]
    when either document is not an [mv-bench-rows/1]. *)
val bench_diff :
  ?skip:(label:string -> field:string -> bool) ->
  base:Json.t ->
  fresh:Json.t ->
  unit ->
  (delta list, string) result

(** Deltas whose magnitude exceeds [threshold] percent, worst first
    (missing leaves first of all).  Both directions count: on a
    deterministic simulator any drift from the committed baseline —
    faster or slower — means the baseline no longer describes the
    tree. *)
val regressions : threshold:float -> delta list -> delta list

(** Render one delta as a single table row. *)
val pp_delta : Format.formatter -> delta -> unit

(** Render a delta table and its [(N comparisons, C changed, M missing)]
    summary; [only_changed] (default true) hides exact matches. *)
val pp_deltas : ?only_changed:bool -> Format.formatter -> delta list -> unit

(** Deltas as a JSON array (for artifact upload). *)
val deltas_json : delta list -> Json.t
