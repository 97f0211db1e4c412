(** Exporters: Chrome [trace_event] JSON for recorded event streams and
    the unified metrics envelope.

    The Chrome format is the de-facto interchange for timeline tooling —
    the output of {!chrome_trace_string} loads directly in
    [chrome://tracing], [about:tracing], and Perfetto.  Commit spans map
    to duration-begin/end pairs ([ph = "B"]/[ph = "E"]); every other
    event maps to a thread-scoped instant ([ph = "i"]).  Timestamps are
    the recorded clock readings (simulated cycles) passed through as
    microseconds, so one trace microsecond reads as one guest cycle. *)

(** The Chrome [trace_event] array for a recorded stream (oldest first),
    as produced by [Trace.events]. *)
val chrome_trace : ?pid:int -> Trace.stamped list -> Json.t

(** {!chrome_trace} serialized with indentation, ready to write to a
    [.json] file. *)
val chrome_trace_string : ?pid:int -> Trace.stamped list -> string

(** The stack profiler's per-leaf view ({!Stackprof.leaves}) as a JSON
    array of row objects ([name]/[samples]/[cycles]/[share]/[variant]). *)
val profile_json : Stackprof.leaf list -> Json.t

(** A stack-profiler report as a JSON array of row objects
    ([stack] — frame array, outermost first —
    /[samples]/[cycles]/[share]/[variant]). *)
val stack_profile_json : Stackprof.row list -> Json.t

(** [metrics ~runtime ~perf ~program] assembles the unified metrics
    snapshot: a versioned envelope ([schema = "mv-metrics/1"]) wrapping
    the three layers' own JSON renderings (runtime patching counters,
    machine performance counters, static program statistics).  Extra
    sections (e.g. a profiler report) go in [extra]. *)
val metrics :
  ?extra:(string * Json.t) list ->
  runtime:Json.t ->
  perf:Json.t ->
  program:Json.t ->
  unit ->
  Json.t
