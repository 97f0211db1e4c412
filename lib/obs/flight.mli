(** The [mv-flight/1] postmortem artifact over a {!Trace.ring}.

    Every harness session keeps a ring armed from creation.  On a VM
    trap, a fuzz-oracle divergence, or a bench-gate failure the ring's
    surviving window is stamped as {!Trace.stamped} events and dumped as
    a [mv-flight/1] document together with caller-supplied context.  The
    dump is lossless: {!events_of_dump} reads back every event
    {!Trace.events} returns.

    Entirely host-side: recording, stamping and dumping charge no
    simulated cycles, so guest cycle counts are bit-for-bit identical
    with the ring armed and with no sink at all (asserted by the
    zero-cycle test in [test/test_causal.ml]; the obs-overhead bench's
    [flight] arm prints the delta against its sink-free baseline). *)

(** The artifact schema identifier, ["mv-flight/1"]. *)
val schema : string

(** [dump ring ~reason ()] renders the postmortem document: schema, reason,
    current clock, recorded/capacity/dropped counts, and the stamped
    window (each event with its {!Trace.args_of_event} args and a
    human-readable [text] rendering).  [extra] appends caller sections —
    runtime stats, per-hart pc/stack summaries, fuzz reports. *)
val dump : Trace.ring -> reason:string -> ?extra:(string * Json.t) list -> unit -> Json.t

(** {!dump} pretty-printed to a string. *)
val dump_string :
  Trace.ring -> reason:string -> ?extra:(string * Json.t) list -> unit -> string

(** Decode a parsed dump document's [events] member back into stamped
    events, oldest first (undecodable entries are skipped).  What
    [mvtrace postmortem] feeds to the causal analyzer. *)
val events_of_dump : Json.t -> Trace.stamped list

(** [write_artifact ring ~reason ~name ()] writes {!dump} to
    [<dir>/<name>.flight.json] and returns the path.  [dir] defaults to
    the [MV_SMP_ARTIFACT_DIR] environment variable — the SMP test
    battery's failure-dump convention; with neither set (or on write
    failure) nothing is written and [None] is returned, so a plain
    [dune runtest] never spams the working tree. *)
val write_artifact :
  Trace.ring ->
  reason:string ->
  name:string ->
  ?extra:(string * Json.t) list ->
  ?dir:string ->
  unit ->
  string option
