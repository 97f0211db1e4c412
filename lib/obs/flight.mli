(** The always-on flight recorder: a bounded ring, independent of the
    opt-in {!Trace.ring}.

    The ring keeps the events themselves, with their clock readings and
    harts, in three preallocated arrays, so recording is three stores
    with no allocation — cheap enough that every harness session leaves
    one armed for its whole life.  On a VM trap, a fuzz-oracle
    divergence, or a bench-gate failure the last [capacity] events are
    stamped as {!Trace.stamped} events and dumped as a [mv-flight/1]
    postmortem artifact together with caller-supplied context.  The dump
    is lossless: {!events_of_dump} reads back every event {!events}
    returns.

    Entirely host-side: recording, stamping and dumping charge no
    simulated cycles, so guest cycle counts are bit-for-bit identical
    with and without an armed recorder (asserted by the obs-overhead
    bench's [flight] arm). *)

type t

(** [create ~clock ()] builds a recorder over a monotonic clock
    (normally the simulated-cycle clock).  [capacity] (default 512)
    bounds the window: older events are overwritten, never reallocated.
    [hart] supplies the current hart for events that do not carry one
    intrinsically (see {!Trace.hart_of_event}); default hart 0. *)
val create :
  ?capacity:int -> ?hart:(unit -> int) -> clock:(unit -> float) -> unit -> t

(** Record one event: O(1), and allocation-free as long as [clock] and
    [hart] are. *)
val record : t -> Trace.event -> unit

(** The recorder as a {!Trace.sink}, for teeing alongside other sinks. *)
val sink : t -> Trace.sink

(** Total events ever recorded (including overwritten ones). *)
val recorded : t -> int

(** The ring's window size. *)
val capacity : t -> int

(** Events that have been overwritten ([max 0 (recorded - capacity)]). *)
val dropped : t -> int

(** Stamp the surviving window, oldest first.  [seq] is the event's
    global record index; [hseq] is recomputed densely within the window
    (after overflow it restarts from 0 rather than continuing the lost
    prefix). *)
val events : t -> Trace.stamped list

(** The artifact schema identifier, ["mv-flight/1"]. *)
val schema : string

(** [dump t ~reason ()] renders the postmortem document: schema, reason,
    current clock, recorded/capacity/dropped counts, and the stamped
    window (each event with its {!Trace.args_of_event} args and a
    human-readable [text] rendering).  [extra] appends caller sections —
    runtime stats, per-hart pc/stack summaries, fuzz reports. *)
val dump : t -> reason:string -> ?extra:(string * Json.t) list -> unit -> Json.t

(** {!dump} pretty-printed to a string. *)
val dump_string :
  t -> reason:string -> ?extra:(string * Json.t) list -> unit -> string

(** Decode one event from its [name] and [args] members — the dump's
    inverse, {!Trace.event_of_args}. *)
val event_of_json : string -> Json.t -> Trace.event option

(** Decode a parsed dump document's [events] member back into stamped
    events, oldest first (undecodable entries are skipped).  What
    [mvtrace postmortem] feeds to the causal analyzer. *)
val events_of_dump : Json.t -> Trace.stamped list

(** [write_artifact t ~reason ~name ()] writes {!dump} to
    [<dir>/<name>.flight.json] and returns the path.  [dir] defaults to
    the [MV_SMP_ARTIFACT_DIR] environment variable — the SMP test
    battery's failure-dump convention; with neither set (or on write
    failure) nothing is written and [None] is returned, so a plain
    [dune runtest] never spams the working tree. *)
val write_artifact :
  t ->
  reason:string ->
  name:string ->
  ?extra:(string * Json.t) list ->
  ?dir:string ->
  unit ->
  string option
