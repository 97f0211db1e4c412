(** The SMP container: N harts sharing one linked image, a deterministic
    seed-parameterized scheduler, and the cross-modifying-code machinery
    the multiverse runtime needs to patch text that other harts may be
    executing.

    Each hart is a full {!Machine.t} — own registers, call stack, branch
    predictor and decode cache — over the {e shared} image memory, with a
    disjoint stack slice ({!hart_stack_bytes} per hart below the image's
    stack base; hart 0 keeps the image default, so a 1-hart container is
    bit-identical to a plain machine).

    Two protocols make patching sound here:

    - {!stop_machine}: an IPI + ack rendezvous.  The initiator posts a
      stop request to every running hart; a hart acknowledges — and parks
      — at its next scheduling slot with interrupts enabled, so
      [cli]-protected critical sections delay the ack (the measurable
      rendezvous latency).  Halted harts are quiescent and ack
      implicitly.  The patch thunk runs once every ack is in; everyone is
      released after.

    - {!text_poke}: a breakpoint-first byte patch (the Linux protocol).
      The first byte of the range becomes [Brk] (+ flush everywhere),
      then the tail bytes land (+ flush), then the real first byte
      (+ flush).  A hart that arrives mid-poke decodes the trap byte and
      spins in place — it can observe the {e old} instruction or the
      {e new} one, never a torn hybrid. *)

type policy =
  | Round_robin
  | Weighted_random of int array
      (** runnable hart [i] runs with probability proportional to
          [w.(i)]; entries beyond the array default to 1.  If every
          runnable hart has weight 0 the lowest-numbered one runs, so a
          zero weight starves a hart only while a competitor is
          runnable. *)

type t

(** Stack bytes carved out per hart below the image's stack base. *)
val hart_stack_bytes : int

(** [create ~n_harts image] builds the container; [policy] (default
    {!Round_robin}) and [seed] (default 1) fully determine scheduling —
    same seed, same interleaving, bit for bit.  [platform]/[max_steps]
    are passed to every hart's {!Machine.create}. *)
val create :
  ?policy:policy ->
  ?seed:int ->
  ?platform:Machine.platform ->
  ?max_steps:int ->
  n_harts:int ->
  Mv_link.Image.t ->
  t

(** Number of harts in the container. *)
val n_harts : t -> int

(** Direct access to hart [i]'s machine (profiler feeds, per-hart perf). *)
val machine : t -> int -> Machine.t

(** The scheduler seed this container was built with. *)
val seed : t -> int

(** Total simulated work: the sum of every hart's cycle counter — the
    deterministic clock IPI and rendezvous latencies are measured on. *)
val clock : t -> float

(** Break hart [i]'s IPI channel ([Some i]): it is never posted a stop
    request and text flushes skip its icache.  The chaos hook behind the
    fuzzer's [Drop_ack] mode; [None] restores correctness. *)
val set_drop_ack : t -> int option -> unit

(** Slow hart [h]'s ack path ([Some (h, budget)]): the victim burns
    [budget] scheduling slots executing instructions before it
    acknowledges a stop request — a deterministic straggler that inflates
    its [Ipi_ack.wait] without breaking correctness (the rendezvous still
    completes).  The chaos mode behind the blame tests; [None] restores
    normal acking. *)
val set_slow_ack : t -> (int * int) option -> unit

(** The hart that last received a scheduling slot (0 before any step).
    This is the attribution source the event ring and metrics sinks use
    for host-driven events that do not name a hart themselves — wire it
    into [Trace.ring]'s [hart] argument, as every harness session does
    for its always-on ring. *)
val current_hart : t -> int

(** Install (or remove) the event sink on the container {e and} every
    hart (per-hart [Icache_flush]es carry their hart id). *)
val set_tracer : t -> Mv_obs.Trace.sink option -> unit

(** Install (or remove) the safepoint hook on {e every} hart: polls fire
    per-hart, at each hart's own [ret]/halt. *)
val set_safepoint : t -> (unit -> unit) option -> unit

(** [true] while hart [i] has not returned to the sentinel. *)
val running : t -> int -> bool

(** Running and not parked by a rendezvous. *)
val runnable : t -> int -> bool

(** Give hart [i] one scheduling slot: ack a pending stop request (if
    interrupts are enabled) or execute one instruction.  [false] when the
    hart was not runnable.  The interleaving tests drive this directly to
    enumerate schedules. *)
val step_hart : t -> int -> bool

(** One global scheduler step (policy-picked hart); [false] when no hart
    is runnable. *)
val step : t -> bool

(** Drive until no hart is runnable (all halted/returned). *)
val run : t -> unit

(** Prepare a call on hart [hart] (see {!Machine.start_call}). *)
val start_call : t -> hart:int -> string -> int list -> unit

(** Hart [hart]'s r0 — its return value once it stopped running. *)
val result : t -> hart:int -> int

(** Post stop requests for a rendezvous by [initiator]; returns the
    number of acks owed.  Manual-control API for the interleaving tests —
    normal callers use {!stop_machine}. *)
val rendezvous_post : t -> initiator:int -> int

(** Every posted stop request has been acknowledged. *)
val rendezvous_complete : t -> bool

(** Run the patch thunk at the gathered rendezvous and release every
    hart; raises [Machine.Fault] if acks are outstanding. *)
val rendezvous_finish : t -> (unit -> 'a) -> 'a

(** [stop_machine t f]: post, drive every other hart to its ack, run [f],
    release.  Re-entrant — a nested call runs [f] directly under the
    outer rendezvous' protection.  Initiated by hart 0 (the boot hart, as
    in the paper's kernel use case).  Raises [Machine.Fault] if the other
    harts cannot be driven to quiescence. *)
val stop_machine : t -> (unit -> 'a) -> 'a

(** Flush the range from {e every} hart's decode cache (the drop-ack
    victim's broken channel excepted). *)
val flush_icache : t -> addr:int -> len:int -> unit

(** Begin a breakpoint-first patch: [Brk] over the first byte, flushed
    everywhere.  Advance with {!text_poke_step}. *)
val text_poke_start : t -> addr:int -> bytes -> unit

(** Run the next poke phase; [true] once the patch is fully live. *)
val text_poke_step : t -> bool

(** The whole breakpoint-first protocol, synchronously.  The runtime's
    patch layer routes every text mutation here (see
    [Core.Patch.set_writer]). *)
val text_poke : t -> addr:int -> bytes -> unit

(** Live code addresses across every hart — the SMP quiescence source
    for [Core.Runtime.set_live_scanner]. *)
val live_code_addrs : t -> int list

(** Call frames across every hart, hart 0's first. *)
val call_frames : t -> int list

(** Host-side global access through the shared image. *)
val read_global : t -> string -> width:int -> int

val write_global : t -> string -> int -> width:int -> unit

(** {2 Rendezvous statistics} — the counters behind the bench rows. *)

(** Stop requests posted across all rendezvous so far. *)
val ipis_sent : t -> int

(** Acks received (equals {!ipis_sent} once every rendezvous finished). *)
val ipi_acks : t -> int

(** Completed [stop_machine] rendezvous. *)
val rendezvous_count : t -> int

(** Simulated cycles spent between posting and gathering, summed over
    every rendezvous — the latency E17 reports. *)
val rendezvous_cycles : t -> float
