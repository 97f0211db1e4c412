(** Structured trace events for the multiverse runtime and the machine
    simulator, and the one bounded ring that records them.

    The runtime and the machine each accept an optional sink (an
    [event -> unit] function).  With no sink installed the hook sites
    reduce to one [option] match and the simulated cycle counts are
    bit-for-bit identical to an untraced run — tracing is strictly
    pay-for-use, like the safepoint hook.  The usual sink is {!sink} over
    a {!ring}, which stores each event with a clock reading (simulated
    cycles) and the hart it happened on in preallocated arrays, and
    stamps the window with global and per-hart sequence numbers when it
    is read: recording allocates nothing and a long run costs bounded
    memory, and overflow drops the {e oldest} events, keeping the most
    recent window.  Every harness session keeps one ring armed from
    creation; its window is what a [mv-flight/1] postmortem
    ([Flight]) dumps.

    Causal correlation ids thread through the distributed protocols:
    [rdv] ties the IPI/rendezvous events of one stop_machine together and
    [cid] ties a commit span to the deferred work it journals, possibly
    drained cycles later on a different hart.  {!Causal_edge} events make
    the cross-hart happens-before links explicit; [Causal] reconstructs
    the DAG from them. *)

(** Everything the runtime and machine report.  Addresses are absolute
    image addresses; names are symbol names. *)
type event =
  | Commit_begin of { cid : int; op : string; switches : (string * int) list }
      (** A runtime entry point starts.  [cid] is the commit causality
          id — every downstream event of this operation (the matching
          end, deferrals, the eventual drain) carries it.  [op] names the
          entry point: ["commit"], ["revert"], ["commit_safe"],
          ["revert_safe"], ["commit_func"], ["revert_func"],
          ["commit_refs"], ["revert_refs"] or ["set_variant_budget"]
          (a budget change, whose evictions stage in its span);
          [switches] records every configuration switch's value at
          decision time. *)
  | Commit_end of { cid : int; op : string; bound : int }
      (** The matching end of a {!Commit_begin} span; [bound] is the
          operation's return value (entities bound or reverted). *)
  | Variant_selected of { fn : string; variant : string }
      (** A variant was chosen and is about to be installed for [fn]. *)
  | Variant_unbound of { fn : string; variant : string }
      (** [fn], bound to [variant], returned to its generic body: a
          revert, a fallback, an eviction, a drained unbind or a
          rolled-back bind.  A rebind reports only the new
          {!Variant_selected}. *)
  | Site_retargeted of { fn : string; site : int; target : int }
      (** The call site at [site] now calls [target] directly. *)
  | Site_inlined of { fn : string; site : int; target : int }
      (** The body of [target] was inlined over the call site at [site]. *)
  | Prologue_patched of { fn : string; target : int }
      (** The generic prologue of [fn] was overwritten with a jump to
          [target] (the completeness path). *)
  | Fallback of { fn : string }
      (** No variant matched the switch values; [fn] stays generic. *)
  | Safe_defer of { cid : int; fn : string }
      (** A safe commit/revert journaled [fn]'s patch (live activation).
          [cid] names the commit that deferred it. *)
  | Safe_deny of { cid : int; fn : string }
      (** A safe commit/revert refused [fn]'s patch under [Deny]. *)
  | Pending_drained of { cid : int; pset : int; actions : int }
      (** Pending set [pset] applied in full ([actions] actions) at a
          quiescent safepoint.  [cid] is the id of the commit that
          journaled the set — the other end of the
          [Commit_begin -> … -> Pending_drained] causal chain. *)
  | Pending_rollback of { cid : int; pset : int }
      (** Pending set [pset] failed mid-apply and was rolled back. *)
  | Safepoint_poll of { pending : int }
      (** A safepoint inspected a non-empty journal of [pending] sets.
          Polls with an empty journal are not reported — they are the
          fast path and would flood the ring. *)
  | Icache_flush of { hart : int; addr : int; len : int }
      (** Hart [hart] dropped decoded instructions over the range.
          Single-hart machines report [hart = 0]. *)
  | Ipi_send of { rdv : int; from_hart : int; to_hart : int }
      (** The rendezvous initiator posted a stop request to [to_hart].
          [rdv] names the rendezvous; the matching {!Ipi_ack} carries the
          same id. *)
  | Ipi_ack of { rdv : int; hart : int; wait : float; at : int }
      (** [hart] observed its pending IPI and parked; [wait] is the
          simulated-cycle latency between post and ack (interrupts-off
          sections delay the ack) and [at] the pc the hart was executing
          when it finally parked — what the blame report shows for a
          straggler. *)
  | Rendezvous_begin of { rdv : int; initiator : int; waiting : int }
      (** A stop_machine-style rendezvous started; [waiting] harts must
          ack before the patch thunk may run. *)
  | Rendezvous_end of { rdv : int; initiator : int; acks : int; latency : float }
      (** The matching end of a {!Rendezvous_begin} span: all [acks]
          harts parked, the thunk ran, everyone was released.  [latency]
          is the total simulated-cycle cost of gathering the acks. *)
  | Causal_edge of { edge : string; id : int; src_hart : int; dst_hart : int }
      (** An explicit cross-hart happens-before link.  [edge] is the link
          kind: ["ipi"] (an {!Ipi_send} on [src_hart] caused the
          {!Ipi_ack} on [dst_hart]; [id] is the [rdv]), ["rendezvous"]
          (the {e last} ack — the straggler, on [src_hart] — released the
          {!Rendezvous_end} on [dst_hart]), or ["drain"] (the commit
          staged on [src_hart] was drained at a safepoint on [dst_hart];
          [id] is the [cid]). *)
  | Osr_transfer of {
      cid : int;
      hart : int;
      fn : string;
      sp_id : int;
      from_pc : int;
      to_pc : int;
      slots : int;
    }
      (** A live activation of [fn] was transferred between bodies by
          on-stack replacement: hart [hart], parked at [from_pc] (the
          safepoint with stable id [sp_id]), had [slots] live values
          rewritten into the target body's frame layout and resumed at
          [to_pc].  [cid] names the commit whose deferred patch the
          transfer unblocked — the same id the eventual
          {!Pending_drained} carries. *)
  | Variant_materialized of {
      fn : string;
      variant : string;
      addr : int;
      size : int;
      dedup : bool;
    }
      (** The lazy variant cache materialized [variant] for [fn] at
          [addr] on the first commit of an unseen switch valuation.
          [size] is the encoded body size; with [dedup] set the
          post-optimization structural hash matched an already-resident
          body, so no new bytes were linked — the descriptor alias simply
          points at the existing block. *)
  | Variant_evicted of { fn : string; variant : string; freed : int }
      (** The variant cache evicted [variant] of [fn] under its byte
          budget.  [freed] is the number of variant-text bytes returned
          to the allocator — [0] when other descriptor aliases still
          share the body, so only the alias was dropped. *)

(** A recorded event: [ts] is the clock reading at record time (simulated
    cycles for the standard wiring), [seq] a strictly increasing per-ring
    sequence number (survives overflow, so gaps reveal drops), [hart] the
    hart the event is attributed to, and [hseq] the event's position in
    that hart's own timeline within the window (dense per hart; after
    overflow it restarts from 0 at the oldest surviving event). *)
type stamped = { ts : float; seq : int; hart : int; hseq : int; ev : event }

(** An event consumer, installed into [Runtime.set_tracer] /
    [Machine.set_tracer]. *)
type sink = event -> unit

(** The hart an event is attributed to: the one it intrinsically names
    ([Ipi_ack] happened on the acking hart no matter which hart's slot
    recorded it), else [current ()], the currently executing hart.
    Allocation-free, so the ring can call it on every event. *)
val hart_of_event : current:(unit -> int) -> event -> int

(** The fixed-capacity recorder: three preallocated arrays (event, clock
    reading, hart) and a sequence counter. *)
type ring

(** [ring ~clock ()] creates an empty recorder keeping the last
    [capacity] events (default 4096; at least 1); older events are
    overwritten, never reallocated.  [clock] supplies the timestamp for
    each recorded event — wire it to the machine's cycle counter.
    [hart] supplies the currently-executing hart for events that do not
    name one themselves (default: constant 0, right for a single-hart
    machine; wire it to [Smp.current_hart] under SMP). *)
val ring :
  ?capacity:int -> ?hart:(unit -> int) -> clock:(unit -> float) -> unit -> ring

(** The sink that records into the ring. *)
val sink : ring -> sink

(** Store one event (what {!sink} does): O(1), and allocation-free as
    long as the ring's [clock] and [hart] are. *)
val record : ring -> event -> unit

(** Stamp the surviving window, oldest first.  [seq] is the event's
    global record index; [hseq] is recomputed densely within the window
    (see {!stamped}). *)
val events : ring -> stamped list

(** Number of events recorded since creation, including any that
    overflow has already discarded. *)
val recorded : ring -> int

(** Events discarded by overflow ([max 0 (recorded - capacity)]). *)
val dropped : ring -> int

(** The ring's window size. *)
val capacity : ring -> int

(** The ring's clock, read now. *)
val now : ring -> float

(** {1 The event schema}

    Every event kind is described once, as its stable name and its
    payload fields in export order.  {!event_name} and the JSON codec
    ({!args_of_event}, which writes the Chrome [args] and the
    [mv-flight/1] dump entries, and {!event_of_args}, which reads them
    back) are generic walks over these descriptions, so they cannot
    drift apart.

    To add an event: add its constructor to {!event}, a [kind] value
    (name, fields in export order, and [make]) to {!kinds}, an arm to
    the [describe] match in [trace.ml] — which does not compile until
    the new constructor has one — and an arm to {!pp_event}.  If the event names the hart it
    happened on, add it to {!hart_of_event} as well.  Consumers that
    interpret events ([Metrics], [Heat], [Causal], [Analyze]) keep their
    own matches. *)

(** One typed payload field and its JSON member name.  [Switches] is a
    switch-valuation list, written as a JSON object of ints. *)
type _ field =
  | Int : string -> int field
  | Float : string -> float field
  | Str : string -> string field
  | Bool : string -> bool field
  | Switches : string -> (string * int) list field

(** A kind's fields, written with list syntax:
    [[ Str "fn"; Int "cid" ]]. *)
type _ fields = [] : unit fields | ( :: ) : 'a field * 'b fields -> ('a * 'b) fields

(** One event's payload values, in the order of its kind's fields. *)
type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

(** An event kind: its stable name (the [name] of the Chrome export and
    the flight dump, and the [kind] label of [mv_events_total]), its
    fields, and the constructor that rebuilds an event from values. *)
type 'a kind = { name : string; fields : 'a fields; make : 'a values -> event }

(** A kind with its payload type hidden, for {!kinds}. *)
type any_kind = Kind : 'a kind -> any_kind

(** Every event kind, one per constructor of {!event}. *)
val kinds : any_kind list

(** Stable machine-readable tag of an event's constructor, e.g.
    ["site_retargeted"] — the name of its {!kind}. *)
val event_name : event -> string

(** An event's payload as JSON members, one per field of its {!kind} in
    the kind's order ([cid], [rdv], [hart], ...): the [args] of the
    Chrome export and of every [mv-flight/1] dump entry. *)
val args_of_event : event -> (string * Json.t) list

(** The inverse of {!args_of_event}: rebuild an event from its
    {!event_name} and [args].  Ints written as floats and floats written
    as ints still decode; [None] for unknown names or missing fields. *)
val event_of_args : string -> Json.t -> event option

(** One-line human rendering of an event. *)
val pp_event : Format.formatter -> event -> unit

(** [pp] renders a stamped event as ["[ts/seq hN.hseq] event"]. *)
val pp : Format.formatter -> stamped -> unit
