(** Causal analysis over a stamped event stream: per-hart timeline DAG,
    rendezvous critical paths, straggler ranking, and commit-chain
    reconstruction.

    Everything here is a pure host-side fold over [Trace.stamped list] —
    run it after the fact on [Harness.trace_events] (or a decoded
    [mv-flight/1] dump's window); nothing touches the simulated machine.
    The [mvtrace timeline] and [mvtrace blame] subcommands are thin
    renderers over this module. *)

(** Events per hart: each lane oldest-first (its [hseq] order — the
    hart's program-order edge chain), lanes sorted by hart id. *)
val timelines : Trace.stamped list -> (int * Trace.stamped list) list

(** A cross-hart happens-before edge, decoded from a [Causal_edge]
    event.  Together with the per-hart lanes these edges form the full
    timeline DAG. *)
type edge = {
  e_kind : string;  (** ["ipi"], ["rendezvous"] or ["drain"] *)
  e_id : int;  (** the correlation id: [rdv] or [cid] *)
  e_src : int;
  e_dst : int;
  e_ts : float;  (** when the destination end materialized *)
}

(** The cross-hart edges of the stream, oldest-first. *)
val edges : Trace.stamped list -> edge list

(** One hart's participation in a rendezvous. *)
type ack = {
  a_hart : int;
  a_ts : float;  (** clock at the ack *)
  a_wait : float;  (** post-to-ack latency *)
  a_at : int;  (** pc the hart was executing when it parked *)
}

(** A reconstructed stop_machine rendezvous, grouped by its [rdv] id. *)
type rendezvous = {
  r_id : int;
  r_initiator : int;
  r_begin_ts : float;
  r_sends : (int * float) list;  (** (target hart, send ts), send order *)
  r_acks : ack list;  (** ack order *)
  r_end_ts : float option;  (** [None]: never completed in this window *)
  r_latency : float option;  (** [Rendezvous_end.latency] *)
}

(** Group the stream's IPI/rendezvous events by [rdv] id, oldest
    rendezvous first. *)
val rendezvous : Trace.stamped list -> rendezvous list

(** The ack that took longest to arrive — the hart whose critical path
    set the rendezvous latency.  [None] for an uncontended rendezvous. *)
val straggler : rendezvous -> ack option

(** One node of a rendezvous' critical path. *)
type path_step = { p_hart : int; p_event : string; p_ts : float }

(** The chain of events that determined a completed rendezvous' end
    time: begin on the initiator, the send to the straggler, the
    straggler's ack, the end.  Empty for a rendezvous that never
    completed inside the recorded window. *)
val critical_path : rendezvous -> path_step list

(** Cycle length of the critical path (0 when incomplete).  For a
    completed rendezvous this equals [Rendezvous_end.latency]: sends are
    stamped at the same clock reading as the begin, and the patch thunk
    charges no simulated cycles — the invariant the causal tests pin. *)
val critical_path_length : rendezvous -> float

(** Aggregate wait profile of one hart across a rendezvous list. *)
type hart_rank = {
  h_hart : int;
  h_acks : int;  (** rendezvous this hart had to ack *)
  h_straggled : int;  (** rendezvous where its ack arrived last *)
  h_total_wait : float;
  h_max_wait : float;
}

(** Rank harts by how much rendezvous latency they are responsible for:
    the harts that cost the most wait first (total wait, then straggle count). *)
val rank_stragglers : rendezvous list -> hart_rank list

(** Feed per-hart wait histograms into a metrics registry:
    [mv_hart_wait_cycles{hart}] observes every ack wait,
    [mv_stragglers_total{hart}] counts rendezvous the hart released
    last. *)
val to_metrics : Metrics.t -> rendezvous list -> unit

(** A commit causality chain, grouped by [cid]: the span, the work it
    deferred, the eventual (possibly cross-hart) drain. *)
type chain = {
  c_cid : int;
  c_op : string;
  c_hart : int;  (** hart the commit ran on *)
  c_begin_ts : float;
  c_end_ts : float option;
  c_defers : string list;  (** functions journaled, defer order *)
  c_denies : string list;
  c_drained : (int * float) option;  (** (draining hart, drain ts) *)
  c_rolled_back : bool;
}

(** Group the stream's commit-lifecycle events by [cid], oldest first. *)
val chains : Trace.stamped list -> chain list

(** Violations of the send/ack pairing invariant — every [Ipi_send] of a
    completed rendezvous has exactly one matching [Ipi_ack], no ack
    without a send.  Empty list = invariant holds. *)
val check_send_ack_pairing : Trace.stamped list -> string list
