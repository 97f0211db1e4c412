(** Extension workload: Ftrace-style function tracing via multiverse
    (paper Section 1.1 lists Ftrace among the ad-hoc kernel patching
    mechanisms multiverse unifies).  Every instrumented function starts
    with a probe; committed off, the empty probe variant is inlined as
    nops into every site — zero-cost probes. *)

type build =
  | Plain  (** the probe checks [trace_enabled] dynamically *)
  | Multiversed  (** probes are variation points, patched by commit *)

(** Ring-buffer capacity in events. *)
val ring_size : int

val source : build -> string

(** Build, set [trace_enabled], commit (for [Multiversed]). *)
val prepare : build -> enabled:bool -> Harness.session

(** Mean cycles per instrumented syscall-triple. *)
val measure : ?samples:int -> ?calls:int -> build -> enabled:bool -> Harness.measurement

(** Events recorded after [calls] benchmark iterations. *)
val events_recorded : build -> enabled:bool -> calls:int -> int

(** The last [n] recorded function ids, oldest first. *)
val ring_tail : Harness.session -> n:int -> int list

(** Probe sites currently inlined as nops. *)
val nop_sites : Harness.session -> int
