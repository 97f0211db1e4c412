(** Kernel case study 2: paravirtual operations (paper Section 6.1,
    Figure 4 right).  PV-Ops are multiversed function-pointer switches
    bound at boot; the "current" mechanism's custom calling convention
    ([saveall]) is the modeled difference on the Xen path. *)

type config =
  | Current  (** existing PV-Ops patching; Xen backends use [saveall] *)
  | Multiverse  (** fn-pointer switches, standard calling convention *)
  | Static_native  (** paravirtualization compiled out; cannot run on Xen *)

val config_name : config -> string

val source : config -> string

(** Boot-time binding: assign the platform's backends and commit.  Raises
    [Invalid_argument] for [Static_native] on Xen. *)
val boot : Harness.session -> config -> Mv_vm.Machine.platform -> unit

(** Mean cycles for irq_disable() + irq_enable(). *)
val measure :
  ?samples:int ->
  ?calls:int ->
  config ->
  platform:Mv_vm.Machine.platform ->
  Harness.measurement

(** Source with a [stress] driver for the functional tests. *)
val functional_source : config -> string

(** Run the [stress] irq workload on every hart of an [n_harts] container
    concurrently (per-hart interrupt flags are independent); boots the
    platform's backends, commits, drives every hart to completion and
    returns the session for inspection. *)
val smp_stress :
  ?n_harts:int ->
  ?policy:Mv_vm.Smp.policy ->
  ?seed:int ->
  ?iters:int ->
  Mv_vm.Machine.platform ->
  Harness.session
