(** Kernel case study 1: spinlock lock elision (paper Sections 1 and 6.1,
    Figures 1 and 4 left). *)

(** The four kernel builds of Figure 4. *)
type kernel =
  | Mainline_smp  (** distribution kernel: the lock is always taken *)
  | If_elision  (** dynamic [if (config_smp)] on every invocation *)
  | Multiverse  (** the same code, multiversed and committed *)
  | Static_up  (** CONFIG_SMP=n resolved at build time, operations inline *)

val kernel_name : kernel -> string

(** Mini-C source of the kernel's locking layer plus benchmark loops. *)
val source : kernel -> string

(** Mean cycles for spin_irq_lock() + spin_irq_unlock(). *)
val measure : ?samples:int -> ?calls:int -> kernel -> smp:bool -> Harness.measurement

(** Figure 1's B case: the dynamically-checked implementation inlined at
    the call site (the paper's [inline] functions). *)
val if_elision_inline_source : string

val measure_inline_source :
  ?samples:int -> ?calls:int -> ?smp:bool -> string -> Harness.measurement

val measure_if_inline : ?samples:int -> ?calls:int -> smp:bool -> unit -> Harness.measurement

(** The Figure 1 table: rows (label, static, dynamic-if, multiverse). *)
val figure1 :
  ?samples:int ->
  unit ->
  (string * Harness.measurement * Harness.measurement * Harness.measurement) list

(** Source with a [stress] driver checking lock-word and IRQ invariants. *)
val functional_source : string

(** The multiverse kernel plus a lock-protected shared counter and a
    per-hart [worker] driver: exact counts under [config_smp=1], lost
    updates when the elided lock races on several harts. *)
val contended_source : string

(** Run [worker iters] on every hart; returns the session and the final
    counter.  Commits run under [stop_machine] at any hart count
    ({!Harness.enable_stop_machine}).  [commit_at] injects a whole-image
    commit after that many scheduler steps (a rendezvous under
    contention). *)
val run_contended :
  ?n_harts:int ->
  ?policy:Mv_vm.Smp.policy ->
  ?seed:int ->
  ?commit_at:int ->
  smp:bool ->
  iters:int ->
  unit ->
  Harness.session * int
