(** User-level case study: the musl C library (paper Section 6.2.2,
    Figure 5).  A mini-musl with a size-class [malloc]/[free], the locked
    LCG [random], and buffered [fputc] with stdio file locking; the
    multiversed build elides all locking in the single-threaded state. *)

type build =
  | Plain  (** unmodified musl: stdio locking takes the atomic CAS always *)
  | Multiversed  (** threads_minus_1 multiversed, locks are variation points *)

val source : build -> string

type bench = Random | Malloc0 | Malloc1 | Fputc

val bench_name : bench -> string
val loop_fn : bench -> string
val all_benches : bench list

(** Build, set [threads_minus_1], and commit (for [Multiversed]). *)
val prepare : build -> threads:int -> Harness.session

(** Mean cycles per libc call. *)
val measure :
  ?samples:int -> ?calls:int -> build -> bench -> threads:int -> Harness.measurement

(** Accumulated milliseconds for [invocations] calls (the paper reports
    10 million). *)
val to_ms_for : Harness.measurement -> invocations:int -> float

(** fputc output bandwidth in MiB/s (paper: 124 -> 264 MiB/s). *)
val fputc_bandwidth : Harness.measurement -> float

(** Branches executed per call (paper: -40% for malloc(1)). *)
val branches_per_call : build -> bench -> threads:int -> float
