(** Deterministic pseudo-random stream for the fuzzer (splitmix64).

    Every generated artifact — program, schedule, shrink order — is a pure
    function of the integer seed, independent of [Stdlib.Random] state and
    of the qcheck version, so a CI failure replays byte-for-byte from its
    seed alone ([mvfuzz --seed N --replay]). *)

type t

(** A fresh stream.  Equal seeds yield equal streams. *)
val create : int -> t

(** A derived, independent stream ([label] separates the sub-streams of
    one seed, e.g. program vs schedule generation). *)
val split : t -> int -> t

(** Uniform in [\[0, bound)]; [bound >= 1]. *)
val int : t -> int -> int

(** Uniform in [\[lo, hi\]] (inclusive). *)
val range : t -> int -> int -> int

(** Fair coin. *)
val bool : t -> bool

(** [chance t num den] is true with probability [num/den]. *)
val chance : t -> int -> int -> bool

(** Uniform element of a non-empty list. *)
val choose : t -> 'a list -> 'a

(** Weighted element of a non-empty [(weight, value)] list; weights are
    positive ints. *)
val weighted : t -> (int * 'a) list -> 'a

(** [sample t k xs] is [k] distinct elements (or all of [xs] when shorter),
    in stream order. *)
val sample : t -> int -> 'a list -> 'a list

