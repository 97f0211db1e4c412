(** A minimal JSON tree: enough to emit the observability exports (Chrome
    traces, metrics snapshots, bench rows) and to parse them back in tests,
    with no external dependency.

    Numbers are split into [Int] and [Float] so counters survive a
    round-trip exactly.  Floats are written with 12 significant digits,
    exact for simulated cycle counts but not for every float; non-finite
    floats serialize as [null] to keep the output standard-compliant. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Serialize compactly (no insignificant whitespace), with full string
    escaping.  Non-finite floats become [null]. *)
val to_string : t -> string

(** Serialize with two-space indentation — the form written to files so
    diffs of committed exports stay readable. *)
val to_string_pretty : t -> string

(** Parse a JSON document.  Accepts exactly what {!to_string} and
    {!to_string_pretty} produce plus ordinary standard JSON; returns
    [Error msg] with a byte offset on malformed input, and never raises.
    Numbers follow JSON's grammar,
    [-? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?], so [1.],
    [.5], [01] and [1e] are errors.  One with a fraction or an exponent,
    or an integer outside OCaml's [int] range, is a [Float]; any other
    an [Int]. *)
val parse : string -> (t, string) result

(** [member key json] is the value bound to [key] when [json] is an
    object that has it. *)
val member : string -> t -> t option

(** Render for debugging (same text as {!to_string_pretty}). *)
val pp : Format.formatter -> t -> unit
