(** Reproducer corpus: JSON files ([mv-fuzz-repro/1]) that pin a
    divergence byte-for-byte — source text, driver arguments, switch
    assignments, schedule, and the oracle that caught it — so a CI
    failure replays anywhere with [mvfuzz --check-corpus]. *)

type entry = {
  e_seed : int;
  e_oracle : string;
  e_detail : string;  (** divergence detail at save time (informational) *)
  e_src : string;
  e_args : int list;
  e_assignments : Gen.assignment list;
  e_schedule : Schedule.t;
}

(** The persistable entry for a shrunk divergence. *)
val of_shrunk : Shrink.result -> entry

(** Rebuild the runnable case ([Gen.case_of_source]; raises front-end
    exceptions if the stored source no longer parses). *)
val to_case : entry -> Gen.case

(** On-disk (de)serialization.  [of_json] reports a malformed entry
    instead of raising: a member that is present but does not decode — a
    non-integer argument, an assignment or a schedule op it cannot read
    — is an error naming the member.  A missing [args], [assignments] or
    [schedule] keeps its default: [[1]], none, and the empty schedule. *)
val to_json : entry -> Mv_obs.Json.t

val of_json : Mv_obs.Json.t -> (entry, string) result

(** Write the entry to [dir] (created if missing) as
    [repro-seed<N>-<oracle>.json]; returns the path. *)
val save : dir:string -> entry -> string

(** Parse one reproducer file.  The error does not repeat the path,
    which {!load_dir} pairs with it. *)
val load_file : string -> (entry, string) result

(** All [*.json] entries of a directory, sorted by filename; parse
    failures are reported per file. *)
val load_dir : string -> (string * (entry, string) result) list

(** A ready-to-paste Alcotest test case asserting the oracle passes —
    the import path into [test_diff_battery.ml] described in
    EXPERIMENTS.md E15. *)
val ocaml_snippet : entry -> string
