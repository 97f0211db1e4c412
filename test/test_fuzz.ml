(* The differential fuzzing subsystem (lib/fuzz) itself.

   Deterministic generation, a clean oracle sweep, the chaos modes
   (provoked icache-flush bugs must be caught AND shrink to a small
   reproducer), corpus round-trips, and a fuzz-derived regression: under
   randomized commit/revert schedules every drained pending set reports
   [Pending_drained] exactly once. *)

open Util
module Gen = Mv_fuzz.Gen
module Schedule = Mv_fuzz.Schedule
module Oracle = Mv_fuzz.Oracle
module Shrink = Mv_fuzz.Shrink
module Corpus = Mv_fuzz.Corpus
module Driver = Mv_fuzz.Driver
module Runtime = Core.Runtime
module Trace = Mv_obs.Trace

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case seed and b = Gen.case seed in
      check_string (Printf.sprintf "seed %d source" seed) a.Gen.c_src b.Gen.c_src;
      check_bool
        (Printf.sprintf "seed %d assignments" seed)
        true
        (a.Gen.c_assignments = b.Gen.c_assignments);
      check_bool
        (Printf.sprintf "seed %d schedule" seed)
        true
        (Driver.schedule_for a seed = Driver.schedule_for b seed))
    [ 1; 7; 42 ]

let test_generator_surface () =
  (* across a window of seeds the generator must exercise the whole
     language surface the fuzzer claims to cover *)
  let srcs =
    String.concat "\n" (List.init 40 (fun i -> (Gen.case (100 + i)).Gen.c_src))
  in
  let contains needle =
    let n = String.length needle and m = String.length srcs in
    let rec go i = i + n <= m && (String.sub srcs i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      check_bool (needle ^ " appears in generated programs") true (contains needle))
    [
      "multiverse";
      "values(";
      "bind(";
      "noinline";
      "saveall";
      "enum";
      "for (";
      "while";
      "switch (";
      "driver";
      "*";
      "&";
    ]

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let test_oracle_sweep_clean () =
  let summary =
    Driver.run ~cfg:Gen.small_cfg ~seed:1 ~iters:15 ()
  in
  check_int "cases tested" 15 summary.Driver.s_tested;
  check_int "no divergences on the real pipeline" 0
    (List.length summary.Driver.s_reports)

let test_chaos_is_caught_and_shrunk () =
  (* skipping the icache flush must be detected and must shrink small *)
  let summary =
    Driver.run ~chaos:Oracle.Skip_flush ~seed:1 ~iters:10 ~shrink_budget:400 ()
  in
  match summary.Driver.s_reports with
  | [] -> Alcotest.fail "skip-flush chaos was not detected"
  | r :: _ ->
      let shrunk = r.Driver.rp_shrunk.Shrink.sh_case in
      let lines = List.length (String.split_on_char '\n' shrunk.Gen.c_src) in
      check_bool
        (Printf.sprintf "reproducer is small (%d lines)" lines)
        true (lines < 30);
      (* the shrunk case still diverges under chaos... *)
      check_bool "shrunk case still diverges under chaos" true
        (Oracle.run_named ~chaos:Oracle.Skip_flush
           r.Driver.rp_entry.Corpus.e_oracle shrunk
           r.Driver.rp_shrunk.Shrink.sh_sched
        <> None);
      (* ...and is clean on the real pipeline (the bug was injected) *)
      check_bool "shrunk case is clean without chaos" true
        (Oracle.run_named r.Driver.rp_entry.Corpus.e_oracle shrunk
           r.Driver.rp_shrunk.Shrink.sh_sched
        = None)

let test_lost_flush_is_caught () =
  let summary =
    Driver.run ~chaos:Oracle.Lost_flush ~seed:1 ~iters:30 ~shrink_budget:0 ()
  in
  check_bool "lost-flush chaos detected" true (summary.Driver.s_reports <> [])

(* The multi-hart oracle: every generated case, run with the driver on
   hart 0 and a patched-under-load worker on the last hart, must behave
   identically under two seeded 2-hart interleavings and the 1-hart
   container. *)
let test_smp_oracle_clean () =
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      match Oracle.run_named "smp-schedule-equiv" case sched with
      | None -> ()
      | Some d ->
          Alcotest.failf "seed %d: %a" seed Oracle.pp_divergence d)
    [ 1; 7; 42 ]

(* A chaos mode that bites one oracle: on [Gen.small_cfg] seeds 1 and 7
   that oracle diverges under it, with a detail naming [blame], and is
   clean on the same case without it; and because the other oracles
   ignore the mode, a 5-case driver sweep under it reports divergences
   and blames only that oracle. *)
let chaos_is_caught_by chaos oracle ~blame =
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      match Oracle.run_named ~chaos oracle case sched with
      | None -> Alcotest.failf "seed %d: chaos was not detected by %s" seed oracle
      | Some d ->
          check_string "caught by its oracle" oracle d.Oracle.d_oracle;
          check_bool
            (Printf.sprintf "divergence names %S (%s)" blame d.Oracle.d_detail)
            true
            (string_contains d.Oracle.d_detail blame);
          check_bool "same case is clean without chaos" true
            (Oracle.run_named oracle case sched = None))
    [ 1; 7 ];
  let summary =
    Driver.run ~cfg:Gen.small_cfg ~chaos ~seed:1 ~iters:5 ~shrink_budget:0 ()
  in
  check_bool "driver sweep under chaos detects divergences" true
    (summary.Driver.s_reports <> []);
  List.iter
    (fun r -> check_string "every report names the oracle" oracle r.Driver.rp_entry.Corpus.e_oracle)
    summary.Driver.s_reports

(* A severed IPI channel (the victim hart is neither stopped by the
   rendezvous nor re-flushed) must be caught — by the smp oracle
   specifically, via its post-commit coherence probe — and the same
   cases must be clean when the channel is healthy. *)
let test_drop_ack_is_caught () =
  chaos_is_caught_by Oracle.Drop_ack "smp-schedule-equiv" ~blame:"stale"

(* A variant-cache eviction that forgets to invalidate the dedup table
   (so a later structural-hash hit links a freed-and-recycled block)
   must be caught — by the lazy oracle specifically, via its
   evict-and-recycle churn probe — and the same cases must be clean
   when the cache is healthy. *)
let test_stale_cache_is_caught () =
  chaos_is_caught_by Oracle.Stale_cache "lazy-eager-equiv" ~blame:"stale"

(* A frame map with one live-entry location bumped must be caught by the
   on-stack-replacement oracle: the transfer rebuilds the parked frame
   from the wrong register or spill slot. *)
let test_corrupt_framemap_is_caught () =
  chaos_is_caught_by Oracle.Corrupt_framemap "osr-state-equiv" ~blame:"transfer"

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  let case = Gen.case ~cfg:Gen.small_cfg 3 in
  let sched = Driver.schedule_for case 3 in
  let entry =
    {
      Corpus.e_seed = 3;
      e_oracle = "interp-vs-vm";
      e_detail = "synthetic entry for the round-trip test";
      e_src = case.Gen.c_src;
      e_args = case.Gen.c_args;
      e_assignments = case.Gen.c_assignments;
      e_schedule = sched;
    }
  in
  (* JSON round-trip preserves every field *)
  (match Corpus.of_json (Corpus.to_json entry) with
  | Error m -> Alcotest.failf "corpus decode failed: %s" m
  | Ok entry' ->
      check_bool "entry round-trips" true (entry' = entry));
  (* disk round-trip through save/load_dir *)
  let dir = Filename.temp_file "mvfuzz" "corpus" in
  Sys.remove dir;
  let path = Corpus.save ~dir entry in
  (match Corpus.load_file path with
  | Error m -> Alcotest.failf "corpus load failed: %s" m
  | Ok entry' -> check_bool "saved entry loads back equal" true (entry' = entry));
  (match Corpus.load_dir dir with
  | [ (_, Ok entry') ] ->
      check_bool "load_dir finds the entry" true (entry' = entry)
  | other -> Alcotest.failf "load_dir returned %d entries" (List.length other));
  (* the stored source rebuilds into a runnable case *)
  let rebuilt = Corpus.to_case entry in
  check_string "rebuilt source" case.Gen.c_src rebuilt.Gen.c_src;
  Sys.remove path;
  Sys.rmdir dir

let clean_entry () =
  let case = Gen.case ~cfg:Gen.small_cfg 4 in
  {
    Corpus.e_seed = 4;
    e_oracle = "commit-soundness";
    e_detail = "clean case: check_corpus must report it fixed";
    e_src = case.Gen.c_src;
    e_args = case.Gen.c_args;
    e_assignments = case.Gen.c_assignments;
    e_schedule = [];
  }

(* Save [entries], and write each [(file, text)] of [raw] verbatim, into
   a fresh directory and check it. *)
let check_corpus_of ?log ?(raw = []) entries =
  let dir = Filename.temp_file "mvfuzz" "corpus2" in
  Sys.remove dir;
  let paths = List.map (Corpus.save ~dir) entries in
  let raw_paths =
    List.map
      (fun (file, text) ->
        let path = Filename.concat dir file in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        path)
      raw
  in
  let summary = Driver.check_corpus ?log ~dir () in
  List.iter Sys.remove (paths @ raw_paths);
  Sys.rmdir dir;
  summary

let test_corpus_check_clean () =
  let summary = check_corpus_of [ clean_entry () ] in
  check_int "one entry checked" 1 summary.Driver.s_tested;
  check_int "clean entry passes" 0 (List.length summary.Driver.s_reports)

(* A reproducer naming no known oracle, and a file holding a malformed
   number, are each logged as unreadable, and the entry beside them is
   still checked. *)
let test_corpus_unknown_oracle_skipped () =
  let entry = clean_entry () in
  let log = ref [] in
  let summary =
    check_corpus_of
      ~log:(fun m -> log := m :: !log)
      ~raw:[ ("malformed-number.json", {|{"seed": 1e}|}) ]
      [ entry; { entry with Corpus.e_oracle = "no-such-oracle" } ]
  in
  let logged_unreadable what =
    List.exists (fun m -> string_contains m what && string_contains m "unreadable") !log
  in
  check_int "only the known oracle's entry checked" 1 summary.Driver.s_tested;
  check_int "and it passes" 0 (List.length summary.Driver.s_reports);
  check_bool "the other is logged unreadable" true (logged_unreadable "no-such-oracle");
  check_bool "the malformed number is logged unreadable" true
    (logged_unreadable "malformed-number.json")

(* ------------------------------------------------------------------ *)
(* Fuzz-derived regression: Pending_drained is exactly-once            *)
(* ------------------------------------------------------------------ *)

(* Replays the subject side of the schedule-equiv oracle with a trace
   ring attached: mid-run safe commits/reverts journal pending sets when
   frames are live, and every set that drains must report Pending_drained
   exactly once — a set that drained twice would double-apply patches. *)
let drained_pset_ids case (sched : Schedule.t) : int list =
  let s = session case.Gen.c_src in
  let ring = Trace.ring ~clock:(fun () -> 0.0) () in
  Runtime.set_tracer s.Harness.runtime (Some (Trace.sink ring));
  ignore (Oracle.run_rounds ~subject:true case s sched);
  List.filter_map
    (fun (st : Trace.stamped) ->
      match st.Trace.ev with
      | Trace.Pending_drained { pset; _ } -> Some pset
      | _ -> None)
    (Trace.events ring)

let test_pending_drained_exactly_once () =
  let total = ref 0 in
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      let drained = drained_pset_ids case sched in
      total := !total + List.length drained;
      check_bool
        (Printf.sprintf "seed %d: every drained set reported exactly once" seed)
        true
        (List.length (List.sort_uniq compare drained) = List.length drained))
    (List.init 25 (fun i -> i + 1));
  (* the property is vacuous unless some schedule actually drains *)
  check_bool "at least one pending set drained across the sweep" true (!total > 0)

let suite =
  [
    tc "generator is deterministic" test_generator_deterministic;
    tc "generator covers the language surface" test_generator_surface;
    tc "oracle sweep over seeds is clean" test_oracle_sweep_clean;
    tc_slow "skip-flush chaos is caught and shrinks small" test_chaos_is_caught_and_shrunk;
    tc_slow "lost-flush chaos is caught" test_lost_flush_is_caught;
    tc "smp oracle is clean on the real pipeline" test_smp_oracle_clean;
    tc_slow "drop-ack chaos is caught by the smp oracle" test_drop_ack_is_caught;
    tc_slow "stale-cache chaos is caught by the lazy oracle" test_stale_cache_is_caught;
    tc_slow "corrupt-framemap chaos is caught by the osr oracle"
      test_corrupt_framemap_is_caught;
    tc "corpus entries round-trip (json, disk)" test_corpus_roundtrip;
    tc "check_corpus passes on a clean entry" test_corpus_check_clean;
    tc "check_corpus skips an entry naming an unknown oracle"
      test_corpus_unknown_oracle_skipped;
    tc_slow "Pending_drained fires exactly once per drained set"
      test_pending_drained_exactly_once;
  ]
