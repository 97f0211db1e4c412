(* Observability tests: the trace ring (ordering, overflow, sequence
   numbers), the hook wiring end to end (commit spans, site events,
   exactly-once drain reporting under safe commit), the JSON exporters
   (parse-back of the Chrome trace and the metrics snapshot), the
   sampling profiler, the derived perf metrics, and the pay-for-use
   invariant: with no sink installed the simulated cycle counts are
   bit-for-bit identical. *)

open Util
module H = Mv_workloads.Harness
module Trace = Mv_obs.Trace
module Json = Mv_obs.Json
module Export = Mv_obs.Export
module Runtime = Core.Runtime
module Machine = Mv_vm.Machine
module Perf = Mv_vm.Perf

let check_float = Alcotest.(check (float 1e-9))

let spin_src =
  {|
  multiverse int config_smp;
  int word;
  multiverse void spin_lock() {
    if (config_smp) { word = word + 1; }
  }
  void bench_loop(int n) {
    for (int i = 0; i < n; i = i + 1) { spin_lock(); }
  }
|}

(* ------------------------------------------------------------------ *)
(* Ring semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_order_and_seq () =
  let clock = ref 0.0 in
  let ring = Trace.ring ~capacity:16 ~clock:(fun () -> !clock) () in
  for i = 1 to 5 do
    clock := float_of_int i;
    Trace.record ring (Trace.Fallback { fn = Printf.sprintf "f%d" i })
  done;
  let evs = Trace.events ring in
  check_int "all recorded" 5 (List.length evs);
  check_int "recorded counter" 5 (Trace.recorded ring);
  check_int "none dropped" 0 (Trace.dropped ring);
  List.iteri
    (fun i (st : Trace.stamped) ->
      check_int "seq is dense from 0" i st.Trace.seq;
      check_float "ts preserved" (float_of_int (i + 1)) st.Trace.ts;
      match st.Trace.ev with
      | Trace.Fallback { fn } -> check_string "oldest first" (Printf.sprintf "f%d" (i + 1)) fn
      | _ -> Alcotest.fail "unexpected event")
    evs

let test_ring_overflow_keeps_newest () =
  let clock = ref 0.0 in
  let ring = Trace.ring ~capacity:4 ~clock:(fun () -> clock := !clock +. 1.0; !clock) () in
  for i = 1 to 10 do
    Trace.record ring (Trace.Fallback { fn = string_of_int i })
  done;
  check_int "capacity bounds the window" 4 (List.length (Trace.events ring));
  check_int "recorded counts everything" 10 (Trace.recorded ring);
  check_int "overflow counted" 6 (Trace.dropped ring);
  let names =
    List.map
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with Trace.Fallback { fn } -> fn | _ -> "?")
      (Trace.events ring)
  in
  Alcotest.(check (list string)) "newest window survives" [ "7"; "8"; "9"; "10" ] names;
  (* seq numbers reveal the gap *)
  let first = List.hd (Trace.events ring) in
  check_int "first surviving seq" 6 first.Trace.seq;
  List.iteri
    (fun i (st : Trace.stamped) ->
      check_float "ts is the record-time clock" (float_of_int (7 + i)) st.Trace.ts)
    (Trace.events ring)

(* ------------------------------------------------------------------ *)
(* Hook wiring: commit spans and site events                           *)
(* ------------------------------------------------------------------ *)

let names_of s = List.map (fun (st : Trace.stamped) -> Trace.event_name st.Trace.ev) s

let test_commit_span_and_site_events () =
  let s = H.session1 spin_src in
  H.enable_tracing s;
  H.set s "config_smp" 1;
  check_int "one function bound" 1 (H.commit s);
  let evs = H.trace_events s in
  let names = names_of evs in
  check_bool "has commit_begin" true (List.mem "commit_begin" names);
  check_bool "has commit_end" true (List.mem "commit_end" names);
  check_bool "has variant_selected" true (List.mem "variant_selected" names);
  check_bool "has site_retargeted or site_inlined" true
    (List.mem "site_retargeted" names || List.mem "site_inlined" names);
  check_bool "has prologue_patched" true (List.mem "prologue_patched" names);
  check_bool "has icache_flush" true (List.mem "icache_flush" names);
  (* the span brackets everything: begin is first, end is last *)
  check_string "span opens the log" "commit_begin" (List.hd names);
  check_string "span closes the log" "commit_end" (List.nth names (List.length names - 1));
  (* begin carries the switch values at decision time *)
  (match (List.hd evs).Trace.ev with
  | Trace.Commit_begin { op; switches; _ } ->
      check_string "op tag" "commit" op;
      check_int "switch value recorded" 1 (List.assoc "config_smp" switches)
  | _ -> Alcotest.fail "expected Commit_begin first");
  (* end carries the return value *)
  match (List.nth evs (List.length evs - 1)).Trace.ev with
  | Trace.Commit_end { op; bound; _ } ->
      check_string "matching op tag" "commit" op;
      check_int "bound count" 1 bound
  | _ -> Alcotest.fail "expected Commit_end last"

let test_fallback_event () =
  (* values(0,1) with the switch out of range: no variant matches *)
  let s =
    H.session1
      {|
      multiverse values(0,1) int m;
      int w;
      multiverse void f() { if (m) { w = 1; } }
      void d() { f(); }
    |}
  in
  H.enable_tracing s;
  H.set s "m" 7;
  ignore (H.commit s);
  check_bool "fallback reported" true (List.mem "fallback" (names_of (H.trace_events s)))

let test_revert_span () =
  let s = H.session1 spin_src in
  H.set s "config_smp" 0;
  ignore (H.commit s);
  H.enable_tracing s;
  ignore (H.revert s);
  let names = names_of (H.trace_events s) in
  check_string "revert span opens" "commit_begin" (List.hd names);
  match (List.hd (H.trace_events s)).Trace.ev with
  | Trace.Commit_begin { op; _ } -> check_string "op is revert" "revert" op
  | _ -> Alcotest.fail "expected Commit_begin"

(* ------------------------------------------------------------------ *)
(* Safe commit: defer + exactly-once drain reporting                   *)
(* ------------------------------------------------------------------ *)

let defer_src =
  {|
  multiverse bool m;
  int w;
  multiverse void f() { if (m) { w = w + 100; } }
  void spacer() { w = w + 1; }
  int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
|}

let park s fn =
  let img = s.H.program.Core.Compiler.p_image in
  let addr = Mv_link.Image.symbol img fn in
  let guard = ref 1_000_000 in
  while s.H.machine.Machine.pc <> addr && !guard > 0 do
    decr guard;
    ignore (Machine.step s.H.machine)
  done;
  check_bool ("parked at " ^ fn) true (s.H.machine.Machine.pc = addr)

let test_safe_commit_defer_drain_exactly_once () =
  let s = H.session1 defer_src in
  H.enable_safe_commit s;
  H.enable_tracing s;
  H.set s "m" 1;
  Machine.start_call s.H.machine "driver" [];
  park s "f";
  check_int "live function deferred" 0 (H.commit_safe s);
  let names = names_of (H.trace_events s) in
  check_bool "safe_defer reported" true (List.mem "safe_defer" names);
  check_bool "not yet drained" false (List.mem "pending_drained" names);
  (* first f(): still generic, reads m=1, adds 100; the set drains at a
     quiescent safepoint after f returns; second f(): the m=1 variant *)
  check_int "driver result" 202 (Machine.finish s.H.machine);
  let names = names_of (H.trace_events s) in
  let count tag = List.length (List.filter (( = ) tag) names) in
  check_int "drained exactly once" 1 (count "pending_drained");
  check_bool "polls with a non-empty journal reported" true (count "safepoint_poll" >= 1);
  (match
     List.find_map
       (fun (st : Trace.stamped) ->
         match st.Trace.ev with
         | Trace.Pending_drained { actions; _ } -> Some actions
         | _ -> None)
       (H.trace_events s)
   with
  | Some actions -> check_int "one action in the set" 1 actions
  | None -> Alcotest.fail "no Pending_drained event");
  (* a second full run drains nothing further *)
  ignore (H.call s "driver" []);
  check_int "still exactly once" 1
    (List.length
       (List.filter (( = ) "pending_drained") (names_of (H.trace_events s))))

let test_safe_deny_event () =
  let s = H.session1 defer_src in
  H.enable_safe_commit s;
  H.enable_tracing s;
  H.set s "m" 1;
  Machine.start_call s.H.machine "driver" [];
  park s "f";
  check_int "denied" 0 (H.commit_safe ~policy:Runtime.Deny s);
  check_bool "safe_deny reported" true
    (List.mem "safe_deny" (names_of (H.trace_events s)));
  ignore (Machine.finish s.H.machine)

(* ------------------------------------------------------------------ *)
(* Exporters: parse-back                                               *)
(* ------------------------------------------------------------------ *)

let parse_ok what str =
  match Json.parse str with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s does not parse: %s" what msg

let test_chrome_trace_parses_back () =
  let s = H.session1 spin_src in
  H.enable_tracing s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 5 ]);
  let doc = parse_ok "chrome trace" (H.trace_dump s) in
  match doc with
  | Json.List entries ->
      let phases =
        List.filter_map
          (fun e -> match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
          entries
      in
      check_int "every entry has a phase" (List.length entries) (List.length phases);
      let count p = List.length (List.filter (( = ) p) phases) in
      (* a single-hart stream announces exactly one lane *)
      check_int "one thread_name metadata entry" 1 (count "M");
      check_int "one entry per event plus lane metadata"
        (List.length (H.trace_events s) + count "M")
        (List.length entries);
      check_int "balanced B/E spans" (count "B") (count "E");
      check_bool "at least one span" true (count "B" >= 1);
      List.iter
        (fun e ->
          match (Json.member "name" e, Json.member "ts" e) with
          | Some (Json.String _), Some (Json.Int _ | Json.Float _) -> ()
          | _ -> Alcotest.fail "entry lacks name/ts")
        entries
  | _ -> Alcotest.fail "chrome trace must be a JSON array"

let test_metrics_json_parses_back () =
  let s = H.session1 spin_src in
  H.enable_tracing s;
  H.enable_stack_profiling s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 50 ]);
  let doc = parse_ok "metrics" (Json.to_string_pretty (H.metrics_json s)) in
  (match Json.member "schema" doc with
  | Some (Json.String v) -> check_string "schema tag" "mv-metrics/1" v
  | _ -> Alcotest.fail "missing schema");
  List.iter
    (fun key ->
      match Json.member key doc with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.failf "missing %s section" key)
    [ "runtime"; "perf"; "program"; "trace" ];
  (match Json.member "profile" doc with
  | Some (Json.List _) -> ()
  | _ -> Alcotest.fail "missing profile section");
  (* a couple of load-bearing leaves *)
  (match Option.bind (Json.member "perf" doc) (Json.member "instructions") with
  | Some (Json.Int n) -> check_bool "instructions counted" true (n > 0)
  | _ -> Alcotest.fail "perf.instructions missing");
  match Option.bind (Json.member "runtime" doc) (Json.member "patches") with
  | Some (Json.Int n) -> check_bool "patches counted" true (n > 0)
  | _ -> Alcotest.fail "runtime.patches missing"

let test_chrome_trace_deep_nesting_parses_back () =
  (* deeply nested same-op spans must still produce balanced, parseable
     B/E pairs — the pairing logic has no depth assumptions *)
  let clock = ref 0.0 in
  let ring = Trace.ring ~capacity:64 ~clock:(fun () -> !clock) () in
  let depth = 8 in
  for i = 1 to depth do
    clock := float_of_int i;
    Trace.record ring (Trace.Commit_begin { cid = 0; op = "commit"; switches = [] })
  done;
  for i = 1 to depth do
    clock := float_of_int (depth + i);
    Trace.record ring (Trace.Commit_end { cid = 0; op = "commit"; bound = i })
  done;
  let doc = parse_ok "nested chrome trace" (Export.chrome_trace_string (Trace.events ring)) in
  match doc with
  | Json.List entries ->
      let phase e =
        match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?"
      in
      let count p = List.length (List.filter (fun e -> phase e = p) entries) in
      check_int "one entry per event plus lane metadata"
        ((2 * depth) + count "M")
        (List.length entries);
      check_int "depth B entries" depth (count "B");
      check_int "balanced E entries" depth (count "E")
  | _ -> Alcotest.fail "chrome trace must be a JSON array"

let test_json_roundtrip_and_escapes () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te\x01f");
        ("l", Json.List [ Json.Int (-3); Json.Float 1.5; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("empty_l", Json.List []); ("empty_o", Json.Obj []) ]);
      ]
  in
  check_bool "compact roundtrip" true (Json.parse (Json.to_string doc) = Ok doc);
  check_bool "pretty roundtrip" true (Json.parse (Json.to_string_pretty doc) = Ok doc);
  check_bool "non-finite floats become null" true
    (Json.to_string (Json.Float nan) = "null" && Json.to_string (Json.Float infinity) = "null")

let test_json_nonfinite_total_roundtrip () =
  (* emission is total: any tree containing non-finite floats serializes
     (non-finite leaves degrade to null) and the output parses back to
     the same tree with those leaves replaced by Null — at any depth *)
  let doc =
    Json.Obj
      [
        ("nan", Json.Float nan);
        ("inf", Json.Float infinity);
        ("ninf", Json.Float neg_infinity);
        ("fine", Json.Float 2.5);
        ( "nested",
          Json.List
            [ Json.Obj [ ("deep", Json.List [ Json.Float nan; Json.Int 7 ]) ] ] );
      ]
  in
  let expected =
    Json.Obj
      [
        ("nan", Json.Null);
        ("inf", Json.Null);
        ("ninf", Json.Null);
        ("fine", Json.Float 2.5);
        ("nested", Json.List [ Json.Obj [ ("deep", Json.List [ Json.Null; Json.Int 7 ]) ] ]);
      ]
  in
  check_bool "compact emission parses back with nulls" true
    (Json.parse (Json.to_string doc) = Ok expected);
  check_bool "pretty emission parses back with nulls" true
    (Json.parse (Json.to_string_pretty doc) = Ok expected)

(* ------------------------------------------------------------------ *)
(* Pay-for-use: identical cycles with and without sinks                *)
(* ------------------------------------------------------------------ *)

(* Every observer is host-side.  Against a session whose sink chain is
   detached — no sink at all, the always-on ring included — the
   simulated clock must not move by even one cycle when the tracer, the
   sampler and the metrics bridge are armed (the ring alone and code
   heat are pinned the same way in test_causal.ml and test_heat.ml).
   They are armed before the commit, whose icache flushes are events
   every hart emits. *)
let test_zero_overhead_without_and_with_sinks () =
  let run arm =
    let s = H.session1 spin_src in
    arm s;
    H.set s "config_smp" 1;
    ignore (H.commit s);
    ignore (H.call s "bench_loop" [ 200 ]);
    (Perf.cycles s.H.machine.Machine.perf, Trace.recorded s.H.ring)
  in
  let bare, bare_recorded = run detach_sinks in
  check_int "the detached session records nothing" 0 bare_recorded;
  let cycles, recorded =
    run (fun s ->
        H.enable_tracing s;
        H.enable_stack_profiling s;
        H.enable_metrics s)
  in
  check_bool "the ring recorded the run" true (recorded > 0);
  check_float "bit-identical cycle counts" bare cycles

(* ------------------------------------------------------------------ *)
(* Profiler: the stack profiler's per-leaf view                        *)
(* ------------------------------------------------------------------ *)

module Stackprof = Mv_obs.Stackprof

let leaves s = Stackprof.leaves (Array.to_list s.H.stackprofs)

let test_profiler_attributes_variants () =
  let s = H.session1 spin_src in
  H.set s "config_smp" 1;
  ignore (H.commit s);
  H.enable_stack_profiling ~interval:1 s;
  ignore (H.call s "bench_loop" [ 100 ]);
  let rows = leaves s in
  check_bool "rows reported" true (rows <> []);
  let shares = List.fold_left (fun acc r -> acc +. r.Stackprof.l_share) 0.0 rows in
  check_bool "shares sum to 1" true (abs_float (shares -. 1.0) < 1e-6);
  check_bool "hottest first" true
    (rows = List.sort (fun a b -> compare b.Stackprof.l_cycles a.Stackprof.l_cycles) rows);
  (* config_smp=1 keeps the generic body (the variant is the atomic path
     installed over the call sites or behind the prologue): either way the
     loop body shows up, and some row must be variant-classified code when
     the prologue jump routes through a variant symbol *)
  check_bool "bench loop attributed" true
    (List.exists (fun r -> r.Stackprof.l_name = "bench_loop") rows)

let test_profiler_interval_thins_samples () =
  let samples_at interval =
    let s = H.session1 spin_src in
    H.enable_stack_profiling ~interval s;
    ignore (H.call s "bench_loop" [ 100 ]);
    List.fold_left (fun acc r -> acc + r.Stackprof.l_samples) 0 (leaves s)
  in
  let dense = samples_at 1 in
  let sparse = samples_at 50 in
  check_bool "denser interval, more samples" true (dense > sparse);
  check_bool "sparse still samples" true (sparse > 0)

let test_profile_empty_report () =
  (* zero samples: no rows, no NaN, and pp renders without raising *)
  let sp =
    Stackprof.create
      ~resolve:(fun _ -> None)
      ~frames:(fun () -> [])
      ~now:(fun () -> 0.0)
      ()
  in
  check_int "no samples" 0 (Stackprof.samples sp);
  check_bool "empty report" true (Stackprof.leaves [ sp ] = []);
  let rendered = Format.asprintf "%a" (fun fmt -> Stackprof.pp_leaves fmt) [ sp ] in
  check_bool "pp total" true (String.length rendered > 0);
  check_bool "no NaN in rendering" false
    (let lower = String.lowercase_ascii rendered in
     let needle = "nan" in
     let n = String.length lower and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub lower i m = needle || scan (i + 1)) in
     scan 0)

(* The flat pc-sampling profiler this view replaced reported exactly these
   rows for the spinlock kernel's bench_loop (200 calls, interval 97,
   sampling armed after the commit).  Both sample on the same countdown
   and clock and the leaf of every stack is the pc's symbol, so folding
   the stacks by leaf must reproduce them: names, samples, cycles,
   shares and variant flags. *)
let test_leaf_view_reproduces_flat_profile () =
  let rows_at smp =
    let s = H.session1 (Mv_workloads.Spinlock.source Mv_workloads.Spinlock.Multiverse) in
    H.set s "config_smp" smp;
    ignore (H.commit s);
    H.enable_stack_profiling s;
    ignore (H.call s "bench_loop" [ 200 ]);
    List.map
      (fun r ->
        Stackprof.(r.l_name, r.l_samples, r.l_cycles, r.l_share, r.l_variant))
      (leaves s)
  in
  let pinned =
    [
      (0, [ ("bench_loop", 28, 0x1.7d4a3d70a3c82p+10, 0x1p+0, false) ]);
      ( 1,
        [
          ("spin_irq_lock.config_smp=1", 15, 0x1.52d000000009fp+11,
           0x1.acf10888a2765p-2, true);
          ("bench_loop", 12, 0x1.1ad33333333abp+11, 0x1.660f803222586p-2, false);
          ("spin_irq_unlock.config_smp=1", 8, 0x1.7666666666724p+10,
           0x1.d9feee8a7662bp-3, true);
        ] );
    ]
  in
  List.iter
    (fun (smp, want) ->
      check_bool
        (Printf.sprintf "config_smp=%d rows match the flat profiler" smp)
        true
        (rows_at smp = want))
    pinned

(* ------------------------------------------------------------------ *)
(* Stack profiler                                                      *)
(* ------------------------------------------------------------------ *)

let nested_src =
  {|
  int w;
  void leaf(int n) {
    for (int i = 0; i < n; i = i + 1) { w = w + 1; }
  }
  void mid(int n) { leaf(n); }
  void outer(int n) { mid(n); }
  int top(int n) { outer(n); return w; }
|}

let test_stackprof_records_nested_stacks () =
  let s = H.session1 nested_src in
  H.enable_stack_profiling ~interval:1 s;
  ignore (H.call s "top" [ 50 ]);
  let rows = H.stack_report s in
  check_bool "rows reported" true (rows <> []);
  check_bool "hottest first" true
    (rows = List.sort (fun a b -> compare b.Stackprof.s_cycles a.Stackprof.s_cycles) rows);
  let shares = List.fold_left (fun acc r -> acc +. r.Stackprof.s_share) 0.0 rows in
  check_bool "shares sum to 1" true (abs_float (shares -. 1.0) < 1e-6);
  (* the loop body's samples carry the full ancestry, outermost first *)
  check_bool "full call chain recorded" true
    (List.exists
       (fun r -> r.Stackprof.s_stack = [ "top"; "outer"; "mid"; "leaf" ])
       rows)

let test_stackprof_folded_line_format () =
  let s = H.session1 nested_src in
  H.enable_stack_profiling ~interval:1 s;
  ignore (H.call s "top" [ 50 ]);
  let folded = H.folded_dump s in
  check_bool "non-empty dump" true (String.length folded > 0);
  check_bool "newline-terminated" true (folded.[String.length folded - 1] = '\n');
  let lines = String.split_on_char '\n' (String.sub folded 0 (String.length folded - 1)) in
  check_bool "sorted lines" true (lines = List.sort compare lines);
  List.iter
    (fun line ->
      (* every line is `frame;frame;... count`: a positive decimal count
         after the last space, and non-empty ;-separated frames before it *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no count separator in %S" line
      | Some i ->
          let stack = String.sub line 0 i in
          let count = String.sub line (i + 1) (String.length line - i - 1) in
          (match int_of_string_opt count with
          | Some n -> check_bool ("positive count in " ^ line) true (n > 0)
          | None -> Alcotest.failf "count is not an integer in %S" line);
          check_bool ("no spaces in frames of " ^ line) false (String.contains stack ' ');
          List.iter
            (fun frame ->
              check_bool ("non-empty frame in " ^ line) true (frame <> ""))
            (String.split_on_char ';' stack))
    lines

let test_stackprof_distinguishes_variant_frames () =
  let s = H.session1 spin_src in
  H.set s "config_smp" 1;
  ignore (H.commit s);
  H.enable_stack_profiling ~interval:1 s;
  ignore (H.call s "bench_loop" [ 100 ]);
  let rows = H.stack_report s in
  (* the committed spin_lock body runs as its variant symbol, visible as
     a distinct frame under bench_loop and classified as variant *)
  check_bool "variant frame present" true
    (List.exists
       (fun r ->
         r.Stackprof.s_variant
         && List.exists
              (fun f -> f = "spin_lock.config_smp=1")
              r.Stackprof.s_stack)
       rows);
  check_bool "generic frames not classified as variant" true
    (List.exists (fun r -> not r.Stackprof.s_variant) rows);
  match s.H.stackprofs with
  | [| sp |] ->
      let share = Stackprof.variant_share sp in
      check_bool "variant share in (0,1]" true (share > 0.0 && share <= 1.0);
      check_bool "folded dump names the variant" true
        (let folded = Stackprof.folded sp in
         let needle = "spin_lock.config_smp=1" in
         let n = String.length folded and m = String.length needle in
         let rec scan i = i + m <= n && (String.sub folded i m = needle || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "expected one stack profiler (one hart)"

let test_stackprof_empty_report () =
  let sp =
    Stackprof.create
      ~resolve:(fun _ -> None)
      ~frames:(fun () -> [])
      ~now:(fun () -> 0.0)
      ()
  in
  check_int "no samples" 0 (Stackprof.samples sp);
  check_bool "empty report" true (Stackprof.report sp = []);
  check_string "empty folded dump" "" (Stackprof.folded sp);
  check_float "zero variant share, not NaN" 0.0 (Stackprof.variant_share sp)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Metrics = Mv_obs.Metrics

let test_metrics_registry_primitives () =
  let m = Metrics.create () in
  Metrics.inc m "c" [ ("a", "1"); ("b", "2") ];
  Metrics.inc ~by:4 m "c" [ ("b", "2"); ("a", "1") ];
  check_int "labels canonicalized" 5 (Metrics.counter_value m "c" [ ("b", "2"); ("a", "1") ]);
  check_int "distinct labels, distinct series" 0 (Metrics.counter_value m "c" [ ("a", "9") ]);
  Metrics.set_gauge m "g" [] 2.5;
  check_bool "gauge readable" true (Metrics.gauge_value m "g" [] = Some 2.5);
  Metrics.observe m "h" [] 10.0;
  Metrics.observe m "h" [] 30.0;
  (match Metrics.histogram_summary m "h" [] with
  | Some hs ->
      check_int "histogram count" 2 hs.Metrics.hs_count;
      check_float "histogram sum" 40.0 hs.Metrics.hs_sum;
      check_float "histogram mean" 20.0 hs.Metrics.hs_mean
  | None -> Alcotest.fail "histogram absent");
  (* one name, one kind *)
  check_bool "kind mismatch rejected" true
    (try
       Metrics.set_gauge m "c" [ ("a", "1"); ("b", "2") ] 0.0;
       false
     with Invalid_argument _ -> true);
  (* the export parses back with the schema tag *)
  match parse_ok "registry json" (Json.to_string_pretty (Metrics.to_json m)) with
  | Json.Obj _ as doc -> (
      match Json.member "schema" doc with
      | Some (Json.String v) -> check_string "registry schema" "mv-metrics-registry/1" v
      | _ -> Alcotest.fail "missing registry schema")
  | _ -> Alcotest.fail "registry export must be an object"

let test_metrics_trace_bridge_counts_commit () =
  let s = H.session1 spin_src in
  H.enable_tracing s;
  H.enable_metrics s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 20 ]);
  match H.metrics s with
  | None -> Alcotest.fail "metrics not armed"
  | Some m ->
      check_int "one commit" 1 (Metrics.counter_value m "mv_commits_total" [ ("op", "commit") ]);
      check_int "committed switch value recorded" 1
        (Metrics.counter_value m "mv_commit_switch_total"
           [ ("op", "commit"); ("switch", "config_smp"); ("value", "1") ]);
      check_int "variant install counted" 1
        (Metrics.counter_value m "mv_variant_installs_total"
           [ ("fn", "spin_lock"); ("variant", "spin_lock.config_smp=1") ]);
      check_bool "patch events counted" true
        (Metrics.counter_value m "mv_patches_total" [ ("kind", "site_retargeted") ]
         + Metrics.counter_value m "mv_patches_total" [ ("kind", "site_inlined") ]
         + Metrics.counter_value m "mv_patches_total" [ ("kind", "prologue_patched") ]
         > 0);
      (match Metrics.histogram_summary m "mv_patch_latency_cycles" [ ("op", "commit"); ("hart", "0") ] with
      | Some hs -> check_int "one commit latency observation" 1 hs.Metrics.hs_count
      | None -> Alcotest.fail "patch-latency histogram absent");
      (* the registry appears in the unified metrics snapshot *)
      let doc = parse_ok "snapshot" (Json.to_string_pretty (H.metrics_json s)) in
      (match Json.member "metrics" doc with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "snapshot lacks the registry section");
      (* ... with the runtime counters bridged as gauges *)
      check_bool "runtime counters bridged" true
        (Metrics.gauge_value m "mv_runtime_patches" [] <> None)

let test_metrics_safe_commit_outcomes () =
  let s = H.session1 defer_src in
  H.enable_safe_commit s;
  H.enable_tracing s;
  H.enable_metrics s;
  H.set s "m" 1;
  Machine.start_call s.H.machine "driver" [];
  park s "f";
  ignore (H.commit_safe s);
  ignore (Machine.finish s.H.machine);
  match H.metrics s with
  | None -> Alcotest.fail "metrics not armed"
  | Some m ->
      check_int "defer counted" 1
        (Metrics.counter_value m "mv_safe_total" [ ("outcome", "deferred") ]);
      check_int "drain counted" 1
        (Metrics.counter_value m "mv_safe_total" [ ("outcome", "drained") ]);
      (match Metrics.histogram_summary m "mv_safe_drain_latency_cycles" [ ("hart", "0") ] with
      | Some hs ->
          check_int "one drain latency observation" 1 hs.Metrics.hs_count;
          check_bool "cycles elapsed between defer and drain" true (hs.Metrics.hs_min > 0.0)
      | None -> Alcotest.fail "drain-latency histogram absent");
      check_bool "safepoint polls counted" true
        (Metrics.counter_value m "mv_safepoint_polls_total" [] >= 1)

(* A superseded set's defer is never paired with a later drain: parked
   in [f], commit_safe; three steps on, still inside [f], commit_safe
   again, superseding the first set; then finish.  The one drain-latency
   observation is the drain's timestamp minus the second defer's. *)
let test_metrics_drain_latency_pairs_by_cid () =
  let s = H.session1 defer_src in
  H.enable_safe_commit s;
  H.enable_tracing s;
  H.enable_metrics s;
  H.set s "m" 1;
  Machine.start_call s.H.machine "driver" [];
  park s "f";
  ignore (H.commit_safe s);
  for _ = 1 to 3 do
    ignore (Machine.step s.H.machine)
  done;
  ignore (H.commit_safe s);
  ignore (Machine.finish s.H.machine);
  let stamps p =
    List.filter_map
      (fun (st : Trace.stamped) -> if p st.Trace.ev then Some st.Trace.ts else None)
      (H.trace_events s)
  in
  let defers = stamps (function Trace.Safe_defer _ -> true | _ -> false) in
  let drains = stamps (function Trace.Pending_drained _ -> true | _ -> false) in
  match (defers, drains, H.metrics s) with
  | [ first; second ], [ drained ], Some m -> (
      check_bool "the second defer is later" true (second > first);
      match Metrics.histogram_summary m "mv_safe_drain_latency_cycles" [ ("hart", "0") ] with
      | Some hs ->
          check_int "one drain latency observation" 1 hs.Metrics.hs_count;
          check_float "measured from the second defer" (drained -. second) hs.Metrics.hs_sum
      | None -> Alcotest.fail "drain-latency histogram absent")
  | _ ->
      Alcotest.failf "expected two defers, one drain and metrics (%d defers, %d drains)"
        (List.length defers) (List.length drains)

(* ------------------------------------------------------------------ *)
(* Analyze: spans and the bench diff                                   *)
(* ------------------------------------------------------------------ *)

module Analyze = Mv_obs.Analyze

let test_analyze_span_stats () =
  let clock = ref 0.0 in
  let ring = Trace.ring ~capacity:64 ~clock:(fun () -> !clock) () in
  let span op t0 t1 =
    clock := t0;
    Trace.record ring (Trace.Commit_begin { cid = 0; op; switches = [] });
    clock := t1;
    Trace.record ring (Trace.Commit_end { cid = 0; op; bound = 0 })
  in
  span "commit" 0.0 10.0;
  span "commit" 20.0 50.0;
  span "revert" 60.0 64.0;
  (* an unmatched begin is dropped, not paired across ops *)
  clock := 70.0;
  Trace.record ring (Trace.Commit_begin { cid = 0; op = "commit"; switches = [] });
  let evs = Trace.events ring in
  let spans = Analyze.spans evs in
  check_int "three completed spans" 3 (List.length spans);
  match Analyze.span_stats evs with
  | [ ("commit", c); ("revert", r) ] ->
      check_int "two commit spans" 2 c.Analyze.d_count;
      check_float "commit mean" 20.0 c.Analyze.d_mean;
      check_float "commit min" 10.0 c.Analyze.d_min;
      check_float "commit max" 30.0 c.Analyze.d_max;
      check_int "one revert span" 1 r.Analyze.d_count;
      check_float "revert mean" 4.0 r.Analyze.d_mean
  | other -> Alcotest.failf "unexpected stats shape (%d ops)" (List.length other)

let bench_doc ?(label = "r") mean =
  Json.Obj
    [
      ("schema", Json.String "mv-bench-rows/1");
      ("fast", Json.Bool true);
      ( "experiments",
        Json.Obj
          [
            ( "e1",
              Json.List
                [
                  Json.Obj
                    [
                      ("label", Json.String label);
                      ( "cycles",
                        Json.Obj
                          [ ("mean", Json.Float mean); ("stddev", Json.Float 0.5) ] );
                      ("scalar", Json.Float 3.0);
                      ("commit_ms", Json.Float 99.0);
                    ];
                ] );
          ] );
    ]

let test_bench_diff_unchanged_tree_is_clean () =
  match Analyze.bench_diff ~base:(bench_doc 10.0) ~fresh:(bench_doc 10.0) () with
  | Error m -> Alcotest.failf "diff failed: %s" m
  | Ok deltas ->
      (* cycles.mean and scalar compared; commit_ms skipped by default *)
      check_int "two leaves compared" 2 (List.length deltas);
      check_bool "wall-clock fields skipped" false
        (List.exists (fun d -> d.Analyze.dl_field = "commit_ms") deltas);
      check_bool "no drift on an identical tree" true
        (List.for_all (fun d -> d.Analyze.dl_pct = 0.0) deltas);
      check_int "gate passes" 0 (List.length (Analyze.regressions ~threshold:5.0 deltas))

let test_bench_diff_catches_synthetic_regression () =
  match Analyze.bench_diff ~base:(bench_doc 10.0) ~fresh:(bench_doc 11.0) () with
  | Error m -> Alcotest.failf "diff failed: %s" m
  | Ok deltas -> (
      match Analyze.regressions ~threshold:5.0 deltas with
      | [ d ] ->
          check_string "experiment" "e1" d.Analyze.dl_exp;
          check_string "row" "r" d.Analyze.dl_label;
          check_string "field" "cycles.mean" d.Analyze.dl_field;
          check_bool "ten percent up" true (abs_float (d.Analyze.dl_pct -. 10.0) < 1e-9);
          (* a generous threshold lets it through; an improvement of the
             same size also trips the gate (stale-baseline detection) *)
          check_int "threshold above the drift passes" 0
            (List.length (Analyze.regressions ~threshold:15.0 deltas));
          (match Analyze.bench_diff ~base:(bench_doc 11.0) ~fresh:(bench_doc 10.0) () with
          | Ok d2 ->
              check_int "improvements gate too" 1
                (List.length (Analyze.regressions ~threshold:5.0 d2))
          | Error m -> Alcotest.failf "reverse diff failed: %s" m)
      | other -> Alcotest.failf "expected exactly one regression, got %d" (List.length other))

(* The gate's blind spot: a fresh document that silently drops a
   baseline row or field must fail, while one that never ran an
   experiment (an --only run) must pass. *)
let bench_doc_rows rows =
  Json.Obj
    [
      ("schema", Json.String "mv-bench-rows/1");
      ("experiments", Json.Obj [ ("e1", Json.List rows) ]);
    ]

let row label fields = Json.Obj (("label", Json.String label) :: fields)

let full_doc =
  bench_doc_rows
    [
      row "a" [ ("cycles", Json.Obj [ ("mean", Json.Float 10.0) ]); ("n", Json.Int 3) ];
      row "b" [ ("cycles", Json.Obj [ ("mean", Json.Float 20.0) ]); ("n", Json.Int 4) ];
    ]

let gate_of fresh =
  match Analyze.bench_diff ~base:full_doc ~fresh () with
  | Error m -> Alcotest.failf "diff failed: %s" m
  | Ok deltas -> (deltas, Analyze.regressions ~threshold:5.0 deltas)

let missing deltas =
  List.filter_map
    (fun d ->
      match d.Analyze.dl_fresh with
      | None -> Some (d.Analyze.dl_label ^ "." ^ d.Analyze.dl_field)
      | Some _ -> None)
    deltas

let test_bench_diff_dropped_row_fails () =
  let fresh =
    bench_doc_rows
      [ row "a" [ ("cycles", Json.Obj [ ("mean", Json.Float 10.0) ]); ("n", Json.Int 3) ] ]
  in
  let deltas, bad = gate_of fresh in
  check_bool "both leaves of the dropped row reported" true
    (missing deltas = [ "b.cycles.mean"; "b.n" ]);
  check_int "the gate fails on them" 2 (List.length bad);
  check_bool "the summary counts them" true
    (let out = Format.asprintf "%a" (Analyze.pp_deltas ~only_changed:true) deltas in
     let needle = "(2 comparisons, 0 changed, 2 missing)" in
     let n = String.length out and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub out i m = needle || scan (i + 1)) in
     scan 0)

let test_bench_diff_dropped_field_fails () =
  let fresh =
    bench_doc_rows
      [
        row "a" [ ("cycles", Json.Obj [ ("mean", Json.Float 10.0) ]); ("n", Json.Int 3) ];
        row "b" [ ("n", Json.Int 4) ];
      ]
  in
  let deltas, bad = gate_of fresh in
  check_bool "the dropped measurement reported" true (missing deltas = [ "b.cycles.mean" ]);
  match bad with
  | [ d ] -> check_string "the gate fails on it" "cycles.mean" d.Analyze.dl_field
  | _ -> Alcotest.failf "expected one gate failure, got %d" (List.length bad)

let test_bench_diff_only_run_passes () =
  let fresh =
    Json.Obj
      [
        ("schema", Json.String "mv-bench-rows/1");
        ("experiments", Json.Obj [ ("other", Json.List []) ]);
      ]
  in
  let deltas, bad = gate_of fresh in
  check_int "an experiment not run is skipped" 0 (List.length deltas);
  check_int "the gate passes" 0 (List.length bad)

let test_bench_diff_rejects_foreign_schema () =
  let bogus = Json.Obj [ ("schema", Json.String "something-else/9") ] in
  check_bool "foreign schema rejected" true
    (match Analyze.bench_diff ~base:bogus ~fresh:(bench_doc 1.0) () with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Derived perf metrics and measurement percentiles                    *)
(* ------------------------------------------------------------------ *)

let zero_snapshot =
  {
    Perf.s_cycles = 0.0;
    s_instructions = 0;
    s_branches = 0;
    s_branch_mispredicts = 0;
    s_calls = 0;
    s_indirect_calls = 0;
    s_btb_misses = 0;
    s_loads = 0;
    s_stores = 0;
    s_atomics = 0;
    s_hypercalls = 0;
    s_icache_flushes = 0;
  }

let test_perf_derived_metrics () =
  let s =
    { zero_snapshot with Perf.s_cycles = 100.0; s_instructions = 250; s_branches = 40;
      s_branch_mispredicts = 10; s_calls = 4 }
  in
  check_float "ipc" 2.5 (Perf.ipc s);
  check_float "mispredict rate" 0.25 (Perf.mispredict_rate s);
  check_float "cycles per call" 25.0 (Perf.cycles_per_call s);
  (* zero denominators stay finite *)
  check_float "ipc of empty delta" 0.0 (Perf.ipc zero_snapshot);
  check_float "rate of empty delta" 0.0 (Perf.mispredict_rate zero_snapshot);
  check_float "cpc of empty delta" 0.0 (Perf.cycles_per_call zero_snapshot)

let test_percentiles_and_measurement_fields () =
  let values = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p0 is the min" 1.0 (H.percentile values 0.0);
  check_float "p100 is the max" 100.0 (H.percentile values 1.0);
  check_float "median of 1..100" 50.0 (H.percentile values 0.5);
  check_float "p95 of 1..100" 95.0 (H.percentile values 0.95);
  check_float "empty list" 0.0 (H.percentile [] 0.5);
  let s = H.session1 spin_src in
  H.set s "config_smp" 0;
  ignore (H.commit s);
  let m = H.measure ~samples:50 s ~loop_fn:"bench_loop" in
  check_bool "min <= p50" true (m.H.m_min <= m.H.m_p50);
  check_bool "p50 <= p95" true (m.H.m_p50 <= m.H.m_p95);
  check_bool "p95 <= max" true (m.H.m_p95 <= m.H.m_max);
  check_bool "mean within range" true (m.H.m_min <= m.H.m_mean && m.H.m_mean <= m.H.m_max);
  (* the measurement exports every field *)
  let j = H.measurement_json m in
  List.iter
    (fun k ->
      match Json.member k j with
      | Some (Json.Float _ | Json.Int _) -> ()
      | _ -> Alcotest.failf "measurement_json lacks %s" k)
    [ "mean"; "stddev"; "min"; "max"; "p50"; "p95"; "samples"; "excluded" ]

(* ------------------------------------------------------------------ *)
(* Metrics edge cases                                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_label_canonicalization () =
  let m = Metrics.create () in
  (* Reordered labels address the same series. *)
  Metrics.inc m "req" [ ("a", "1"); ("b", "2") ];
  Metrics.inc m "req" [ ("b", "2"); ("a", "1") ];
  check_int "reordered labels coincide" 2
    (Metrics.counter_value m "req" [ ("b", "2"); ("a", "1") ]);
  (* Canonicalization sorts but does not deduplicate: a duplicated
     label pair is a distinct series from the single pair. *)
  Metrics.inc m "dup" [ ("a", "1"); ("a", "1") ];
  check_int "duplicated pair is its own series" 0
    (Metrics.counter_value m "dup" [ ("a", "1") ]);
  check_int "duplicated pair readable under itself" 1
    (Metrics.counter_value m "dup" [ ("a", "1"); ("a", "1") ]);
  (* Same key with two values: order still does not matter. *)
  Metrics.inc m "multi" [ ("a", "1"); ("a", "2") ];
  Metrics.inc m "multi" [ ("a", "2"); ("a", "1") ];
  check_int "reordered duplicate keys coincide" 2
    (Metrics.counter_value m "multi" [ ("a", "1"); ("a", "2") ])

let test_metrics_histogram_bucket_boundaries () =
  let m = Metrics.create () in
  let bounds = [| 1.0; 2.0; 5.0 |] in
  List.iter (Metrics.observe ~bounds m "lat" []) [ 1.0; 2.0; 5.0; 6.0 ];
  (match Metrics.histogram_summary m "lat" [] with
  | Some hs ->
      check_int "all four observed" 4 hs.Metrics.hs_count;
      check_float "min" 1.0 hs.Metrics.hs_min;
      check_float "max" 6.0 hs.Metrics.hs_max
  | None -> Alcotest.fail "histogram missing");
  (* A value exactly on a bucket bound lands in that bucket (inclusive
     upper edge), and anything past the last bound in the overflow
     bucket.  Read the per-bucket counts back through the export. *)
  let doc = parse_ok "registry" (Json.to_string_pretty (Metrics.to_json m)) in
  let counts =
    match Json.member "series" doc with
    | Some (Json.List series) ->
        List.filter_map
          (fun s ->
            match (Json.member "name" s, Json.member "counts" s) with
            | Some (Json.String "lat"), Some (Json.List cs) ->
                Some
                  (List.map
                     (function Json.Int n -> n | _ -> Alcotest.fail "count not int")
                     cs)
            | _ -> None)
          series
    | _ -> Alcotest.fail "no series"
  in
  (match counts with
  | [ cs ] ->
      check_int "one count per bound plus overflow" 4 (List.length cs);
      List.iteri (fun i c -> check_int (Printf.sprintf "bucket %d" i) 1 c) cs
  | _ -> Alcotest.fail "expected exactly one lat histogram")

let test_metrics_empty_registry_export_stable () =
  let a = Json.to_string (Metrics.to_json (Metrics.create ())) in
  let b = Json.to_string (Metrics.to_json (Metrics.create ())) in
  check_string "fresh registries export identically" a b;
  let doc = parse_ok "empty registry" a in
  check_bool "schema tagged" true
    (Json.member "schema" doc = Some (Json.String "mv-metrics-registry/1"));
  check_bool "series empty" true (Json.member "series" doc = Some (Json.List []))

(* ------------------------------------------------------------------ *)
(* Flight-recorder dump robustness                                     *)
(* ------------------------------------------------------------------ *)

module Flight = Mv_obs.Flight

let flight_fixture () =
  let t = ref 0.0 in
  let ring = Trace.ring ~capacity:32 ~clock:(fun () -> t := !t +. 1.0; !t) () in
  List.iter (Trace.record ring)
    [
      Trace.Commit_begin { cid = 1; op = "commit"; switches = [ ("config_smp", 1) ] };
      Trace.Variant_selected { fn = "spin_lock"; variant = "spin_lock.config_smp=1" };
      Trace.Commit_end { cid = 1; op = "commit"; bound = 1 };
      Trace.Fallback { fn = "other" };
      Trace.Safepoint_poll { pending = 2 };
    ];
  ring

let test_flight_dump_truncation_is_clean () =
  let f = flight_fixture () in
  let s = Flight.dump_string f ~reason:"unit-test" () in
  let whole = List.length (Flight.events_of_dump (parse_ok "whole dump" s)) in
  check_int "fixture events decode" 5 whole;
  (* Every proper prefix either fails to parse with a clean [Error] or
     parses to a document whose events decode without raising. *)
  for len = 0 to String.length s - 1 do
    match Json.parse (String.sub s 0 len) with
    | Error _ -> ()
    | Ok doc ->
        let n = List.length (Flight.events_of_dump doc) in
        check_bool "prefix decodes at most the whole window" true (n <= whole)
  done

let test_flight_dump_bitflips_never_raise () =
  let f = flight_fixture () in
  let s = Flight.dump_string f ~reason:"unit-test" () in
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0x04));
    (match Json.parse (Bytes.to_string b) with
    | Error _ -> ()
    | Ok doc -> ignore (Flight.events_of_dump doc : Trace.stamped list));
    Bytes.set b i orig
  done

let test_flight_dump_corrupt_entry_skipped () =
  let f = flight_fixture () in
  let doc = Flight.dump f ~reason:"unit-test" () in
  let n = List.length (Flight.events_of_dump doc) in
  (* Corrupt the first event's name: that entry is skipped, the rest of
     the window still decodes. *)
  let corrupted =
    match doc with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | ("events", Json.List (e :: rest)) ->
                   let e' =
                     match e with
                     | Json.Obj fs ->
                         Json.Obj
                           (List.map
                              (function
                                | ("name", _) -> ("name", Json.String "no_such_event")
                                | kv -> kv)
                              fs)
                     | other -> other
                   in
                   ("events", Json.List (e' :: rest))
               | kv -> kv)
             fields)
    | other -> other
  in
  check_int "corrupt entry skipped, remainder decodes" (n - 1)
    (List.length (Flight.events_of_dump corrupted));
  (* A dump with no events member at all decodes to the empty list. *)
  check_int "missing events member" 0
    (List.length (Flight.events_of_dump (Json.Obj [ ("schema", Json.String "x") ])))

let suite =
  [
    tc "ring preserves order and seq" test_ring_order_and_seq;
    tc "ring overflow keeps the newest window" test_ring_overflow_keeps_newest;
    tc "commit emits a span with site events" test_commit_span_and_site_events;
    tc "fallback reported" test_fallback_event;
    tc "revert emits a revert span" test_revert_span;
    tc "safe commit: defer then drain exactly once"
      test_safe_commit_defer_drain_exactly_once;
    tc "safe deny reported" test_safe_deny_event;
    tc "chrome trace parses back" test_chrome_trace_parses_back;
    tc "deeply nested spans parse back" test_chrome_trace_deep_nesting_parses_back;
    tc "metrics snapshot parses back" test_metrics_json_parses_back;
    tc "json roundtrip and escapes" test_json_roundtrip_and_escapes;
    tc "json non-finite emission is total" test_json_nonfinite_total_roundtrip;
    tc "no sink, no cycles: pay-for-use" test_zero_overhead_without_and_with_sinks;
    tc "profiler attributes symbols" test_profiler_attributes_variants;
    tc "profiler interval thins samples" test_profiler_interval_thins_samples;
    tc "profiler empty report has no NaN" test_profile_empty_report;
    tc "leaf view reproduces the flat profiler's rows"
      test_leaf_view_reproduces_flat_profile;
    tc "stack profiler records nested stacks" test_stackprof_records_nested_stacks;
    tc "folded dump follows the line format" test_stackprof_folded_line_format;
    tc "stack profiler distinguishes variant frames"
      test_stackprof_distinguishes_variant_frames;
    tc "stack profiler empty report" test_stackprof_empty_report;
    tc "metrics registry primitives" test_metrics_registry_primitives;
    tc "trace bridge counts commits and patches" test_metrics_trace_bridge_counts_commit;
    tc "safe-commit outcomes and drain latency" test_metrics_safe_commit_outcomes;
    tc "drain latency is paired with its own defers"
      test_metrics_drain_latency_pairs_by_cid;
    tc "span extraction and statistics" test_analyze_span_stats;
    tc "bench diff: unchanged tree is clean" test_bench_diff_unchanged_tree_is_clean;
    tc "bench diff: synthetic +10% trips the gate"
      test_bench_diff_catches_synthetic_regression;
    tc "bench diff: foreign schema rejected" test_bench_diff_rejects_foreign_schema;
    tc "bench diff: a dropped row fails the gate" test_bench_diff_dropped_row_fails;
    tc "bench diff: a dropped field fails the gate" test_bench_diff_dropped_field_fails;
    tc "bench diff: an --only run passes" test_bench_diff_only_run_passes;
    tc "derived perf metrics" test_perf_derived_metrics;
    tc "percentiles and measurement fields" test_percentiles_and_measurement_fields;
    tc "label canonicalization sorts without deduping"
      test_metrics_label_canonicalization;
    tc "histogram bucket boundaries are inclusive"
      test_metrics_histogram_bucket_boundaries;
    tc "empty registry export is stable" test_metrics_empty_registry_export_stable;
    tc "flight dump truncation is clean" test_flight_dump_truncation_is_clean;
    tc "flight dump bit flips never raise" test_flight_dump_bitflips_never_raise;
    tc "flight dump corrupt entry skipped" test_flight_dump_corrupt_entry_skipped;
  ]
