(* Code-heat telemetry tests: the machine's block-entry counters (zero
   simulated cost, invalidation-safe across text_poke/flush_icache, SMP),
   per-region attribution against a hand-computed workload, the epoch
   decay and residency math (deterministic, pure-unit checked), the
   eviction advisor on a two-variant fixture, and parse-back of the
   mv-heat/1 export. *)

open Util
module H = Mv_workloads.Harness
module Heat = Mv_obs.Heat
module Trace = Mv_obs.Trace
module Json = Mv_obs.Json
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

let stat_of name report =
  match
    List.find_opt
      (fun (st : Heat.region_stat) -> st.Heat.rs_region.Heat.r_name = name)
      report
  with
  | Some st -> st
  | None -> Alcotest.failf "no region %s in heat report" name

(* ------------------------------------------------------------------ *)
(* Machine-level counters                                              *)
(* ------------------------------------------------------------------ *)

(* The hand-computed fixture: the config_smp=1 variant body is one
   straight-line superblock (load, add, store, ret), entered exactly once
   per spin_lock call, so a bench_loop of n calls must charge the variant
   region exactly n hits — and cover its full byte range. *)
let test_hand_computed_attribution () =
  let s = H.session1 spin_src in
  H.enable_heat s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 7 ]);
  let report = H.heat_report s in
  let v1 = stat_of "spin_lock.config_smp=1" report in
  check_int "variant hits = calls" 7 v1.Heat.rs_hits;
  check_int "variant fully covered"
    (v1.Heat.rs_region.Heat.r_hi - v1.Heat.rs_region.Heat.r_lo)
    v1.Heat.rs_covered;
  check_bool "insns accumulate per entry" true (v1.Heat.rs_insns >= 7);
  let g = stat_of "spin_lock" report in
  check_int "generic body never entered" 0 g.Heat.rs_hits;
  (* re-reading must not double-count: observe folds deltas *)
  let v1' = stat_of "spin_lock.config_smp=1" (H.heat_report s) in
  check_int "re-report does not double-count" 7 v1'.Heat.rs_hits

(* Counters live in the machine, not in the superblocks: a commit that
   patches text (text_poke + flush_icache, dropping blocks) must not lose
   the hits already charged, and counting must resume seamlessly in the
   re-decoded blocks. *)
let test_counters_survive_invalidation () =
  let s = H.session1 spin_src in
  H.enable_heat s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 10 ]);
  check_int "hot variant charged" 10
    (stat_of "spin_lock.config_smp=1" (H.heat_report s)).Heat.rs_hits;
  let inval0 = (Machine.decode_stats s.H.machine).Machine.ds_invalidated in
  (* revert + recommit: both patch text and flush, dropping the live
     superblocks over the patched ranges *)
  ignore (H.revert s);
  ignore (H.commit s);
  check_bool "patching invalidated superblocks" true
    ((Machine.decode_stats s.H.machine).Machine.ds_invalidated > inval0);
  ignore (H.call s "bench_loop" [ 10 ]);
  check_int "hits survive the flush and keep accumulating" 20
    (stat_of "spin_lock.config_smp=1" (H.heat_report s)).Heat.rs_hits

(* Arming heat must not move the simulated clock: same workload, against
   a session with no sink at all and with heat armed before the commit,
   bit-identical cycles (the obs-overhead bench pins the same invariant;
   this is the unit-test version). *)
let test_zero_simulated_cost () =
  let run arm =
    let s = H.session1 spin_src in
    arm s;
    H.set s "config_smp" 1;
    ignore (H.commit s);
    ignore (H.call s "bench_loop" [ 25 ]);
    Perf.cycles s.H.machine.Machine.perf
  in
  check_float "cycles identical with heat armed" (run detach_sinks)
    (run (fun s -> H.enable_heat s))

let test_smp_counters () =
  let s = H.session1 ~n_harts:2 ~seed:7 spin_src in
  H.enable_heat s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  H.start s ~hart:0 "bench_loop" [ 5 ];
  H.start s ~hart:1 "bench_loop" [ 5 ];
  H.run s;
  let report = H.heat_report s in
  (* both harts execute the same text offsets; per-source delta folding
     must sum them instead of colliding *)
  check_int "variant hits sum across harts" 10
    (stat_of "spin_lock.config_smp=1" report).Heat.rs_hits;
  let report' = H.heat_report s in
  check_int "smp re-report does not double-count" 10
    (stat_of "spin_lock.config_smp=1" report').Heat.rs_hits

(* ------------------------------------------------------------------ *)
(* Decay, residency, advisor (pure unit fixtures)                      *)
(* ------------------------------------------------------------------ *)

let region ?(kind = Heat.Variant) ?(fn = "f") ?(switches = "") name lo hi =
  { Heat.r_name = name; r_fn = fn; r_kind = kind; r_switches = switches;
    r_lo = lo; r_hi = hi }

let test_epoch_decay_math () =
  let h = Heat.create ~decay:0.5 () in
  let a = region ~kind:Heat.Generic "a" 0 100 in
  Heat.register h a;
  Heat.observe h [ (0, 10, 10, 40) ];
  check_float "pre-epoch hotness is raw hits" 10.0 (Heat.hotness h a);
  Heat.epoch h;
  check_float "first epoch score" 10.0 (Heat.hotness h a);
  (* cumulative counters grow to 14: only the delta (4) lands this epoch *)
  Heat.observe h [ (0, 10, 14, 56) ];
  check_float "mid-epoch adds undecayed hits" 14.0 (Heat.hotness h a);
  Heat.epoch h;
  check_float "decayed score" 9.0 (Heat.hotness h a);
  check_int "epochs counted" 2 (Heat.epochs h);
  (* an idle region cools geometrically *)
  Heat.epoch h;
  check_float "idle region cools" 4.5 (Heat.hotness h a);
  (* replaying the same cumulative snapshot is a no-op *)
  Heat.observe h [ (0, 10, 14, 56) ];
  check_float "stale snapshot folds nothing" 4.5 (Heat.hotness h a)

let test_residency_intervals () =
  let h = Heat.create () in
  let now = ref 0.0 in
  let sink = Heat.sink h ~clock:(fun () -> !now) in
  now := 10.0;
  sink (Trace.Variant_selected { fn = "f"; variant = "f.x=1" });
  check_bool "x=1 resident" true (Heat.resident h ~fn:"f" ~variant:"f.x=1");
  now := 30.0;
  sink (Trace.Variant_selected { fn = "f"; variant = "f.x=2" });
  check_bool "x=1 displaced" false (Heat.resident h ~fn:"f" ~variant:"f.x=1");
  now := 50.0;
  (* a revert: the runtime reports each bound function's unbind *)
  sink (Trace.Variant_unbound { fn = "f"; variant = "f.x=2" });
  now := 60.0;
  sink (Trace.Variant_selected { fn = "f"; variant = "f.x=1" });
  now := 70.0;
  (* a fallback unbinds too *)
  sink (Trace.Variant_unbound { fn = "f"; variant = "f.x=1" });
  (match Heat.stays h with
  | [ s1; s2 ] ->
      check_string "sorted by variant" "f.x=1" s1.Heat.st_variant;
      check_int "x=1 installed twice" 2 s1.Heat.st_installs;
      check_float "x=1 resident 20+10 cycles" 30.0 s1.Heat.st_resident;
      check_bool "x=1 closed by its unbind" false s1.Heat.st_active;
      check_int "x=2 installed once" 1 s2.Heat.st_installs;
      check_float "x=2 resident until revert" 20.0 s2.Heat.st_resident;
      check_bool "x=2 closed by its unbind" false s2.Heat.st_active
  | l -> Alcotest.failf "expected 2 stays, got %d" (List.length l));
  (* an open interval extends to ~now on request *)
  now := 80.0;
  sink (Trace.Variant_selected { fn = "f"; variant = "f.x=2" });
  let s2 =
    List.find (fun s -> s.Heat.st_variant = "f.x=2") (Heat.stays ~now:95.0 h)
  in
  check_bool "x=2 active again" true s2.Heat.st_active;
  check_float "open interval extends to now" 35.0 s2.Heat.st_resident

(* Residency follows the runtime's unbinds, whatever the entry point:
   a targeted revert_func, a revert_refs, and a revert_safe that defers
   [f] because a hart is parked in its bound variant (resident until the
   set drains). *)
let unbind_src =
  {|
  multiverse bool m;
  int w;
  multiverse void f() { if (m) { w = w + 100; } }
  void spacer() { w = w + 1; }
  int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
|}

let test_residency_follows_unbinds () =
  let resident s =
    match H.heat s with
    | Some h -> Heat.resident h ~fn:"f" ~variant:"f.m=1"
    | None -> Alcotest.fail "heat not armed"
  in
  let installed s = Core.Runtime.installed_variant s.H.runtime "f" in
  let bound () =
    let s = H.session1 unbind_src in
    H.enable_heat s;
    H.set s "m" 1;
    ignore (H.commit s);
    check_bool "bound and resident" true (resident s);
    s
  in
  let s = bound () in
  ignore (Core.Runtime.revert_func s.H.runtime "f");
  check_bool "revert_func: generic" true (installed s = None);
  check_bool "revert_func: not resident" false (resident s);
  ignore (H.commit s);
  check_bool "rebound" true (resident s);
  ignore (Core.Runtime.revert_refs s.H.runtime "m");
  check_bool "revert_refs: generic" true (installed s = None);
  check_bool "revert_refs: not resident" false (resident s);
  (* park the hart on the bound variant's entry: the revert must wait *)
  let s = bound () in
  H.enable_safe_commit s;
  H.start s ~hart:0 "driver" [];
  let entry = Mv_link.Image.symbol s.H.program.Core.Compiler.p_image "f.m=1" in
  let guard = ref 10_000 in
  while s.H.machine.Machine.pc <> entry && !guard > 0 do
    decr guard;
    ignore (H.step s)
  done;
  check_bool "parked in f.m=1" true (s.H.machine.Machine.pc = entry);
  ignore (H.revert_safe s);
  check_bool "revert deferred" true (Core.Runtime.pending s.H.runtime = [ "f" ]);
  check_bool "still installed" true (installed s <> None);
  check_bool "still resident until the drain" true (resident s);
  H.run s;
  check_bool "drained" true (Core.Runtime.pending s.H.runtime = []);
  check_bool "generic after the drain" true (installed s = None);
  check_bool "not resident after the drain" false (resident s)

let two_variant_fixture () =
  let h = Heat.create ~decay:0.5 () in
  let hot = region ~fn:"f1" ~switches:"x=1" "f1.x=1" 0 40 in
  let cold = region ~fn:"f2" ~switches:"y=1" "f2.y=1" 100 140 in
  Heat.register h hot;
  Heat.register h cold;
  let sink = Heat.sink h ~clock:(fun () -> 0.0) in
  sink (Trace.Variant_selected { fn = "f1"; variant = "f1.x=1" });
  sink (Trace.Variant_selected { fn = "f2"; variant = "f2.y=1" });
  Heat.observe h [ (0, 40, 100, 400); (100, 140, 1, 4) ];
  h

let test_evict_plan_keeps_hot () =
  let h = two_variant_fixture () in
  (match Heat.evict_plan h ~budget:40 with
  | [ first; second ] ->
      check_string "hot ranked first" "f1.x=1" first.Heat.ad_region.Heat.r_name;
      check_bool "hot kept" true (first.Heat.ad_verdict = Heat.Keep);
      check_string "cold ranked second" "f2.y=1"
        second.Heat.ad_region.Heat.r_name;
      check_bool "cold evicted" true (second.Heat.ad_verdict = Heat.Evict);
      check_int "bytes reported" 40 first.Heat.ad_bytes
  | l -> Alcotest.failf "expected 2 advices, got %d" (List.length l));
  (* a budget fitting both keeps both; a zero budget keeps nothing *)
  check_int "wide budget keeps both" 2
    (List.length
       (List.filter
          (fun a -> a.Heat.ad_verdict = Heat.Keep)
          (Heat.evict_plan h ~budget:80)));
  check_int "zero budget keeps none" 0
    (List.length
       (List.filter
          (fun a -> a.Heat.ad_verdict = Heat.Keep)
          (Heat.evict_plan h ~budget:0)));
  (* only resident variants are plannable: displace f2's variant *)
  let sink = Heat.sink h ~clock:(fun () -> 0.0) in
  sink (Trace.Variant_unbound { fn = "f2"; variant = "f2.y=1" });
  check_int "non-resident variants drop out" 1
    (List.length (Heat.evict_plan h ~budget:80))

(* Journaled-but-not-yet-applied variants (a pending safe-commit bind)
   must be excludable from the plan: evicting one would invalidate the
   journal entry.  An excluded variant neither appears in the advice
   list nor consumes budget, so its bytes go to the remaining
   candidates. *)
let test_evict_plan_exclude_pending () =
  let h = two_variant_fixture () in
  (* excluded: gone from the plan entirely *)
  (match Heat.evict_plan ~exclude:[ "f1.x=1" ] h ~budget:40 with
  | [ only ] ->
      check_string "only the other variant is planned" "f2.y=1"
        only.Heat.ad_region.Heat.r_name;
      (* ...and the budget the hot variant would have eaten is free for
         the cold one *)
      check_bool "freed budget keeps the survivor" true
        (only.Heat.ad_verdict = Heat.Keep)
  | l -> Alcotest.failf "expected 1 advice, got %d" (List.length l));
  (* without the exclusion the same budget evicts the cold variant *)
  (match Heat.evict_plan h ~budget:40 with
  | [ _; second ] ->
      check_bool "cold evicted when nothing is excluded" true
        (second.Heat.ad_verdict = Heat.Evict)
  | l -> Alcotest.failf "expected 2 advices, got %d" (List.length l));
  (* excluding everything yields the empty plan *)
  check_int "excluding every resident empties the plan" 0
    (List.length
       (Heat.evict_plan ~exclude:[ "f1.x=1"; "f2.y=1" ] h ~budget:40))

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let run_heat_session () =
  let s = H.session1 spin_src in
  H.enable_heat s;
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 12 ]);
  H.heat_epoch s;
  s

let test_heat_json_parse_back () =
  let s = run_heat_session () in
  let doc = H.heat_json ~budget:64 s in
  match Json.parse (Json.to_string_pretty doc) with
  | Error m -> Alcotest.failf "mv-heat/1 does not parse back: %s" m
  | Ok j -> (
      (match Json.member "schema" j with
      | Some (Json.String sch) -> check_string "schema tag" "mv-heat/1" sch
      | _ -> Alcotest.fail "missing schema member");
      (match Json.member "regions" j with
      | Some (Json.List regions) ->
          check_int "generic + both variants" 3 (List.length regions);
          let hits_of r =
            match Json.member "hits" r with Some (Json.Int n) -> n | _ -> -1
          in
          check_bool "a region carries the run's hits" true
            (List.exists (fun r -> hits_of r = 12) regions)
      | _ -> Alcotest.fail "missing regions array");
      (match Json.member "variants" j with
      | Some (Json.List [ v ]) ->
          (match Json.member "variant" v with
          | Some (Json.String name) ->
              check_string "lifecycle row names the variant"
                "spin_lock.config_smp=1" name
          | _ -> Alcotest.fail "missing variant name");
          (match Json.member "active" v with
          | Some (Json.Bool b) -> check_bool "still resident" true b
          | _ -> Alcotest.fail "missing active flag")
      | _ -> Alcotest.fail "expected exactly one lifecycle row");
      match Json.member "plan" j with
      | Some plan -> (
          match Json.member "entries" plan with
          | Some (Json.List [ e ]) -> (
              match Json.member "verdict" e with
              | Some (Json.String v) -> check_string "advisor keeps it" "keep" v
              | _ -> Alcotest.fail "missing verdict")
          | _ -> Alcotest.fail "expected one plan entry")
      | None -> Alcotest.fail "missing plan under --budget")

(* The whole pipeline is deterministic under a pinned workload: two
   independent sessions must export byte-identical documents. *)
let test_heat_deterministic () =
  let dump () = Json.to_string (H.heat_json ~budget:64 (run_heat_session ())) in
  check_string "byte-identical across sessions" (dump ()) (dump ())

let test_heat_metrics_gauges () =
  let s = run_heat_session () in
  H.enable_metrics s;
  (match H.metrics_json s with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "metrics_json shape");
  match H.metrics s with
  | None -> Alcotest.fail "metrics armed"
  | Some m ->
      check_float "mv_region_heat gauge" 12.0
        (Option.value ~default:(-1.0)
           (Mv_obs.Metrics.gauge_value m "mv_region_heat"
              [ ("region", "spin_lock.config_smp=1") ]));
      check_bool "mv_variant_resident_bytes gauge" true
        (Option.value ~default:(-1.0)
           (Mv_obs.Metrics.gauge_value m "mv_variant_resident_bytes"
              [ ("fn", "spin_lock"); ("variant", "spin_lock.config_smp=1") ])
        > 0.0)

let suite =
  [
    tc "hand-computed per-variant attribution" test_hand_computed_attribution;
    tc "counters survive text_poke/flush_icache" test_counters_survive_invalidation;
    tc "zero simulated cost" test_zero_simulated_cost;
    tc "SMP counters fold per hart" test_smp_counters;
    tc "epoch decay math" test_epoch_decay_math;
    tc "residency intervals" test_residency_intervals;
    tc "residency follows every unbind" test_residency_follows_unbinds;
    tc "evict_plan keeps hot, evicts cold" test_evict_plan_keeps_hot;
    tc "evict_plan excludes journaled binds" test_evict_plan_exclude_pending;
    tc "mv-heat/1 parse-back" test_heat_json_parse_back;
    tc "deterministic export" test_heat_deterministic;
    tc "metrics gauges" test_heat_metrics_gauges;
  ]
