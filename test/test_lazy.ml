(* The lazy-vs-eager battery: demand-driven variant materialization must
   be observationally identical to the eager pre-expansion (results,
   fallback behavior), while holding the cache invariants — first commit
   materializes exactly once, structural-hash hits link no new bytes,
   evict/re-commit round trips are bit-identical, live victims drain
   through the safe-commit/OSR paths, and the byte budget is never
   exceeded, including across a randomized pinned-seed commit storm and
   a 20-switch (~1M valuation) workload. *)

open Util
module H = Mv_workloads.Harness
module Runtime = Core.Runtime
module Machine = Mv_vm.Machine
module Image = Mv_link.Image
module Trace = Mv_obs.Trace
module Heat = Mv_obs.Heat

(* The paper's Figure 2 shape: one multiversed function over two
   switches, four in-domain valuations. *)
let fig2 =
  {|
  multiverse bool A;
  multiverse int B;
  int effects;
  void calc() { effects = effects + 10; }
  void log_() { effects = effects + 100; }
  multiverse void multi() { if (A) { calc(); if (B) { log_(); } } }
  int foo() { effects = 0; multi(); return effects; }
|}

let expected a b = (if a <> 0 then 10 else 0) + (if a <> 0 && b <> 0 then 100 else 0)

let commit_vals s a b =
  H.set s "A" a;
  H.set s "B" b;
  ignore (H.commit s)

let stats s = Runtime.stats s.H.runtime

(* ------------------------------------------------------------------ *)
(* Link-time shape and eager/lazy agreement                            *)
(* ------------------------------------------------------------------ *)

let test_lazy_link_carries_no_variants () =
  let s = H.session1 ~lazy_variants:true fig2 in
  check_bool "lazy mode armed" true (Runtime.lazy_enabled s.H.runtime);
  check_int "no variants at link time" 0
    (List.length (Runtime.materialized_variants s.H.runtime));
  check_int "no resident bytes" 0 (Runtime.variant_bytes s.H.runtime);
  check_int "descriptors carry zero variants" 0 (stats s).Runtime.st_variants;
  (* the generic program is fully functional before any commit *)
  H.set s "A" 1;
  H.set s "B" 1;
  check_int "generic semantics" 110 (H.call s "foo" []);
  let e = H.session1 fig2 in
  check_bool "eager session is not lazy" false (Runtime.lazy_enabled e.H.runtime)

let test_lazy_matches_eager_all_valuations () =
  List.iter
    (fun (a, b) ->
      let eager = H.session1 fig2 in
      let lazy_ = H.session1 ~lazy_variants:true fig2 in
      commit_vals eager a b;
      commit_vals lazy_ a b;
      let re = H.call eager "foo" [] in
      let rl = H.call lazy_ "foo" [] in
      check_int (Printf.sprintf "eager A=%d B=%d" a b) (expected a b) re;
      check_int (Printf.sprintf "lazy agrees A=%d B=%d" a b) re rl)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* ------------------------------------------------------------------ *)
(* First-commit materialization and the cache                          *)
(* ------------------------------------------------------------------ *)

let test_first_commit_materializes_exactly_once () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  check_int "one materialization" 1 (stats s).Runtime.st_materialized;
  check_int "one resident alias" 1
    (List.length (Runtime.materialized_variants s.H.runtime));
  check_bool "bytes accounted" true (Runtime.variant_bytes s.H.runtime > 0);
  check_int "specialized result" 110 (H.call s "foo" [])

let test_recommit_hits_cache () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  let bytes = Runtime.variant_bytes s.H.runtime in
  commit_vals s 1 1;
  commit_vals s 1 1;
  let st = stats s in
  check_int "still one materialization" 1 st.Runtime.st_materialized;
  check_bool "cache hits recorded" true (st.Runtime.st_cache_hits >= 2);
  check_int "no new bytes" bytes (Runtime.variant_bytes s.H.runtime);
  check_int "result stable" 110 (H.call s "foo" [])

let test_distinct_valuations_distinct_bodies () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  check_int "after (1,1)" 110 (H.call s "foo" []);
  commit_vals s 1 0;
  check_int "after (1,0)" 10 (H.call s "foo" []);
  let st = stats s in
  check_int "two materializations" 2 st.Runtime.st_materialized;
  check_int "no dedup between distinct bodies" 0 st.Runtime.st_dedup_hits;
  match Runtime.materialized_variants s.H.runtime with
  | [ (s1, a1, _); (s2, a2, _) ] ->
      check_bool "distinct symbols" true (s1 <> s2);
      check_bool "distinct addresses" true (a1 <> a2)
  | vs -> Alcotest.failf "expected 2 resident variants, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Structural-hash dedup                                               *)
(* ------------------------------------------------------------------ *)

(* f and g are byte-for-byte clones: their m=1 bodies must share one
   resident copy. *)
let clones =
  {|
  multiverse int m;
  int w;
  multiverse void f() { if (m) { w = w + 1; } }
  multiverse void g() { if (m) { w = w + 1; } }
  int foo() { w = 0; f(); g(); return w; }
|}

let test_dedup_across_function_clones () =
  let s = H.session1 ~lazy_variants:true clones in
  H.set s "m" 1;
  ignore (H.commit s);
  let st = stats s in
  check_int "both functions materialized" 2 st.Runtime.st_materialized;
  check_int "second was a hash hit" 1 st.Runtime.st_dedup_hits;
  (match Runtime.materialized_variants s.H.runtime with
  | [ (_, a1, z1); (_, a2, z2) ] ->
      check_int "aliases share the body" a1 a2;
      check_int "same extent" z1 z2;
      (* exactly one body's worth of bytes is resident *)
      check_int "one allocation" ((z1 + 15) / 16 * 16)
        (Runtime.variant_bytes s.H.runtime)
  | vs -> Alcotest.failf "expected 2 aliases, got %d" (List.length vs));
  check_int "both calls specialized" 2 (H.call s "foo" [])

let test_dedup_across_valuations_of_one_function () =
  (* with a=1 the b-branch is dead: (a=1,b=0) and (a=1,b=1) specialize
     to the same body and must dedup *)
  let src =
    {|
    multiverse bool a;
    multiverse bool b;
    int w;
    multiverse void f() { if (a) { w = w + 1; } else { if (b) { w = w + 2; } } }
    int foo() { w = 0; f(); return w; }
  |}
  in
  let s = H.session1 ~lazy_variants:true src in
  H.set s "a" 1;
  H.set s "b" 0;
  ignore (H.commit s);
  let bytes = Runtime.variant_bytes s.H.runtime in
  check_int "first valuation" 1 (H.call s "foo" []);
  H.set s "b" 1;
  ignore (H.commit s);
  check_int "second valuation" 1 (H.call s "foo" []);
  let st = stats s in
  check_int "two aliases materialized" 2 st.Runtime.st_materialized;
  check_int "one structural-hash hit" 1 st.Runtime.st_dedup_hits;
  check_int "hash hit linked no new bytes" bytes (Runtime.variant_bytes s.H.runtime);
  match Runtime.materialized_variants s.H.runtime with
  | [ (s1, a1, _); (s2, a2, _) ] ->
      check_bool "distinct descriptor aliases" true (s1 <> s2);
      check_int "one shared body" a1 a2
  | vs -> Alcotest.failf "expected 2 aliases, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)
(* ------------------------------------------------------------------ *)

let test_eviction_reverts_installed_variant () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  check_int "specialized" 110 (H.call s "foo" []);
  (* shrink the budget below the resident body (bodies are tiny, so go
     all the way to 1 byte): the installed, quiescent victim is reverted
     to generic on the spot *)
  Runtime.set_variant_budget s.H.runtime 1;
  check_int "variant evicted" 0
    (List.length (Runtime.materialized_variants s.H.runtime));
  check_int "bytes released" 0 (Runtime.variant_bytes s.H.runtime);
  check_bool "eviction counted" true ((stats s).Runtime.st_evictions >= 1);
  check_bool "function back to generic" true
    (Runtime.installed_variant s.H.runtime "multi" = None);
  check_int "generic still correct" 110 (H.call s "foo" [])

let test_evict_recommit_roundtrip_bit_identical () =
  let s = H.session1 ~lazy_variants:true fig2 in
  let img = s.H.program.Core.Compiler.p_image in
  commit_vals s 1 1;
  let sym, addr, size =
    match Runtime.materialized_variants s.H.runtime with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one variant"
  in
  let before = Image.read_bytes img addr size in
  ignore (H.revert s);
  Runtime.set_variant_budget s.H.runtime 1;
  check_int "evicted" 0 (List.length (Runtime.materialized_variants s.H.runtime));
  Runtime.set_variant_budget s.H.runtime (1 lsl 19);
  ignore (H.commit s);
  let sym', addr', size' =
    match Runtime.materialized_variants s.H.runtime with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one re-materialized variant"
  in
  check_string "same symbol" sym sym';
  check_int "deterministic allocator reuses the block" addr addr';
  check_int "same size" size size';
  check_string "bit-identical body" (Bytes.to_string before)
    (Bytes.to_string (Image.read_bytes img addr' size'));
  check_int "still correct" 110 (H.call s "foo" [])

(* The safe-commit deferral workload from the safe-commit suite: spacers
   give the machine quiescent safepoints between the two calls. *)
let defer_src =
  {|
  multiverse bool m;
  int w;
  multiverse void f() { if (m) { w = w + 100; } }
  void spacer() { w = w + 1; }
  int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
|}

let park s addr =
  let guard = ref 1_000_000 in
  while s.H.machine.Machine.pc <> addr && !guard > 0 do
    decr guard;
    ignore (Machine.step s.H.machine)
  done;
  check_bool "parked" true (s.H.machine.Machine.pc = addr)

let test_live_victim_defers_to_safepoint () =
  let s = H.session1 ~lazy_variants:true defer_src in
  H.enable_safe_commit s;
  H.set s "m" 1;
  ignore (H.commit_safe s);
  let _, vaddr, _ =
    match Runtime.materialized_variants s.H.runtime with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one variant"
  in
  (* park the machine at the variant's entry: its body is now live *)
  Machine.start_call s.H.machine "driver" [];
  park s vaddr;
  let bytes = Runtime.variant_bytes s.H.runtime in
  Runtime.set_variant_budget s.H.runtime 1;
  (* the victim is live: eviction must defer, not free under the pc *)
  check_int "body still resident" 1
    (List.length (Runtime.materialized_variants s.H.runtime));
  check_int "bytes not freed yet" bytes (Runtime.variant_bytes s.H.runtime);
  check_bool "unbind journaled" true (List.mem "f" (Runtime.pending s.H.runtime));
  (* run to completion: the safepoint drains the unbind and the sweep
     frees the body once no activation sits inside it *)
  let r = Machine.finish s.H.machine in
  (* first f ran the variant (+100), spacers +2, second f ran generic
     with m=1 (+100) *)
  check_int "result correct across the eviction" 202 r;
  check_int "victim gone after drain" 0
    (List.length (Runtime.materialized_variants s.H.runtime));
  check_int "bytes freed" 0 (Runtime.variant_bytes s.H.runtime);
  check_bool "eviction completed" true ((stats s).Runtime.st_evictions >= 1)

let test_pending_bind_variant_is_protected () =
  let s = H.session1 ~lazy_variants:true defer_src in
  H.enable_safe_commit s;
  H.set s "m" 1;
  (* park inside the generic f, then commit_safe: the variant
     materializes now but its bind is journaled *)
  Machine.start_call s.H.machine "driver" [];
  park s (Image.symbol s.H.program.Core.Compiler.p_image "f");
  ignore (H.commit_safe s);
  check_int "materialized while deferred" 1 (stats s).Runtime.st_materialized;
  (match Runtime.pending_variants s.H.runtime with
  | [ sym ] ->
      check_bool "journaled variant reported" true
        (String.length sym > 0)
  | vs -> Alcotest.failf "expected 1 pending variant, got %d" (List.length vs));
  ignore (Machine.finish s.H.machine);
  check_int "drained" 0 (List.length (Runtime.pending_variants s.H.runtime));
  check_bool "variant bound after drain" true
    (Runtime.installed_variant s.H.runtime "f" <> None)

let test_budget_denial_falls_back_and_retries () =
  let s = H.session1 ~lazy_variants:true ~budget:1 fig2 in
  commit_vals s 1 1;
  let st = stats s in
  check_bool "denied under a 1-byte budget" true (st.Runtime.st_budget_denials >= 1);
  check_int "nothing resident" 0 (Runtime.variant_bytes s.H.runtime);
  check_bool "fallback signaled" true
    (List.mem "multi" (Runtime.fallbacks s.H.runtime));
  check_int "generic semantics preserved" 110 (H.call s "foo" []);
  (* raising the budget lets the next commit of the same valuation
     materialize: denial is a retryable condition, not a poison state *)
  Runtime.set_variant_budget s.H.runtime (1 lsl 16);
  ignore (H.commit s);
  check_int "materialized on retry" 1 (stats s).Runtime.st_materialized;
  check_int "specialized now" 110 (H.call s "foo" [])

let test_out_of_domain_stays_generic () =
  let s = H.session1 ~lazy_variants:true fig2 in
  H.set s "A" 1;
  H.set s "B" 7;
  ignore (H.commit s);
  let st = stats s in
  check_int "nothing materialized out of domain" 0 st.Runtime.st_materialized;
  check_bool "fallback signaled" true
    (List.mem "multi" (Runtime.fallbacks s.H.runtime));
  check_int "generic handles the odd value" 110 (H.call s "foo" [])

let test_enable_lazy_requires_vtext_region () =
  let program = Core.Compiler.build_string ~vtext_size:0 fig2 in
  let machine = Machine.create program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Machine.flush_icache machine ~addr ~len)
  in
  match
    Runtime.enable_lazy runtime ~recipes:[] ~call_pad:(fun _ -> 0)
  with
  | exception Runtime.Runtime_error _ -> ()
  | () -> Alcotest.fail "enable_lazy without a vtext region must fail"

(* ------------------------------------------------------------------ *)
(* The advisor and observability                                       *)
(* ------------------------------------------------------------------ *)

let test_advisor_overrides_lru_order () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  commit_vals s 1 0;
  let syms = List.map (fun (n, _, _) -> n) (Runtime.materialized_variants s.H.runtime) in
  check_int "two resident" 2 (List.length syms);
  (* LRU would shed the (1,1) alias first (older tick); the advisor names
     the most recent one instead, and must win *)
  let victim =
    match Runtime.installed_variant s.H.runtime "multi" with
    | Some v -> v
    | None -> Alcotest.fail "expected an installed variant"
  in
  Runtime.set_evict_advisor s.H.runtime (Some (fun () -> [ victim ]));
  let keep = List.find (fun n -> n <> victim) syms in
  let _, _, keep_size =
    List.find
      (fun (n, _, _) -> n = keep)
      (Runtime.materialized_variants s.H.runtime)
  in
  Runtime.set_variant_budget s.H.runtime ((keep_size + 15) / 16 * 16);
  let left = List.map (fun (n, _, _) -> n) (Runtime.materialized_variants s.H.runtime) in
  check_bool "advised victim evicted" false (List.mem victim left);
  check_bool "colder-by-LRU survivor kept" true (List.mem keep left)

(* The heat-guided advisor end to end (Harness.enable_heat +
   enable_evict_advisor): [hot] is selected first and then run 200
   times, [cold] is selected later and run once.  When a third variant
   needs the room, least-recently-selected order alone sheds the hot
   variant; the advisor ranks by heat per byte and sheds the cold one.
   On two harts the hot loop runs on hart 1, so the advisor must fold
   every hart's counters to see it. *)
let advisor_src =
  {|
  multiverse bool h;
  multiverse bool c;
  multiverse bool x;
  int gh;
  int gc;
  int gx;
  multiverse int hot() { if (h) { gh = gh + 10; return gh; } return 1; }
  multiverse int cold() { if (c) { gc = gc + 20; return gc; } return 2; }
  multiverse int extra() { if (x) { gx = gx + 30; return gx; } return 3; }
  int run_hot(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + hot(); }
    return acc;
  }
  int run_cold(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + cold(); }
    return acc;
  }
|}

let evicted_by ~n_harts ~advisor =
  let s = H.session1 ~lazy_variants:true ~n_harts advisor_src in
  H.enable_heat s;
  if advisor then H.enable_evict_advisor s;
  let bind fn switch =
    H.set s switch 1;
    ignore (Runtime.commit_func s.H.runtime fn);
    match Runtime.installed_variant s.H.runtime fn with
    | Some v -> v
    | None -> Alcotest.failf "%s: no variant installed" fn
  in
  let run_on hart fn n =
    H.start s ~hart fn [ n ];
    H.run s
  in
  let hot = bind "hot" "h" in
  run_on (n_harts - 1) "run_hot" 200;
  let cold = bind "cold" "c" in
  run_on 0 "run_cold" 1;
  (* room for exactly the two resident variants *)
  Runtime.set_variant_budget s.H.runtime (Runtime.variant_bytes s.H.runtime);
  let extra = bind "extra" "x" in
  let left = List.map (fun (n, _, _) -> n) (Runtime.materialized_variants s.H.runtime) in
  check_bool "the new variant is resident" true (List.mem extra left);
  List.filter (fun v -> not (List.mem v left)) [ hot; cold ]
  |> List.map (fun v -> if v = hot then "hot" else "cold")

let test_heat_advisor_evicts_cold ~n_harts () =
  check_bool "LRU alone evicts the hot variant" true
    (evicted_by ~n_harts ~advisor:false = [ "hot" ]);
  check_bool "the heat advisor evicts the cold one" true
    (evicted_by ~n_harts ~advisor:true = [ "cold" ])

let test_materialize_and_evict_trace_events () =
  let s = H.session1 ~lazy_variants:true fig2 in
  H.enable_tracing s;
  commit_vals s 1 1;
  Runtime.set_variant_budget s.H.runtime 1;
  let evs = List.map (fun st -> st.Trace.ev) (H.trace_events s) in
  let mat =
    List.exists
      (function
        | Trace.Variant_materialized { fn = "multi"; dedup = false; size; _ } ->
            size > 0
        | _ -> false)
      evs
  in
  let ev =
    List.exists
      (function
        | Trace.Variant_evicted { fn = "multi"; freed; _ } -> freed > 0
        | _ -> false)
      evs
  in
  check_bool "Variant_materialized traced" true mat;
  check_bool "Variant_evicted traced" true ev

(* Switch names are resolved once at Runtime.create; every traced commit
   must still report exactly the declared switches, in declaration order,
   with their values at that commit.  Declared out of alphabetical order
   so a sorted or hash-ordered list cannot pass. *)
let three_switches =
  {|
  multiverse int zeta;
  multiverse bool alpha;
  multiverse int mid;
  int effects;
  multiverse void step() {
    if (alpha) { effects = effects + zeta; } else { effects = effects + mid; }
  }
  int run() { effects = 0; step(); return effects; }
|}

let test_commit_begin_lists_declared_switches () =
  let s = H.session1 ~lazy_variants:true three_switches in
  H.enable_tracing s;
  let valuations = [ (1, 1, 0); (2, 0, 1); (0, 1, 1); (1, 1, 0) ] in
  List.iter
    (fun (zeta, alpha, mid) ->
      H.set s "zeta" zeta;
      H.set s "alpha" alpha;
      H.set s "mid" mid;
      ignore (H.commit s))
    valuations;
  check_bool "the commits materialized variants" true
    ((stats s).Runtime.st_materialized > 0);
  let begins =
    List.filter_map
      (fun st ->
        match st.Trace.ev with
        | Trace.Commit_begin { switches; _ } -> Some switches
        | _ -> None)
      (H.trace_events s)
  in
  check_int "one begin per commit" (List.length valuations) (List.length begins);
  List.iter2
    (fun (zeta, alpha, mid) switches ->
      Alcotest.(check (list (pair string int)))
        "declared switches, in order, with current values"
        [ ("zeta", zeta); ("alpha", alpha); ("mid", mid) ]
        switches)
    valuations begins

let test_metrics_count_cache_traffic () =
  let s = H.session1 ~lazy_variants:true clones in
  H.enable_metrics s;
  H.set s "m" 1;
  ignore (H.commit s);
  let m = match H.metrics s with Some m -> m | None -> Alcotest.fail "metrics" in
  check_int "one miss for f" 1
    (Mv_obs.Metrics.counter_value m "mv_variant_cache_materializations_total"
       [ ("fn", "f"); ("dedup", "miss") ]);
  check_int "one hit for g" 1
    (Mv_obs.Metrics.counter_value m "mv_variant_cache_materializations_total"
       [ ("fn", "g"); ("dedup", "hit") ])

let test_stats_surface_cache_counters () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  commit_vals s 1 1;
  commit_vals s 1 0;
  Runtime.set_variant_budget s.H.runtime 1;
  let st = stats s in
  check_int "st_materialized" 2 st.Runtime.st_materialized;
  check_bool "st_cache_hits" true (st.Runtime.st_cache_hits >= 1);
  check_int "st_evictions" 2 st.Runtime.st_evictions;
  check_int "st_variant_bytes" 0 st.Runtime.st_variant_bytes;
  (* the JSON snapshot carries the same counters *)
  let j = Mv_obs.Json.to_string (Runtime.stats_json st) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check_bool (key ^ " exported") true (contains j key))
    [ "materialized"; "dedup_hits"; "cache_hits"; "evictions"; "variant_bytes" ]

(* ------------------------------------------------------------------ *)
(* Storms: the budget is an invariant, not a suggestion                *)
(* ------------------------------------------------------------------ *)

let lcg seed =
  let state = ref (seed lor 1) in
  fun bound ->
    state := ((!state * 0x5DEECE66D) + 0xB) land 0x3FFFFFFFFFFF;
    (!state lsr 17) mod bound

let test_budget_invariant_under_commit_storm () =
  (* a budget of ~2 bodies over 4 valuations forces continual eviction;
     residency must never exceed the budget and every committed valuation
     must execute correctly *)
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 1 1;
  let body = Runtime.variant_bytes s.H.runtime in
  (* fig2 has three distinct bodies after dedup; room for only two of
     them forces continual churn *)
  let budget = 2 * body in
  Runtime.set_variant_budget s.H.runtime budget;
  let rand = lcg 0xC0FFEE in
  for _ = 1 to 400 do
    let a = rand 2 and b = rand 2 in
    commit_vals s a b;
    check_bool "budget invariant" true (Runtime.variant_bytes s.H.runtime <= budget);
    check_int "correct result" (expected a b) (H.call s "foo" [])
  done;
  let st = stats s in
  check_bool "storm exercised eviction" true (st.Runtime.st_evictions > 0);
  check_bool "storm exercised the cache" true (st.Runtime.st_cache_hits > 0)

(* 20 switches: ~1M valuations, impossible to pre-expand, trivially
   covered on demand inside a 256 KiB budget. *)
let twenty_switch_src =
  let b = Buffer.create 1024 in
  for i = 0 to 19 do
    Buffer.add_string b (Printf.sprintf "multiverse bool s%d;\n" i)
  done;
  Buffer.add_string b "int w;\nmultiverse void f() {\n";
  for i = 0 to 19 do
    Buffer.add_string b
      (Printf.sprintf "  if (s%d) { w = w + %d; w = w + %d; w = w + %d; }\n" i
         (i + 1) (100 * (i + 1)) (10000 * (i + 1)))
  done;
  Buffer.add_string b "}\nint foo() { w = 0; f(); return w; }\n";
  Buffer.contents b

let test_twenty_switches_bounded_storm () =
  let budget = 256 * 1024 in
  let s = H.session1 ~lazy_variants:true ~budget twenty_switch_src in
  let rand = lcg 0xBEEF in
  let commits = 1000 in
  for _ = 1 to commits do
    let bits = Array.init 20 (fun _ -> rand 2) in
    Array.iteri (fun i v -> H.set s (Printf.sprintf "s%d" i) v) bits;
    ignore (H.commit s);
    check_bool "budget invariant" true (Runtime.variant_bytes s.H.runtime <= budget);
    let exp =
      Array.to_list bits
      |> List.mapi (fun i v -> if v <> 0 then 10101 * (i + 1) else 0)
      |> List.fold_left ( + ) 0
    in
    check_int "20-switch result" exp (H.call s "foo" [])
  done;
  let st = stats s in
  check_bool "storm materialized variants" true (st.Runtime.st_materialized > 0);
  check_bool "bounded memory forced eviction" true (st.Runtime.st_evictions > 0)

(* ------------------------------------------------------------------ *)
(* SMP                                                                 *)
(* ------------------------------------------------------------------ *)

let smp_src =
  {|
  multiverse bool mode;
  multiverse int tick() { if (mode) { return 10; } return 1; }
  int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + tick(); }
    return acc;
  }
|}

let test_smp_materialization_under_rendezvous () =
  let s = H.session1 ~lazy_variants:true ~n_harts:2 ~seed:7 smp_src in
  H.enable_tracing s;
  H.set s "mode" 1;
  ignore (H.commit s);
  check_int "materialized once for the container" 1
    (Runtime.stats s.H.runtime).Runtime.st_materialized;
  H.start s ~hart:0 "work" [ 5 ];
  H.start s ~hart:1 "work" [ 5 ];
  H.run s;
  (* each hart ran the specialized body: 5 ticks of 10 *)
  check_int "hart 0 specialized" 50 (H.result s ~hart:0);
  check_int "hart 1 specialized" 50 (H.result s ~hart:1);
  let evs = List.map (fun st -> st.Trace.ev) (H.trace_events s) in
  check_bool "materialization traced" true
    (List.exists
       (function Trace.Variant_materialized _ -> true | _ -> false)
       evs);
  check_bool "patching ran under the rendezvous" true
    (List.exists (function Trace.Rendezvous_begin _ -> true | _ -> false) evs)

(* ------------------------------------------------------------------ *)
(* Alias names and the heat census                                    *)
(* ------------------------------------------------------------------ *)

let heat_stat s name =
  match
    List.find_opt
      (fun (st : Heat.region_stat) -> st.Heat.rs_region.Heat.r_name = name)
      (H.heat_report s)
  with
  | Some st -> st
  | None -> Alcotest.failf "no heat region %s" name

let selections s =
  List.filter_map
    (fun st ->
      match st.Trace.ev with
      | Trace.Variant_selected { fn; variant } -> Some (fn, variant)
      | _ -> None)
    (H.trace_events s)

(* f's and g's m=1 bodies dedup to one copy, but each function binds its
   own alias: the selection event, installed_variant and heat residency
   name g's alias, and each alias is a heat region of its own over the
   shared body.  The eviction advisor charges that body to its budget
   once, so a budget of exactly one body keeps both aliases and one byte
   less keeps neither; the residency gauge reports the whole body for
   each alias. *)
let test_clone_aliases_keep_their_names () =
  let s = H.session1 ~lazy_variants:true clones in
  H.enable_heat s;
  H.enable_metrics s;
  H.set s "m" 1;
  ignore (H.commit s);
  ignore (H.call s "foo" []);
  Alcotest.(check (list (pair string string)))
    "selections" [ ("f", "f.m=1"); ("g", "g.m=1") ] (selections s);
  Alcotest.(check (option string))
    "installed" (Some "g.m=1")
    (Runtime.installed_variant s.H.runtime "g");
  let hits name = (heat_stat s name).Heat.rs_hits in
  check_bool "f's alias has hits" true (hits "f.m=1" > 0);
  check_int "g's alias reports the shared body" (hits "f.m=1") (hits "g.m=1");
  let h = match H.heat s with Some h -> h | None -> Alcotest.fail "heat armed" in
  check_bool "g resident under its own alias" true
    (Heat.resident h ~fn:"g" ~variant:"g.m=1");
  let extent name =
    let r = (heat_stat s name).Heat.rs_region in
    (r.Heat.r_lo, r.Heat.r_hi)
  in
  let lo, hi = extent "f.m=1" in
  Alcotest.(check (pair int int)) "one extent" (lo, hi) (extent "g.m=1");
  let body = hi - lo in
  let plan budget =
    List.map
      (fun (a : Heat.advice) ->
        (a.Heat.ad_region.Heat.r_name, a.Heat.ad_verdict = Heat.Keep, a.Heat.ad_bytes))
      (Heat.evict_plan h ~budget)
    |> List.sort compare
  in
  Alcotest.(check (list (triple string bool int)))
    "one body's budget keeps both aliases"
    [ ("f.m=1", true, body); ("g.m=1", true, body) ]
    (plan body);
  Alcotest.(check (list (triple string bool int)))
    "one byte less keeps neither"
    [ ("f.m=1", false, body); ("g.m=1", false, body) ]
    (plan (body - 1));
  ignore (H.metrics_json s);
  let m = match H.metrics s with Some m -> m | None -> Alcotest.fail "metrics armed" in
  List.iter
    (fun (fn, variant) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s resident bytes" variant)
        (float_of_int body)
        (Option.value ~default:(-1.0)
           (Mv_obs.Metrics.gauge_value m "mv_variant_resident_bytes"
              [ ("fn", fn); ("variant", variant) ])))
    [ ("f", "f.m=1"); ("g", "g.m=1") ]

(* With A=0 the B-branch is dead, so (A=0,B=0) and (A=0,B=1) share one
   body.  After a revert, committing (A=0,B=1) binds the second alias
   and must name it, not the first alias at the same address.  Without
   the revert, the second commit selects the body already bound: no
   patch and no event, so the binding keeps the first alias's name. *)
let test_alias_named_after_revert () =
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 0 0;
  ignore (H.revert s);
  commit_vals s 0 1;
  Alcotest.(check (list (pair string string)))
    "selections"
    [ ("multi", "multi.A=0.B=0"); ("multi", "multi.A=0.B=1") ]
    (selections s);
  Alcotest.(check (option string))
    "installed" (Some "multi.A=0.B=1")
    (Runtime.installed_variant s.H.runtime "multi");
  let s = H.session1 ~lazy_variants:true fig2 in
  commit_vals s 0 0;
  let patches = (stats s).Runtime.st_patches in
  commit_vals s 0 1;
  check_int "second alias linked" 2 (stats s).Runtime.st_materialized;
  check_int "no patch without a revert" patches (stats s).Runtime.st_patches;
  Alcotest.(check (list (pair string string)))
    "one selection without a revert"
    [ ("multi", "multi.A=0.B=0") ]
    (selections s);
  Alcotest.(check (option string))
    "the bound alias keeps its name" (Some "multi.A=0.B=0")
    (Runtime.installed_variant s.H.runtime "multi")

(* A lazy session re-registers its heat census on every read; that must
   not clear coverage the counters already reported, since the fold only
   adds blocks with new hits.  Two back-to-back reports must agree, and
   match what the eager pre-expansion reports. *)
let test_heat_resync_keeps_coverage () =
  let covered ~lazy_variants =
    let s = H.session1 ~lazy_variants fig2 in
    H.enable_heat s;
    commit_vals s 1 1;
    for _ = 1 to 5 do
      ignore (H.call s "foo" [])
    done;
    let read () = (heat_stat s "multi.A=1.B=1").Heat.rs_covered in
    let first = read () in
    (first, read ())
  in
  let eager, eager_again = covered ~lazy_variants:false in
  let first, second = covered ~lazy_variants:true in
  check_bool "the variant is covered" true (eager > 0);
  check_int "eager reports agree" eager eager_again;
  check_int "lazy covers what eager covers" eager first;
  check_int "two consecutive lazy reports agree" first second

(* ------------------------------------------------------------------ *)
(* The commit stream, pinned                                           *)
(* ------------------------------------------------------------------ *)

(* The reconfig-storm shape of the repository benchmark, scaled down: a
   40-site spinlock farm plus three multiversed functions over four bool
   switches each.  Whenever a pair's outer switch is 0 its inner one is
   dead, so 7 of each function's 16 valuations dedup. *)
let storm_fns = 3

let storm_consts k = (1 + (10 * k), 3 + (10 * k), 5 + (10 * k), 7 + (10 * k))

let storm_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Mv_workloads.Callsite_farm.source ~callers:4 ~pairs:5);
  Buffer.add_string b "\nint w;\n";
  for j = 0 to (4 * storm_fns) - 1 do
    Printf.bprintf b "multiverse bool s%d;\n" j
  done;
  for k = 0 to storm_fns - 1 do
    let c1, c2, c3, c4 = storm_consts k in
    let s j = Printf.sprintf "s%d" ((4 * k) + j) in
    Printf.bprintf b
      "multiverse void mf%d() {\n\
      \  if (%s) { w = w + %d; if (%s) { w = w + %d; } }\n\
      \  if (%s) { w = (w * 3) + %d; if (%s) { w = w + %d; } }\n\
       }\n"
      k (s 0) c1 (s 1) c2 (s 2) c3 (s 3) c4
  done;
  Buffer.add_string b "int probe() {\n  w = 0;\n";
  for k = 0 to storm_fns - 1 do
    Printf.bprintf b "  mf%d();\n" k
  done;
  Buffer.add_string b
    "  spin_irq_lock();\n\
    \  int l = lock_word;\n\
    \  spin_irq_unlock();\n\
    \  return w + (l * 1000000);\n\
     }\n";
  Buffer.contents b

(* What [probe] returns under a valuation, from the source's meaning. *)
let storm_expected bits smp =
  let w = ref 0 in
  for k = 0 to storm_fns - 1 do
    let c1, c2, c3, c4 = storm_consts k in
    let on j = (bits lsr ((4 * k) + j)) land 1 = 1 in
    if on 0 then begin
      w := !w + c1;
      if on 1 then w := !w + c2
    end;
    if on 2 then begin
      w := (!w * 3) + c3;
      if on 3 then w := !w + c4
    end
  done;
  !w + (smp * 1_000_000)

(* Drive a seeded commit stream over [storm_src] under a budget of a few
   bodies: each commit draws one of 24 valuations, skewed towards the
   first ones, and flips config_smp about once in 16 commits.  Returns
   two digests and the final stats.  The full digest covers every
   runtime and machine event (kind and fields, in order), the final
   stats and the final variant-text bytes.  The write-free digest leaves
   out what depends on how many writes a commit makes — [Icache_flush]
   events and the [patches] and [bytes_patched] counters — and adds the
   text-segment bytes after the variant text. *)
let storm_stream_digests () =
  let s = H.session1 ~lazy_variants:true ~budget:384 storm_src in
  let full = Buffer.create 65536 and write_free = Buffer.create 65536 in
  let sink ev =
    let add buf =
      Buffer.add_string buf (Trace.event_name ev);
      Buffer.add_string buf (Mv_obs.Json.to_string (Mv_obs.Json.Obj (Trace.args_of_event ev)));
      Buffer.add_char buf '\n'
    in
    add full;
    match ev with Trace.Icache_flush _ -> () | _ -> add write_free
  in
  Runtime.set_tracer s.H.runtime (Some sink);
  Machine.set_tracer s.H.machine (Some sink);
  let rand = lcg 0x5702 in
  let universe = Array.init 24 (fun _ -> rand (1 lsl (4 * storm_fns))) in
  let smp = ref 0 in
  for _ = 1 to 300 do
    let bits = universe.(min (rand 24) (rand 24)) in
    if rand 16 = 0 then smp := 1 - !smp;
    for j = 0 to (4 * storm_fns) - 1 do
      H.set s (Printf.sprintf "s%d" j) ((bits lsr j) land 1)
    done;
    H.set s "config_smp" !smp;
    ignore (H.commit s);
    check_int "probe" (storm_expected bits !smp) (H.call s "probe" [])
  done;
  let st = stats s in
  let stats_json = Runtime.stats_json st in
  Buffer.add_string full (Mv_obs.Json.to_string stats_json);
  (match stats_json with
  | Mv_obs.Json.Obj fields ->
      Buffer.add_string write_free
        (Mv_obs.Json.to_string
           (Mv_obs.Json.Obj
              (List.filter
                 (fun (name, _) -> name <> "patches" && name <> "bytes_patched")
                 fields)))
  | _ -> Alcotest.fail "stats_json is not an object");
  let img = s.H.program.Core.Compiler.p_image in
  let section (r : Image.section_range) = Image.read_bytes img r.Image.sr_base r.Image.sr_size in
  Buffer.add_bytes full (section img.Image.vtext);
  Buffer.add_bytes write_free (section img.Image.vtext);
  Buffer.add_bytes write_free (section img.Image.text);
  let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  (hex full, hex write_free, st)

(* A change that makes commits cheaper on the host leaves both digests
   as they are.  One that changes how many text writes a commit makes
   moves the full digest, and must leave the write-free one as it is:
   every event but the flushes, every other counter, and every byte of
   variant text and text. *)
let storm_stream_pinned = "385d1010cdca6d0b2849dcc1bc82cfef"
let storm_stream_write_free = "082a6aa3e63124b5bf32b4ab83088b53"

let test_storm_stream_unchanged () =
  let digest, write_free, st = storm_stream_digests () in
  check_bool "the stream evicts" true (st.Runtime.st_evictions > 0);
  check_bool "the stream dedups" true (st.Runtime.st_dedup_hits > 0);
  check_bool "the stream hits the cache" true (st.Runtime.st_cache_hits > 0);
  check_string "events, counters and text, writes aside" storm_stream_write_free write_free;
  check_string "events, stats and variant text" storm_stream_pinned digest

(* Every assignment of the switches a session's recipes specialize on. *)
let recipe_assignments s =
  Core.Compiler.recipes s.H.program
  |> List.concat_map (fun (r : Core.Variantgen.recipe) -> r.Core.Variantgen.rc_switches)
  |> List.sort_uniq compare |> Core.Domain.cross_product

let commit_assignment s asg =
  List.iter (fun (sw, v) -> H.set s sw v) asg;
  ignore (H.commit s)

(* The resident aliases with their body bytes. *)
let resident_bodies s =
  let img = s.H.program.Core.Compiler.p_image in
  List.map
    (fun (sym, addr, size) -> (sym, addr, Bytes.to_string (Image.read_bytes img addr size)))
    (Runtime.materialized_variants s.H.runtime)

(* A runtime that has materialized every assignment once, then evicts
   everything and commits one assignment, must write the bytes a cold
   runtime writes for it: same aliases, same addresses, same bodies. *)
let test_rematerialized_bytes_match_cold () =
  List.iter
    (fun (name, src) ->
      let warm = H.session1 ~lazy_variants:true src in
      let region = warm.H.program.Core.Compiler.p_image.Image.vtext.Image.sr_size in
      let all = recipe_assignments warm in
      List.iter (commit_assignment warm) all;
      List.iter
        (fun asg ->
          let cold = H.session1 ~lazy_variants:true src in
          commit_assignment cold asg;
          ignore (H.revert warm);
          Runtime.set_variant_budget warm.H.runtime 1;
          check_int (name ^ ": evicted") 0 (Runtime.variant_bytes warm.H.runtime);
          Runtime.set_variant_budget warm.H.runtime region;
          commit_assignment warm asg;
          Alcotest.(check (list (triple string int string)))
            (Printf.sprintf "%s: %s" name
               (String.concat "," (List.map (fun (sw, v) -> Printf.sprintf "%s=%d" sw v) asg)))
            (resident_bodies cold) (resident_bodies warm))
        all)
    [
      ("fig2", fig2);
      ("clones", clones);
      ("defer", defer_src);
      ("advisor", advisor_src);
      ("three switches", three_switches);
      ("smp", smp_src);
    ]

(* ------------------------------------------------------------------ *)
(* The specialization memo and its bound                               *)
(* ------------------------------------------------------------------ *)

(* [f] over [n] bool switches: switch k adds 2^k, so every valuation
   specializes to a body of its own and no materialization dedups. *)
let bits_src n =
  let b = Buffer.create 1024 in
  for k = 0 to n - 1 do
    Printf.bprintf b "multiverse bool s%d;\n" k
  done;
  Buffer.add_string b "int w;\nmultiverse void f() {\n";
  for k = 0 to n - 1 do
    Printf.bprintf b "  if (s%d) { w = w + %d; }\n" k (1 lsl k)
  done;
  Buffer.add_string b "}\nint foo() { w = 0; f(); return w; }\n";
  Buffer.contents b

(* Commit each of [valuations] three times over, evicting everything
   before each commit, so every commit materializes; returns the
   materializations and the specializations they ran. *)
let rematerialize_rounds n valuations =
  let s = H.session1 ~lazy_variants:true (bits_src n) in
  let region = s.H.program.Core.Compiler.p_image.Image.vtext.Image.sr_size in
  for _ = 1 to 3 do
    List.iter
      (fun bits ->
        ignore (H.revert s);
        Runtime.set_variant_budget s.H.runtime 1;
        Runtime.set_variant_budget s.H.runtime region;
        for k = 0 to n - 1 do
          H.set s (Printf.sprintf "s%d" k) ((bits lsr k) land 1)
        done;
        ignore (H.commit s);
        check_int "specialized result" bits (H.call s "foo" []))
      valuations
  done;
  let st = stats s in
  check_int "no dedup" 0 st.Runtime.st_dedup_hits;
  (st.Runtime.st_materialized, Runtime.specializations s.H.runtime)

(* A recipe within the variant cap specializes each assignment once,
   however often eviction makes it re-materialize; one over the cap
   (eight switches, 256 valuations) specializes on every
   materialization. *)
let test_memo_bound () =
  check_bool "8 valuations fit the cap, 256 do not" true
    (8 <= Core.Variantgen.default_max_variants && 256 > Core.Variantgen.default_max_variants);
  let materialized, specialized = rematerialize_rounds 3 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  check_int "within the cap: every commit materializes" 24 materialized;
  check_int "within the cap: each assignment specialized once" 8 specialized;
  let materialized, specialized =
    rematerialize_rounds 8 [ 0; 1; 3; 7; 15; 31; 63; 255 ]
  in
  check_int "over the cap: every commit materializes" 24 materialized;
  check_int "over the cap: every materialization specializes" 24 specialized

let suite =
  [
    tc "lazy: link carries no variants" test_lazy_link_carries_no_variants;
    tc "lazy: matches eager on all valuations" test_lazy_matches_eager_all_valuations;
    tc "lazy: first commit materializes exactly once"
      test_first_commit_materializes_exactly_once;
    tc "lazy: re-commit hits the cache" test_recommit_hits_cache;
    tc "lazy: distinct valuations get distinct bodies"
      test_distinct_valuations_distinct_bodies;
    tc "dedup: function clones share one body" test_dedup_across_function_clones;
    tc "dedup: valuations with equal bodies share one body"
      test_dedup_across_valuations_of_one_function;
    tc "evict: installed quiescent victim reverts" test_eviction_reverts_installed_variant;
    tc "evict: re-commit round trip is bit-identical"
      test_evict_recommit_roundtrip_bit_identical;
    tc "evict: live victim defers to the safepoint" test_live_victim_defers_to_safepoint;
    tc "evict: journaled bind protects its variant" test_pending_bind_variant_is_protected;
    tc "budget: denial falls back, retry succeeds"
      test_budget_denial_falls_back_and_retries;
    tc "domain: out-of-domain valuation stays generic" test_out_of_domain_stays_generic;
    tc "enable_lazy requires a vtext region" test_enable_lazy_requires_vtext_region;
    tc "advisor: overrides LRU order" test_advisor_overrides_lru_order;
    tc "obs: materialize/evict trace events" test_materialize_and_evict_trace_events;
    tc "obs: metrics count cache traffic" test_metrics_count_cache_traffic;
    tc "obs: stats surface the cache counters" test_stats_surface_cache_counters;
    tc_slow "storm: budget invariant holds" test_budget_invariant_under_commit_storm;
    tc_slow "storm: 20 switches in 256 KiB" test_twenty_switches_bounded_storm;
    tc "smp: materialization under the rendezvous"
      test_smp_materialization_under_rendezvous;
    tc "advisor: heat evicts the cold variant (1 hart)"
      (test_heat_advisor_evicts_cold ~n_harts:1);
    tc "advisor: heat evicts the cold variant (2 harts)"
      (test_heat_advisor_evicts_cold ~n_harts:2);
    tc "obs: commit_begin lists the declared switches"
      test_commit_begin_lists_declared_switches;
    tc "names: clone aliases keep their names" test_clone_aliases_keep_their_names;
    tc "names: a re-bound alias is named after a revert" test_alias_named_after_revert;
    tc "obs: lazy heat re-sync keeps coverage" test_heat_resync_keeps_coverage;
    tc "stream: a seeded storm's events, stats and text are pinned"
      test_storm_stream_unchanged;
    tc "evict: re-materialized bytes equal a cold runtime's"
      test_rematerialized_bytes_match_cold;
    tc "memo: within the cap once per assignment, over it every time" test_memo_bound;
  ]
