(* The causal-tracing and flight-recorder battery.

   Two layers: synthetic streams with hand-computed answers pin the
   analyzer's arithmetic (straggler choice, critical-path length, chain
   reconstruction), and pinned-seed SMP runs pin the end-to-end
   invariants the paper-level claims rest on — every Ipi_send of a
   completed rendezvous has exactly one Ipi_ack, the reconstructed
   critical path length equals the Rendezvous_end latency the machine
   reported, and an injected slow-ack straggler is deterministically the
   hart the blame ranking fingers.  The flight recorder's window
   arithmetic, binary round-trip, artifact gating and zero-cycle
   overhead close the file. *)

open Util
module Harness = Mv_workloads.Harness
module Spinlock = Mv_workloads.Spinlock
module Smp = Mv_vm.Smp
module Machine = Mv_vm.Machine
module Trace = Mv_obs.Trace
module Causal = Mv_obs.Causal
module Flight = Mv_obs.Flight
module Metrics = Mv_obs.Metrics
module Json = Mv_obs.Json

let st ts seq hart hseq ev = { Trace.ts; seq; hart; hseq; ev }

let check_float msg expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* A three-hart rendezvous with a clear straggler: hart 1 acks after 4
   cycles, hart 2 after 9; the end latency is hart 2's wait. *)
let synthetic_rendezvous_stream =
  [
    st 0.0 0 0 0 (Trace.Rendezvous_begin { rdv = 1; initiator = 0; waiting = 2 });
    st 0.0 1 0 1 (Trace.Ipi_send { rdv = 1; from_hart = 0; to_hart = 1 });
    st 0.0 2 0 2 (Trace.Ipi_send { rdv = 1; from_hart = 0; to_hart = 2 });
    st 4.0 3 1 0 (Trace.Ipi_ack { rdv = 1; hart = 1; wait = 4.0; at = 100 });
    st 4.0 4 1 1
      (Trace.Causal_edge { edge = "ipi"; id = 1; src_hart = 0; dst_hart = 1 });
    st 9.0 5 2 0 (Trace.Ipi_ack { rdv = 1; hart = 2; wait = 9.0; at = 140 });
    st 9.0 6 2 1
      (Trace.Causal_edge { edge = "ipi"; id = 1; src_hart = 0; dst_hart = 2 });
    st 9.0 7 0 3
      (Trace.Rendezvous_end { rdv = 1; initiator = 0; acks = 2; latency = 9.0 });
    st 9.0 8 0 4
      (Trace.Causal_edge
         { edge = "rendezvous"; id = 1; src_hart = 2; dst_hart = 0 });
  ]

let test_timelines_partition_by_hart () =
  let lanes = Causal.timelines synthetic_rendezvous_stream in
  check_int "three lanes" 3 (List.length lanes);
  check_int "lanes sorted by hart" 0 (fst (List.nth lanes 0));
  check_int "hart 0 lane holds its five events" 5
    (List.length (List.assoc 0 lanes));
  check_int "hart 1 lane" 2 (List.length (List.assoc 1 lanes));
  check_int "hart 2 lane" 2 (List.length (List.assoc 2 lanes));
  (* each lane is its hart's program order: hseq strictly increasing *)
  List.iter
    (fun (_, lane) ->
      ignore
        (List.fold_left
           (fun prev (s : Trace.stamped) ->
             check_bool "hseq increases along a lane" true (s.Trace.hseq > prev);
             s.Trace.hseq)
           (-1) lane))
    lanes

let test_edges_decode_kinds_and_endpoints () =
  let edges = Causal.edges synthetic_rendezvous_stream in
  check_int "three cross-hart edges" 3 (List.length edges);
  let kinds = List.map (fun (e : Causal.edge) -> e.Causal.e_kind) edges in
  check_bool "ipi edges present" true (List.mem "ipi" kinds);
  check_bool "rendezvous edge present" true (List.mem "rendezvous" kinds);
  let rdv_edge =
    List.find (fun (e : Causal.edge) -> e.Causal.e_kind = "rendezvous") edges
  in
  check_int "release edge leaves the straggler" 2 rdv_edge.Causal.e_src;
  check_int "release edge lands on the initiator" 0 rdv_edge.Causal.e_dst;
  check_int "edge carries the rdv id" 1 rdv_edge.Causal.e_id

let test_straggler_and_critical_path_synthetic () =
  match Causal.rendezvous synthetic_rendezvous_stream with
  | [ r ] ->
      check_int "rdv id" 1 r.Causal.r_id;
      check_int "two sends in send order" 2 (List.length r.Causal.r_sends);
      (match Causal.straggler r with
      | Some a ->
          check_int "straggler is the slow hart" 2 a.Causal.a_hart;
          check_float "straggler wait" 9.0 a.Causal.a_wait;
          check_int "straggler parked pc survives" 140 a.Causal.a_at
      | None -> Alcotest.fail "straggler expected for a contended rendezvous");
      let path = Causal.critical_path r in
      check_int "begin, send, ack, end" 4 (List.length path);
      let harts = List.map (fun (p : Causal.path_step) -> p.Causal.p_hart) path in
      check_bool "path crosses initiator and straggler" true
        (harts = [ 0; 0; 2; 0 ]);
      check_float "path length equals the reported latency" 9.0
        (Causal.critical_path_length r)
  | rs -> Alcotest.failf "expected one rendezvous, got %d" (List.length rs)

let test_rank_stragglers_orders_by_total_wait () =
  (* second rendezvous: hart 1 waits 3, hart 2 waits 2 — hart 2 still
     owns the most total wait (11 vs 7) despite an equal straggle count
     being impossible here; then flip hart 1 into the straggler slot and
     check total wait keeps ranking hart 2 first. *)
  let second =
    [
      st 20.0 9 0 5
        (Trace.Rendezvous_begin { rdv = 2; initiator = 0; waiting = 2 });
      st 20.0 10 0 6 (Trace.Ipi_send { rdv = 2; from_hart = 0; to_hart = 1 });
      st 20.0 11 0 7 (Trace.Ipi_send { rdv = 2; from_hart = 0; to_hart = 2 });
      st 22.0 12 2 2 (Trace.Ipi_ack { rdv = 2; hart = 2; wait = 2.0; at = 8 });
      st 23.0 13 1 2 (Trace.Ipi_ack { rdv = 2; hart = 1; wait = 3.0; at = 12 });
      st 23.0 14 0 8
        (Trace.Rendezvous_end { rdv = 2; initiator = 0; acks = 2; latency = 3.0 });
    ]
  in
  let rdvs = Causal.rendezvous (synthetic_rendezvous_stream @ second) in
  check_int "two rendezvous reconstructed" 2 (List.length rdvs);
  match Causal.rank_stragglers rdvs with
  | first :: second_rank :: _ ->
      check_int "hart 2 owns the most wait" 2 first.Causal.h_hart;
      check_float "its total wait" 11.0 first.Causal.h_total_wait;
      check_float "its worst wait" 9.0 first.Causal.h_max_wait;
      check_int "it straggled once" 1 first.Causal.h_straggled;
      check_int "hart 1 ranks second" 1 second_rank.Causal.h_hart;
      check_int "hart 1 acked both rendezvous" 2 second_rank.Causal.h_acks
  | rs -> Alcotest.failf "expected two ranked harts, got %d" (List.length rs)

let test_to_metrics_feeds_hart_histograms () =
  let m = Metrics.create () in
  Causal.to_metrics m (Causal.rendezvous synthetic_rendezvous_stream);
  (match Metrics.histogram_summary m "mv_hart_wait_cycles" [ ("hart", "2") ] with
  | Some h ->
      check_int "one observation for hart 2" 1 h.Metrics.hs_count;
      check_float "hart 2 wait total" 9.0 h.Metrics.hs_sum
  | None -> Alcotest.fail "mv_hart_wait_cycles{hart=2} missing");
  check_int "hart 2 counted as straggler" 1
    (Metrics.counter_value m "mv_stragglers_total" [ ("hart", "2") ]);
  check_int "hart 1 never straggled" 0
    (Metrics.counter_value m "mv_stragglers_total" [ ("hart", "1") ])

let test_chains_reconstruct_commit_causality () =
  let stream =
    [
      st 0.0 0 0 0
        (Trace.Commit_begin
           { cid = 3; op = "commit_safe"; switches = [ ("config_smp", 1) ] });
      st 1.0 1 0 1 (Trace.Safe_defer { cid = 3; fn = "spin_lock" });
      st 1.5 2 0 2 (Trace.Safe_deny { cid = 3; fn = "other" });
      st 2.0 3 0 3 (Trace.Commit_end { cid = 3; op = "commit_safe"; bound = 1 });
      st 7.0 4 1 0 (Trace.Pending_drained { cid = 3; pset = 1; actions = 1 });
      st 7.0 5 1 1
        (Trace.Causal_edge { edge = "drain"; id = 3; src_hart = 0; dst_hart = 1 });
    ]
  in
  match Causal.chains stream with
  | [ c ] ->
      check_int "cid" 3 c.Causal.c_cid;
      check_string "op" "commit_safe" c.Causal.c_op;
      check_int "commit ran on hart 0" 0 c.Causal.c_hart;
      check_float "begin ts" 0.0 c.Causal.c_begin_ts;
      (match c.Causal.c_end_ts with
      | Some ts -> check_float "end ts" 2.0 ts
      | None -> Alcotest.fail "span should have closed");
      check_bool "deferred work journaled" true
        (c.Causal.c_defers = [ "spin_lock" ]);
      check_bool "denied work recorded" true (c.Causal.c_denies = [ "other" ]);
      (match c.Causal.c_drained with
      | Some (hart, ts) ->
          check_int "drained on the other hart" 1 hart;
          check_float "drain ts" 7.0 ts
      | None -> Alcotest.fail "drain should be linked by cid");
      check_bool "no rollback" false c.Causal.c_rolled_back
  | cs -> Alcotest.failf "expected one chain, got %d" (List.length cs)

let test_pairing_checker_flags_violations () =
  check_bool "clean stream has no violations" true
    (Causal.check_send_ack_pairing synthetic_rendezvous_stream = []);
  (* drop hart 1's ack but keep the end: the completed rendezvous now
     has a send with no matching ack *)
  let broken =
    List.filter
      (fun (s : Trace.stamped) ->
        match s.Trace.ev with
        | Trace.Ipi_ack { hart = 1; _ } -> false
        | _ -> true)
      synthetic_rendezvous_stream
  in
  check_bool "missing ack is flagged" true
    (Causal.check_send_ack_pairing broken <> []);
  (* an ack for a hart that was never sent to *)
  let phantom =
    synthetic_rendezvous_stream
    @ [ st 10.0 9 3 0 (Trace.Ipi_ack { rdv = 1; hart = 3; wait = 1.0; at = 0 }) ]
  in
  check_bool "phantom ack is flagged" true
    (Causal.check_send_ack_pairing phantom <> [])

(* ------------------------------------------------------------------ *)
(* Pinned-seed SMP integration                                         *)
(* ------------------------------------------------------------------ *)

(* The mid-run-commit contended run from the SMP battery: both harts
   hammer the spinlock, a commit lands once interrupts are live, the
   run drains to completion. *)
let contended_run ?(metrics = false) ~seed () =
  let s = Harness.session1 ~n_harts:2 ~seed Spinlock.contended_source in
  Harness.enable_tracing s;
  if metrics then Harness.enable_metrics s;
  Harness.set s "config_smp" 1;
  ignore (Harness.commit s);
  Harness.start s ~hart:0 "worker" [ 20 ];
  Harness.start s ~hart:1 "worker" [ 20 ];
  let more = ref true in
  for _ = 1 to 120 do
    if !more then more := Harness.step s
  done;
  let m0 = Smp.machine s.Harness.smp 0 in
  while !more && not m0.Machine.irq_enabled do
    more := Harness.step s
  done;
  ignore (Harness.commit s);
  Harness.run s;
  s

let test_send_ack_invariant_on_pinned_seeds () =
  List.iter
    (fun seed ->
      let s = contended_run ~seed () in
      let events = Harness.trace_events s in
      (match Causal.check_send_ack_pairing events with
      | [] -> ()
      | v ->
          Alcotest.failf "seed %d: pairing violated: %s" seed
            (String.concat "; " v));
      check_bool "rendezvous happened" true (Causal.rendezvous events <> []))
    [ 1; 7; 42 ]

let test_critical_path_equals_reported_latency () =
  List.iter
    (fun seed ->
      let s = contended_run ~seed () in
      let completed =
        List.filter
          (fun (r : Causal.rendezvous) -> r.Causal.r_latency <> None)
          (Causal.rendezvous (Harness.trace_events s))
      in
      check_bool "completed rendezvous recorded" true (completed <> []);
      List.iter
        (fun (r : Causal.rendezvous) ->
          let latency = Option.get r.Causal.r_latency in
          check_bool "critical path reconstructed" true
            (Causal.critical_path r <> []);
          check_float
            (Printf.sprintf "seed %d rdv #%d path length" seed r.Causal.r_id)
            latency
            (Causal.critical_path_length r))
        completed)
    [ 1; 7; 42 ]

(* An interrupts-always-on spin kernel for the chaos storm: the slow-ack
   victim squanders its ack opportunities by executing, not by sitting in
   a cli section, so a generous budget cannot deadlock the rendezvous. *)
let storm_source =
  {|
  multiverse int config_smp;
  int lock_word;
  multiverse void spin_lock() {
    if (config_smp) { lock_word = lock_word + 1; }
  }
  void bench_loop(int n) {
    for (int i = 0; i < n; i = i + 1) { spin_lock(); }
  }
|}

(* A three-hart patch storm with hart 2's ack channel sabotaged: blame
   must deterministically finger hart 2. *)
let test_blame_fingers_injected_straggler () =
  let s = Harness.session1 ~n_harts:3 ~seed:42 storm_source in
  Harness.enable_tracing s;
  Smp.set_slow_ack s.Harness.smp (Some (2, 25));
  Harness.set s "config_smp" 1;
  for h = 0 to 2 do
    Harness.start s ~hart:h "bench_loop" [ 400 ]
  done;
  let more = ref true in
  for round = 1 to 3 do
    for _ = 1 to 120 do
      if !more then more := Harness.step s
    done;
    if round mod 2 = 1 then ignore (Harness.commit s)
    else ignore (Harness.revert s)
  done;
  Harness.run s;
  let events = Harness.trace_events s in
  let rdvs = Causal.rendezvous events in
  check_bool "storm produced rendezvous" true (rdvs <> []);
  match Causal.rank_stragglers rdvs with
  | top :: _ ->
      check_int "slow hart tops the blame ranking" 2 top.Causal.h_hart;
      check_bool "with positive attributed wait" true
        (top.Causal.h_total_wait > 0.0);
      check_bool "and at least one straggled rendezvous" true
        (top.Causal.h_straggled >= 1)
  | [] -> Alcotest.fail "no harts ranked"

let test_smp_metrics_carry_hart_labels () =
  let s = contended_run ~seed:7 () in
  (* replay the recorded stream through a registry wired like
     enable_metrics: the bridge is a pure sink, so feeding it the
     stamped events reproduces the labels the live wiring emits *)
  let m = Metrics.create () in
  Causal.to_metrics m (Causal.rendezvous (Harness.trace_events s));
  let with_wait =
    List.filter
      (fun h ->
        Metrics.histogram_summary m "mv_hart_wait_cycles"
          [ ("hart", string_of_int h) ]
        <> None)
      [ 0; 1 ]
  in
  check_bool "some hart accumulated rendezvous wait" true (with_wait <> [])

let test_live_smp_metrics_bridge () =
  (* the mid-run commit is what produces IPIs: only busy harts owe acks *)
  let s = contended_run ~metrics:true ~seed:1 () in
  let m = Option.get (Harness.metrics s) in
  check_bool "causal edges counted by kind" true
    (Metrics.counter_value m "mv_causal_edges_total" [ ("edge", "ipi") ] >= 1);
  let commit_hist_harts =
    List.filter
      (fun h ->
        Metrics.histogram_summary m "mv_patch_latency_cycles"
          [ ("op", "commit"); ("hart", string_of_int h) ]
        <> None)
      [ 0; 1 ]
  in
  check_bool "patch latency histogram carries a hart label" true
    (commit_hist_harts <> [])

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* one of each constructor *)
let sample_events =
  [
    Trace.Commit_begin { cid = 1; op = "commit"; switches = [ ("config_smp", 1) ] };
    Trace.Variant_selected { fn = "spin_lock"; variant = "spin_lock.config_smp=1" };
    Trace.Variant_unbound { fn = "spin_lock"; variant = "spin_lock.config_smp=1" };
    Trace.Site_retargeted { fn = "caller"; site = 10; target = 200 };
    Trace.Site_inlined { fn = "caller"; site = 12; target = 220 };
    Trace.Prologue_patched { fn = "spin_lock"; target = 240 };
    Trace.Fallback { fn = "other" };
    Trace.Safe_defer { cid = 1; fn = "spin_lock" };
    Trace.Safe_deny { cid = 1; fn = "other" };
    Trace.Safepoint_poll { pending = 1 };
    Trace.Pending_drained { cid = 1; pset = 3; actions = 2 };
    Trace.Pending_rollback { cid = 1; pset = 4 };
    Trace.Icache_flush { hart = 1; addr = 64; len = 8 };
    Trace.Ipi_send { rdv = 7; from_hart = 0; to_hart = 1 };
    Trace.Ipi_ack { rdv = 7; hart = 1; wait = 12.5; at = 128 };
    Trace.Rendezvous_begin { rdv = 7; initiator = 0; waiting = 1 };
    Trace.Rendezvous_end { rdv = 7; initiator = 0; acks = 1; latency = 12.5 };
    Trace.Causal_edge { edge = "ipi"; id = 7; src_hart = 0; dst_hart = 1 };
    Trace.Osr_transfer
      { cid = 1; hart = 2; fn = "spin_lock"; sp_id = 5; from_pc = 300; to_pc = 420; slots = 3 };
    Trace.Variant_materialized
      { fn = "spin_lock"; variant = "spin_lock.config_smp=1"; addr = 512; size = 24; dedup = true };
    Trace.Variant_evicted { fn = "spin_lock"; variant = "spin_lock.config_smp=1"; freed = 24 };
    Trace.Commit_end { cid = 1; op = "commit"; bound = 3 };
  ]

let counter_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

let test_flight_window_is_bounded () =
  let f = Flight.create ~capacity:4 ~clock:(counter_clock ()) () in
  for i = 0 to 9 do
    Flight.record f (Trace.Safepoint_poll { pending = i })
  done;
  check_int "recorded counts everything" 10 (Flight.recorded f);
  check_int "capacity" 4 (Flight.capacity f);
  check_int "dropped = recorded - capacity" 6 (Flight.dropped f);
  let window = Flight.events f in
  check_int "window holds the last four" 4 (List.length window);
  List.iteri
    (fun i (s : Trace.stamped) ->
      check_int "seq survives overflow" (6 + i) s.Trace.seq;
      check_int "hseq is dense in the window" i s.Trace.hseq;
      match s.Trace.ev with
      | Trace.Safepoint_poll { pending } ->
          check_int "oldest-first, newest kept" (6 + i) pending
      | _ -> Alcotest.fail "wrong event decoded")
    window

let test_flight_ring_roundtrip () =
  let kind_names = List.map (fun (Trace.Kind k) -> k.Trace.name) Trace.kinds in
  check_int "kind names are unique" (List.length kind_names)
    (List.length (List.sort_uniq compare kind_names));
  check_bool "one sample per kind" true
    (List.sort compare (List.map Trace.event_name sample_events)
    = List.sort compare kind_names);
  let f = Flight.create ~capacity:64 ~hart:(fun () -> 3) ~clock:(counter_clock ()) () in
  List.iter (Flight.record f) sample_events;
  let decoded = Flight.events f in
  check_int "every constructor decodes" (List.length sample_events)
    (List.length decoded);
  List.iter2
    (fun ev (s : Trace.stamped) ->
      if ev <> s.Trace.ev then
        Alcotest.failf "%s did not round-trip" (Trace.event_name ev))
    sample_events decoded;
  (* intrinsic hart attribution beats the hart source *)
  let ack =
    List.find
      (fun (s : Trace.stamped) ->
        match s.Trace.ev with Trace.Ipi_ack _ -> true | _ -> false)
      decoded
  in
  check_int "ack attributed to the acking hart" 1 ack.Trace.hart;
  let poll =
    List.find
      (fun (s : Trace.stamped) ->
        match s.Trace.ev with Trace.Safepoint_poll _ -> true | _ -> false)
      decoded
  in
  check_int "hart source stamps the rest" 3 poll.Trace.hart

let test_flight_dump_json_roundtrip () =
  let f = Flight.create ~capacity:64 ~clock:(counter_clock ()) () in
  List.iter (Flight.record f) sample_events;
  let doc =
    match Json.parse (Flight.dump_string f ~reason:"unit-test" ()) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "dump does not parse: %s" e
  in
  (match doc with
  | Json.Obj fields ->
      check_bool "schema tag" true
        (List.assoc_opt "schema" fields = Some (Json.String Flight.schema));
      check_bool "reason recorded" true
        (List.assoc_opt "reason" fields = Some (Json.String "unit-test"))
  | _ -> Alcotest.fail "dump is not an object");
  let reparsed = Flight.events_of_dump doc in
  check_int "dump decodes every event back" (List.length sample_events)
    (List.length reparsed);
  List.iter2
    (fun (a : Trace.stamped) (b : Trace.stamped) ->
      if a.Trace.ev <> b.Trace.ev then
        Alcotest.failf "%s did not survive the JSON round-trip"
          (Trace.event_name a.Trace.ev);
      check_float "timestamps survive" a.Trace.ts b.Trace.ts;
      check_int "harts survive" a.Trace.hart b.Trace.hart)
    (Flight.events f) reparsed;
  check_bool "unknown names decode to None" true
    (Flight.event_of_json "not_an_event" (Json.Obj []) = None)

(* Generated events of every kind in [Trace.kinds]: one generator per
   field type, walked over each kind's fields. *)
let gen_field : type a. a Trace.field -> a QCheck.Gen.t =
 fun field ->
  let open QCheck.Gen in
  (* quotes, backslashes, control bytes and non-ASCII among plain text *)
  let str =
    string_size (int_bound 12)
      ~gen:
        (frequency
           [
             (4, printable);
             (1, oneofl [ '"'; '\\' ]);
             (1, map Char.chr (int_bound 31));
             (1, map Char.chr (int_range 128 255));
           ])
  in
  match field with
  | Trace.Int _ -> oneof [ small_signed_int; int ]
  (* cycle counts as the simulator produces them: non-negative multiples
     of 1/4 below 2^30, which Json's %.12g writes exactly *)
  | Trace.Float _ ->
      map2
        (fun whole quarters -> float_of_int whole +. (float_of_int quarters /. 4.0))
        (int_bound ((1 lsl 30) - 1))
        (int_bound 3)
  | Trace.Str _ -> str
  | Trace.Bool _ -> bool
  | Trace.Switches _ -> list_size (int_bound 4) (pair str int)

let rec gen_values : type a. a Trace.fields -> a Trace.values QCheck.Gen.t = function
  | Trace.[] -> QCheck.Gen.return Trace.[]
  | Trace.(f :: fs) ->
      QCheck.Gen.map2 (fun v vs -> Trace.(v :: vs)) (gen_field f) (gen_values fs)

(* (kind name, event) pairs: one of every kind plus a random tail,
   shuffled *)
let gen_named_events =
  let open QCheck.Gen in
  let gen_of (Trace.Kind k) =
    map (fun vs -> (k.Trace.name, k.Trace.make vs)) (gen_values k.Trace.fields)
  in
  let every = flatten_l (List.map gen_of Trace.kinds) in
  let more = list_size (int_bound 24) (oneof (List.map gen_of Trace.kinds)) in
  map2 ( @ ) every more >>= shuffle_l

let prop_flight_roundtrip =
  QCheck.Test.make ~name:"flight round-trips generated events of every kind"
    ~count:200
    (QCheck.make gen_named_events ~print:(fun named ->
         String.concat "\n"
           (List.map (fun (_, ev) -> Format.asprintf "%a" Trace.pp_event ev) named)))
    (fun named ->
      List.iter
        (fun (name, ev) ->
          if Trace.event_name ev <> name then
            QCheck.Test.fail_reportf "%s built a %s" name (Trace.event_name ev))
        named;
      let evs = List.map snd named in
      let f =
        Flight.create ~capacity:(List.length evs) ~hart:(fun () -> 3)
          ~clock:(counter_clock ()) ()
      in
      List.iter (Flight.record f) evs;
      let window = Flight.events f in
      if List.map (fun (st : Trace.stamped) -> st.Trace.ev) window <> evs then
        QCheck.Test.fail_report "Flight.events changed an event";
      match Json.parse (Flight.dump_string f ~reason:"qcheck" ()) with
      | Error e -> QCheck.Test.fail_reportf "dump does not parse: %s" e
      | Ok doc ->
          (* ts, seq, hart, hseq and the event, all of them *)
          Flight.events_of_dump doc = window
          || QCheck.Test.fail_report "the dump did not decode back to the window")

(* The always-on recorder keeps the event the emitter already allocated:
   with a constant clock, recording allocates nothing, for every kind. *)
let test_flight_record_allocates_nothing () =
  let f = Flight.create ~capacity:8 ~hart:(fun () -> 3) ~clock:(fun () -> 0.0) () in
  let minor_words_of g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let baseline = minor_words_of (fun () -> ()) in
  List.iter
    (fun ev ->
      let words =
        minor_words_of (fun () ->
            for _ = 1 to 100 do
              Flight.record f ev
            done)
      in
      if words <> baseline then
        Alcotest.failf "recording %s allocates %.2f minor words per event"
          (Trace.event_name ev)
          ((words -. baseline) /. 100.0))
    sample_events

(* Run [f dir] on a fresh directory in the temp dir, then remove it with
   the files [f] left there. *)
let with_fresh_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_flight_artifact_writing () =
  let f = Flight.create ~capacity:8 ~clock:(counter_clock ()) () in
  Flight.record f (Trace.Fallback { fn = "f" });
  (* explicit dir wins over the environment *)
  with_fresh_dir "mvflight" (fun dir ->
      match Flight.write_artifact f ~reason:"unit-test" ~name:"probe" ~dir () with
      | Some path ->
          check_bool "written under dir" true (Filename.dirname path = dir);
          check_bool "flight.json suffix" true
            (Filename.check_suffix path ".flight.json");
          let ic = open_in path in
          let n = in_channel_length ic in
          let body = really_input_string ic n in
          close_in ic;
          (match Json.parse body with
          | Ok doc ->
              check_int "artifact decodes" 1 (List.length (Flight.events_of_dump doc))
          | Error e -> Alcotest.failf "artifact does not parse: %s" e)
      | None -> Alcotest.fail "write_artifact with ~dir must write");
  (* unwritable dir degrades to None instead of raising *)
  check_bool "unwritable dir returns None" true
    (Flight.write_artifact f ~reason:"unit-test" ~name:"probe"
       ~dir:"/proc/no-such-dir/nested" ()
    = None)

(* A guest whose last loop iteration divides by zero: the escaping Fault
   must make the session's trap hook drop a parseable mv-flight/1
   artifact into MV_SMP_ARTIFACT_DIR. *)
let trap_source =
  {|
  multiverse int config_smp;
  int lock_word;
  multiverse void spin_lock() {
    if (config_smp) { lock_word = lock_word + 1; }
  }
  void bench_loop(int n) {
    for (int i = 0; i < n; i = i + 1) {
      spin_lock();
      lock_word = lock_word / (n - 1 - i);
    }
  }
|}

(* Run [f dir] with MV_SMP_ARTIFACT_DIR pointing at a fresh directory. *)
let with_artifact_dir f =
  let saved = Sys.getenv_opt "MV_SMP_ARTIFACT_DIR" in
  with_fresh_dir "mvtrap" (fun dir ->
      Unix.putenv "MV_SMP_ARTIFACT_DIR" dir;
      Fun.protect
        ~finally:(fun () ->
          match saved with
          | Some v -> Unix.putenv "MV_SMP_ARTIFACT_DIR" v
          | None -> Unix.putenv "MV_SMP_ARTIFACT_DIR" "")
        (fun () -> f dir))

let flight_dumps dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".flight.json")

let test_trap_hook_writes_postmortem_artifact () =
  with_artifact_dir (fun dir ->
      let s = Harness.session1 trap_source in
      Harness.set s "config_smp" 1;
      ignore (Harness.commit s);
      (match Harness.call s "bench_loop" [ 5 ] with
      | exception Machine.Fault _ -> ()
      | _ -> Alcotest.fail "division by zero should fault");
      let dumps = flight_dumps dir in
      check_int "exactly one flight dump" 1 (List.length dumps);
      let path = Filename.concat dir (List.hd dumps) in
      let ic = open_in path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse body with
      | Error e -> Alcotest.failf "trap dump does not parse: %s" e
      | Ok (Json.Obj fields as doc) ->
          check_bool "mv-flight/1 schema" true
            (List.assoc_opt "schema" fields = Some (Json.String Flight.schema));
          check_bool "vm-trap reason" true
            (List.assoc_opt "reason" fields = Some (Json.String "vm-trap"));
          check_bool "fault message attached" true
            (List.mem_assoc "fault" fields);
          check_bool "runtime stats attached" true
            (List.mem_assoc "runtime" fields);
          check_bool "hart summaries attached" true
            (List.mem_assoc "harts" fields);
          check_bool "window decodes with events" true
            (Flight.events_of_dump doc <> [])
      | Ok _ -> Alcotest.fail "trap dump is not an object")

(* Trap numbering is shared by every session in the process: two domains
   trapping at once must never draw the same number, or one trap-N dump
   would overwrite the other. *)
let test_concurrent_traps_keep_every_dump () =
  let k = 40 in
  with_artifact_dir (fun dir ->
      let sessions =
        List.init 2 (fun _ ->
            let s = Harness.session1 trap_source in
            Harness.set s "config_smp" 1;
            ignore (Harness.commit s);
            s)
      in
      let trap_k_times s () =
        for _ = 1 to k do
          match Harness.call s "bench_loop" [ 5 ] with
          | exception Machine.Fault _ -> ()
          | _ -> Alcotest.fail "division by zero should fault"
        done
      in
      List.map (fun s -> Domain.spawn (trap_k_times s)) sessions
      |> List.iter Domain.join;
      check_int "one distinct dump per trap" (2 * k) (List.length (flight_dumps dir)))

let test_flight_events_always_on () =
  let s = Harness.session1 trap_source in
  Harness.set s "config_smp" 1;
  ignore (Harness.commit s);
  check_bool "flight records without any enable_* call" true
    (Flight.recorded (Harness.flight s) > 0);
  check_bool "window decodes" true (Harness.flight_events s <> []);
  match Json.parse (Harness.flight_dump s) with
  | Ok (Json.Obj fields) ->
      check_bool "on-demand dump carries the schema" true
        (List.assoc_opt "schema" fields = Some (Json.String Flight.schema))
  | Ok _ | Error _ -> Alcotest.fail "flight_dump must be a JSON object"

let test_smp_flight_always_on () =
  let s = contended_run ~seed:42 () in
  check_bool "container flight recorded the run" true
    (Flight.recorded (Harness.flight s) > 0);
  let window = Harness.flight_events s in
  check_bool "window decodes" true (window <> []);
  check_bool "window saw more than one hart" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun (st : Trace.stamped) -> st.Trace.hart) window))
    > 1);
  match Json.parse (Harness.flight_dump s) with
  | Ok doc ->
      check_int "dump round-trips the window" (List.length window)
        (List.length (Flight.events_of_dump doc))
  | Error e -> Alcotest.failf "smp flight dump does not parse: %s" e

(* The recorder must never move the simulated clock: a session that only
   has the always-on flight armed and one with the full opt-in
   observability stack must report bit-identical guest cycles. *)
let test_flight_zero_cycle_overhead () =
  let run enable =
    let s = Harness.session1 trap_source in
    if enable then begin
      Harness.enable_tracing s;
      Harness.enable_metrics s
    end;
    Harness.set s "config_smp" 1;
    ignore (Harness.commit s);
    let c = Harness.cycles_of_call s "bench_loop" [ 0 ] in
    (c, Flight.recorded (Harness.flight s))
  in
  let bare_cycles, bare_recorded = run false in
  let full_cycles, _ = run true in
  check_bool "flight was live during the bare run" true (bare_recorded > 0);
  check_bool "guest cycles are bit-identical" true (bare_cycles = full_cycles)

let suite =
  [
    tc "timelines partition the stream by hart" test_timelines_partition_by_hart;
    tc "causal edges decode kinds and endpoints"
      test_edges_decode_kinds_and_endpoints;
    tc "straggler and critical path on a synthetic rendezvous"
      test_straggler_and_critical_path_synthetic;
    tc "straggler ranking orders by total wait"
      test_rank_stragglers_orders_by_total_wait;
    tc "to_metrics feeds per-hart wait histograms"
      test_to_metrics_feeds_hart_histograms;
    tc "commit chains link defer and cross-hart drain"
      test_chains_reconstruct_commit_causality;
    tc "pairing checker flags missing and phantom acks"
      test_pairing_checker_flags_violations;
    tc_slow "send/ack pairing holds on pinned seeds"
      test_send_ack_invariant_on_pinned_seeds;
    tc_slow "critical path length equals reported latency"
      test_critical_path_equals_reported_latency;
    tc_slow "blame fingers an injected slow-ack straggler"
      test_blame_fingers_injected_straggler;
    tc "replayed stream yields hart wait histograms"
      test_smp_metrics_carry_hart_labels;
    tc "live SMP metrics bridge labels harts and counts edges"
      test_live_smp_metrics_bridge;
    tc "flight window is bounded and oldest-first" test_flight_window_is_bounded;
    tc "flight ring keeps every constructor" test_flight_ring_roundtrip;
    tc "flight dump JSON round-trips" test_flight_dump_json_roundtrip;
    (* pinned seed, QCHECK_SEED honoured — see test_props.ml *)
    Test_props.to_alcotest prop_flight_roundtrip;
    tc "flight record allocates nothing" test_flight_record_allocates_nothing;
    tc "flight artifacts write under an explicit dir"
      test_flight_artifact_writing;
    tc "trap hook writes a parseable postmortem artifact"
      test_trap_hook_writes_postmortem_artifact;
    tc "concurrent traps on two domains keep every dump"
      test_concurrent_traps_keep_every_dump;
    tc "flight is armed without any enable call" test_flight_events_always_on;
    tc "smp flight records cross-hart windows" test_smp_flight_always_on;
    tc "flight adds zero simulated cycles" test_flight_zero_cycle_overhead;
  ]
