(* The SMP interleaving battery: deterministic multi-hart scheduling,
   the stop_machine rendezvous, breakpoint-first text_poke, cross-hart
   quiescence for safe commits, and the chaos hook that breaks one
   hart's IPI/flush channel.

   Every schedule here is pinned by a seed: the suite runs under the
   seeds in [seeds] (the pinned trio plus an optional MV_SMP_SEED from
   the environment — CI rotates one).  On failure the failing seed and
   a trace dump land in $MV_SMP_ARTIFACT_DIR for offline replay. *)

open Util
module Harness = Mv_workloads.Harness
module Spinlock = Mv_workloads.Spinlock
module Pvops = Mv_workloads.Pvops
module Runtime = Core.Runtime
module Smp = Mv_vm.Smp
module Machine = Mv_vm.Machine
module Perf = Mv_vm.Perf
module Trace = Mv_obs.Trace
module Image = Mv_link.Image

(* ------------------------------------------------------------------ *)
(* Seeds and failure artifacts                                         *)
(* ------------------------------------------------------------------ *)

let seeds =
  [ 1; 7; 42 ]
  @
  match Sys.getenv_opt "MV_SMP_SEED" with
  | None -> []
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n -> [ n ]
    | None -> [])

(* Run [f], handing it a dump cell the test refines once it has a
   session; on failure write seed + dump to $MV_SMP_ARTIFACT_DIR (when
   set) before re-raising, so CI can upload the failing schedule. *)
let with_artifact ~name ~seed f =
  let dump = ref (fun () -> Printf.sprintf "{\"seed\": %d}" seed) in
  try f dump
  with e ->
    (match Sys.getenv_opt "MV_SMP_ARTIFACT_DIR" with
    | None -> ()
    | Some dir -> (
        try
          if not (Sys.file_exists dir) then
            ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)));
          let file = Filename.concat dir (Printf.sprintf "%s-seed%d.json" name seed) in
          let oc = open_out file in
          output_string oc (!dump ());
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "[smp] seed %d failed %s; artifact: %s\n%!" seed name file
        with _ -> ()));
    raise e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Workload sources                                                    *)
(* ------------------------------------------------------------------ *)

let spin_src = {|
  void w(int n) {
    for (int i = 0; i < n; i = i + 1) {
    }
  }
|}

let id_src = {|
  int id(int x) { return x; }
|}

let order_src = {|
  int stamp;
  int order0;
  int order1;
  void w0(int n) {
    for (int i = 0; i < n; i = i + 1) {
    }
    stamp = stamp + 1;
    order0 = stamp;
  }
  void w1(int n) {
    for (int i = 0; i < n; i = i + 1) {
    }
    stamp = stamp + 1;
    order1 = stamp;
  }
|}

(* interrupts held off across the loop: the ack must wait for __sti *)
let cli_burst_src = {|
  int x;
  void w(int n) {
    __cli();
    for (int i = 0; i < n; i = i + 1) {
      x = x + 1;
    }
    __sti();
  }
|}

(* per-iteration cli/sti windows for the handshake enumerations *)
let cli_window_src = {|
  int x;
  void w(int n) {
    for (int i = 0; i < n; i = i + 1) {
      __cli();
      x = x + 1;
      __sti();
    }
  }
|}

let hang_src = {|
  int x;
  void hang() {
    __cli();
    while (x < 1000000000) {
      x = x + 1;
    }
    __sti();
  }
|}

(* twin leaf bodies: the text_poke tests overwrite seven with nine *)
let poke_src = {|
  int acc;
  int seven() { return 7; }
  int nine() { return 9; }
  void loop(int n) {
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + seven();
    }
  }
|}

(* a multiversed increment: mode=0 adds 1 per call, mode=1 adds 2 — the
   icache-coherence probe measures which variant a hart actually runs *)
let tick_src = {|
  multiverse int mode;
  int acc;
  multiverse void tick() {
    if (mode) {
      acc = acc + 2;
    } else {
      acc = acc + 1;
    }
  }
  void work(int n) {
    for (int i = 0; i < n; i = i + 1) {
      tick();
    }
  }
  void spin(int n) {
    for (int i = 0; i < n; i = i + 1) {
    }
  }
|}

(* the safe-commit deferral workload from the single-hart suite *)
let defer_src = {|
  multiverse bool m;
  int w;
  multiverse void f() { if (m) { w = w + 100; } }
  void spacer() { w = w + 1; }
  int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
|}

(* Step hart [h] until its pc reaches [fn]'s entry. *)
let park_hart s ~hart fn =
  let img = s.Harness.program.Core.Compiler.p_image in
  let addr = Image.symbol img fn in
  let m = Smp.machine s.Harness.smp hart in
  let guard = ref 1_000_000 in
  while m.Machine.pc <> addr && !guard > 0 do
    decr guard;
    ignore (Smp.step_hart s.Harness.smp hart)
  done;
  check_bool (Printf.sprintf "hart %d parked at %s" hart fn) true
    (m.Machine.pc = addr)

(* ------------------------------------------------------------------ *)
(* Container basics                                                    *)
(* ------------------------------------------------------------------ *)

(* A 1-hart container wired for cross-modifying code — what a multi-hart
   session installs at creation (Harness.enable_stop_machine) — must
   reproduce the plain machine bit for bit: same cycles, same
   instruction count, even though its commits run under the rendezvous
   barrier and the text_poke writer.  The fair baseline carries the
   same safe-commit wiring (the safepoint hook charges its poll cost). *)
let test_single_hart_bit_identity () =
  let src = Spinlock.source Spinlock.Multiverse in
  let plain = session src in
  Runtime.set_live_scanner plain.runtime (fun () ->
      Machine.live_code_addrs plain.machine);
  Machine.set_safepoint plain.machine
    (Some (fun () -> Runtime.safepoint plain.runtime));
  set_global plain "config_smp" 1;
  ignore (Runtime.commit plain.runtime);
  ignore (run plain "bench_loop" [ 40 ]);
  let smp = Harness.session1 ~n_harts:1 src in
  Harness.enable_stop_machine smp;
  Harness.set smp "config_smp" 1;
  ignore (Harness.commit smp);
  Harness.start smp ~hart:0 "bench_loop" [ 40 ];
  Harness.run smp;
  let mp = plain.machine and ms = Smp.machine smp.Harness.smp 0 in
  if Perf.cycles mp.Machine.perf <> Perf.cycles ms.Machine.perf then
    Alcotest.failf "cycles diverge: plain %.1f (%d insns) vs smp %.1f (%d insns)"
      (Perf.cycles mp.Machine.perf) mp.Machine.perf.Perf.instructions
      (Perf.cycles ms.Machine.perf) ms.Machine.perf.Perf.instructions;
  check_int "identical instruction count" mp.Machine.perf.Perf.instructions
    ms.Machine.perf.Perf.instructions;
  check_int "hart 0 keeps the image stack base" ms.Machine.stack_base
    smp.Harness.program.Core.Compiler.p_image.Image.stack_base

let test_per_hart_isolation () =
  let s = Harness.session1 ~n_harts:3 id_src in
  let smp = s.Harness.smp in
  check_int "disjoint stack slices"
    ((Smp.machine smp 0).Machine.stack_base - Smp.hart_stack_bytes)
    (Smp.machine smp 1).Machine.stack_base;
  check_int "slices stack downwards"
    ((Smp.machine smp 0).Machine.stack_base - (2 * Smp.hart_stack_bytes))
    (Smp.machine smp 2).Machine.stack_base;
  Harness.start s ~hart:0 "id" [ 10 ];
  Harness.start s ~hart:1 "id" [ 20 ];
  Harness.start s ~hart:2 "id" [ 30 ];
  Harness.run s;
  check_int "hart 0 result" 10 (Harness.result s ~hart:0);
  check_int "hart 1 result" 20 (Harness.result s ~hart:1);
  check_int "hart 2 result" 30 (Harness.result s ~hart:2)

let test_round_robin_fairness () =
  let s = Harness.session1 ~n_harts:2 spin_src in
  Harness.start s ~hart:0 "w" [ 1000 ];
  Harness.start s ~hart:1 "w" [ 1000 ];
  for _ = 1 to 100 do
    ignore (Harness.step s)
  done;
  let i h = (Smp.machine s.Harness.smp h).Machine.perf.Perf.instructions in
  check_bool "round-robin alternates" true (abs (i 0 - i 1) <= 1)

let test_round_robin_determinism () =
  let run () = Spinlock.run_contended ~n_harts:2 ~seed:11 ~smp:true ~iters:25 () in
  let s1, c1 = run () and s2, c2 = run () in
  check_int "same counter" c1 c2;
  check_bool "same total clock" true
    (Smp.clock s1.Harness.smp = Smp.clock s2.Harness.smp)

let test_weighted_random_determinism () =
  let run () =
    Spinlock.run_contended ~n_harts:2
      ~policy:(Smp.Weighted_random [| 1; 2 |])
      ~seed:11 ~smp:true ~iters:25 ()
  in
  let s1, c1 = run () and s2, c2 = run () in
  check_int "same counter" c1 c2;
  check_bool "same total clock" true
    (Smp.clock s1.Harness.smp = Smp.clock s2.Harness.smp);
  check_bool "same per-hart split" true
    ((Smp.machine s1.Harness.smp 0).Machine.perf.Perf.instructions
    = (Smp.machine s2.Harness.smp 0).Machine.perf.Perf.instructions)

(* A race-free program's outcome must not depend on the schedule. *)
let test_seed_invariance_race_free () =
  let counter seed =
    snd
      (Spinlock.run_contended ~n_harts:2
         ~policy:(Smp.Weighted_random [| 2; 1 |])
         ~seed ~smp:true ~iters:25 ())
  in
  check_int "seed 11" 50 (counter 11);
  check_int "seed 47" 50 (counter 47);
  check_int "seed 9001" 50 (counter 9001)

let test_zero_weight_starves_under_competition () =
  let s =
    Harness.session1 ~n_harts:2
      ~policy:(Smp.Weighted_random [| 1; 0 |])
      ~seed:3 order_src
  in
  Harness.start s ~hart:0 "w0" [ 20 ];
  Harness.start s ~hart:1 "w1" [ 20 ];
  Harness.run s;
  check_int "weighted hart finished first" 1 (Harness.get s "order0");
  check_int "starved hart ran once alone" 2 (Harness.get s "order1")

let test_all_zero_weights_run_lowest_first () =
  let s =
    Harness.session1 ~n_harts:2
      ~policy:(Smp.Weighted_random [| 0; 0 |])
      ~seed:3 order_src
  in
  Harness.start s ~hart:0 "w0" [ 20 ];
  Harness.start s ~hart:1 "w1" [ 20 ];
  Harness.run s;
  check_int "hart 0 first" 1 (Harness.get s "order0");
  check_int "hart 1 still completes" 2 (Harness.get s "order1")

(* The schedule itself, pinned: a 4-hart contended run with a commit
   after 300 steps, recording the hart that ran each [Harness.step] and
   then the order in which the harts acked the commit's rendezvous (whose
   picks exclude the initiator).  The expected lengths and digests are
   those of an earlier scheduler that built a candidate list on every
   pick, so a match shows that the same harts run and the same random
   draws are made; the determinism tests above only compare two runs of
   one build.  Not seed-swept: the figures belong to seed 7. *)
let schedule_fingerprint policy =
  let s = Harness.session1 ~n_harts:4 ~policy ~seed:7 Spinlock.contended_source in
  Harness.set s "config_smp" 1;
  ignore (Harness.commit s);
  Harness.enable_tracing s;
  for h = 0 to 3 do
    Harness.start s ~hart:h "worker" [ 12 ]
  done;
  let buf = Buffer.create 4096 in
  let step () =
    let more = Harness.step s in
    Buffer.add_char buf (Char.chr (Char.code '0' + Smp.current_hart s.Harness.smp));
    more
  in
  let more = ref true and steps = ref 0 in
  while !more && !steps < 300 do
    more := step ();
    incr steps
  done;
  (* commit where hart 0, the initiator, can take part *)
  let m0 = Smp.machine s.Harness.smp 0 in
  while !more && not m0.Machine.irq_enabled do
    more := step ()
  done;
  check_bool "the commit lands mid-run" true !more;
  ignore (Harness.commit s);
  while step () do
    ()
  done;
  check_int "exact counter" 48 (Harness.get s "counter");
  let steps = Buffer.length buf in
  List.iter
    (fun (e : Trace.stamped) ->
      match e.Trace.ev with
      | Trace.Ipi_ack { hart; _ } -> Buffer.add_char buf (Char.chr (Char.code 'a' + hart))
      | _ -> ())
    (Harness.trace_events s);
  check_int "every other hart acked once" 3 (Buffer.length buf - steps);
  (steps, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_schedule_pinned () =
  let check what policy (len, digest) =
    let l, d = schedule_fingerprint policy in
    check_int (what ^ ": steps") len l;
    check_string (what ^ ": schedule digest") digest d
  in
  check "round robin" Smp.Round_robin (1812, "0704d0660da7222adc2076572d512714");
  check "weighted random" (Smp.Weighted_random [| 3; 1; 0; 2 |])
    (1327, "b65ba1636bef4fb36672a9111f0b7c4e");
  (* no zero weight: the last hart to ack is a lone candidate of nonzero
     weight, which must run without a draw *)
  check "weighted random, no zero weight" (Smp.Weighted_random [| 1; 2; 1; 2 |])
    (1640, "2ed4b3d58bad45d114062b6e160346ee")

(* ------------------------------------------------------------------ *)
(* Contended critical sections                                         *)
(* ------------------------------------------------------------------ *)

let test_contended_exact_two_harts () =
  List.iter
    (fun seed ->
      with_artifact ~name:"contended-2" ~seed @@ fun dump ->
      let s, counter =
        Spinlock.run_contended ~n_harts:2 ~seed ~smp:true ~iters:30 ()
      in
      dump :=
        (fun () ->
          Printf.sprintf "{\"seed\": %d, \"counter\": %d, \"clock\": %f}" seed
            counter (Smp.clock s.Harness.smp));
      check_int (Printf.sprintf "exact counter (seed %d)" seed) 60 counter)
    seeds

let test_contended_exact_four_harts () =
  List.iter
    (fun seed ->
      with_artifact ~name:"contended-4" ~seed @@ fun dump ->
      let s, counter =
        Spinlock.run_contended ~n_harts:4
          ~policy:(Smp.Weighted_random [| 3; 1; 2; 1 |])
          ~seed ~smp:true ~iters:15 ()
      in
      dump :=
        (fun () ->
          Printf.sprintf "{\"seed\": %d, \"counter\": %d, \"clock\": %f}" seed
            counter (Smp.clock s.Harness.smp));
      check_int (Printf.sprintf "exact counter (seed %d)" seed) 60 counter)
    seeds

(* With the lock elided on two harts the non-atomic read-modify-write
   races: round-robin interleaves the load/store pairs and loses
   updates — the observable difference the lock exists to prevent. *)
let test_elided_lock_races () =
  let _, counter =
    Spinlock.run_contended ~n_harts:2 ~seed:1 ~smp:false ~iters:50 ()
  in
  check_bool "updates lost without the lock" true (counter < 100);
  check_bool "but both harts made progress" true (counter > 0)

let test_midrun_commit_under_contention () =
  List.iter
    (fun seed ->
      with_artifact ~name:"midrun-commit" ~seed @@ fun dump ->
      let s, counter =
        Spinlock.run_contended ~n_harts:2 ~seed ~commit_at:120 ~smp:true
          ~iters:30 ()
      in
      let smp = s.Harness.smp in
      dump :=
        (fun () ->
          Printf.sprintf
            "{\"seed\": %d, \"counter\": %d, \"ipis\": %d, \"acks\": %d}" seed
            counter (Smp.ipis_sent smp) (Smp.ipi_acks smp));
      check_int (Printf.sprintf "counter survives the rendezvous (seed %d)" seed)
        60 counter;
      check_bool "the rendezvous posted IPIs" true (Smp.ipis_sent smp >= 1);
      check_int "every IPI was acknowledged" (Smp.ipis_sent smp)
        (Smp.ipi_acks smp);
      check_bool "rendezvous recorded" true (Smp.rendezvous_count smp >= 1))
    seeds

let test_pvops_native_smp () =
  let s = Pvops.smp_stress ~n_harts:3 ~seed:5 ~iters:40 Machine.Native in
  for h = 0 to 2 do
    check_int (Printf.sprintf "hart %d stress clean" h) 0
      (Harness.result s ~hart:h);
    check_bool
      (Printf.sprintf "hart %d interrupts balanced" h)
      true
      (Smp.machine s.Harness.smp h).Machine.irq_enabled
  done

let test_pvops_xen_smp () =
  let s = Pvops.smp_stress ~n_harts:2 ~seed:5 ~iters:40 Machine.Xen in
  for h = 0 to 1 do
    check_int (Printf.sprintf "hart %d stress clean" h) 0
      (Harness.result s ~hart:h)
  done;
  check_int "event mask released" 0 (Harness.get s "xen_mask");
  for h = 0 to 1 do
    check_bool
      (Printf.sprintf "hart %d did its own work" h)
      true
      ((Smp.machine s.Harness.smp h).Machine.perf.Perf.instructions > 0)
  done

(* ------------------------------------------------------------------ *)
(* The stop_machine rendezvous                                         *)
(* ------------------------------------------------------------------ *)

let test_idle_harts_owe_no_acks () =
  let s = Harness.session1 ~n_harts:4 spin_src in
  Harness.enable_tracing s;
  ignore (Harness.commit s);
  let smp = s.Harness.smp in
  check_int "no IPIs to halted harts" 0 (Smp.ipis_sent smp);
  check_bool "rendezvous still ran" true (Smp.rendezvous_count smp >= 1);
  let waiting_zero =
    List.exists
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | Trace.Rendezvous_begin { waiting; _ } -> waiting = 0
        | _ -> false)
      (Harness.trace_events s)
  in
  check_bool "begin event shows zero waiters" true waiting_zero

let test_cli_section_delays_ack () =
  let s = Harness.session1 ~n_harts:2 cli_burst_src in
  Harness.enable_tracing s;
  let smp = s.Harness.smp in
  Harness.start s ~hart:1 "w" [ 10 ];
  let m1 = Smp.machine smp 1 in
  let guard = ref 100 in
  while m1.Machine.irq_enabled && !guard > 0 do
    decr guard;
    ignore (Smp.step_hart smp 1)
  done;
  check_bool "hart 1 is in its cli section" false m1.Machine.irq_enabled;
  check_int "patch thunk ran at the rendezvous" 42
    (Smp.stop_machine smp (fun () -> 42));
  let delayed =
    List.exists
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | Trace.Ipi_ack { hart = 1; wait; _ } -> wait > 0.0
        | _ -> false)
      (Harness.trace_events s)
  in
  check_bool "the ack waited for __sti" true delayed;
  Harness.run s;
  check_int "hart 1 released and completed" 10 (Harness.get s "x")

(* Exhaustively enumerate when the stop request lands relative to hart
   1's progress through per-iteration cli/sti windows: every offset must
   converge to exactly one ack, and release must leave the hart able to
   finish its work. *)
let test_handshake_enumeration_two_harts () =
  let s = Harness.session1 ~n_harts:2 cli_window_src in
  let smp = s.Harness.smp in
  let total = ref 0 in
  for k = 0 to 14 do
    Harness.start s ~hart:1 "w" [ 4 ];
    for _ = 1 to k do
      ignore (Smp.step_hart smp 1)
    done;
    let owed = Smp.rendezvous_post smp ~initiator:0 in
    check_int (Printf.sprintf "one ack owed (offset %d)" k) 1 owed;
    let acks_before = Smp.ipi_acks smp in
    let guard = ref 5_000 in
    while (not (Smp.rendezvous_complete smp)) && !guard > 0 do
      decr guard;
      ignore (Smp.step_hart smp 1)
    done;
    check_bool (Printf.sprintf "handshake converges (offset %d)" k) true
      (Smp.rendezvous_complete smp);
    check_int (Printf.sprintf "exactly one ack (offset %d)" k)
      (acks_before + 1) (Smp.ipi_acks smp);
    check_int "thunk result" 99 (Smp.rendezvous_finish smp (fun () -> 99));
    check_bool "hart released" true (Smp.runnable smp 1);
    Harness.run s;
    total := !total + 4;
    check_int (Printf.sprintf "work completed (offset %d)" k) !total
      (Harness.get s "x")
  done

(* Three harts, enumerated ack orders: drive harts 1 and 2 in every
   4-slot order before letting the scheduler finish the gather. *)
let test_handshake_enumeration_three_harts () =
  let s = Harness.session1 ~n_harts:3 cli_window_src in
  let smp = s.Harness.smp in
  for sched = 0 to 15 do
    Harness.start s ~hart:1 "w" [ 4 ];
    Harness.start s ~hart:2 "w" [ 4 ];
    let owed = Smp.rendezvous_post smp ~initiator:0 in
    check_int "two acks owed" 2 owed;
    let acks_before = Smp.ipi_acks smp in
    for slot = 0 to 3 do
      let hart = 1 + ((sched lsr slot) land 1) in
      ignore (Smp.step_hart smp hart)
    done;
    let guard = ref 5_000 in
    while (not (Smp.rendezvous_complete smp)) && !guard > 0 do
      decr guard;
      ignore (Smp.step_hart smp 1);
      ignore (Smp.step_hart smp 2)
    done;
    check_bool (Printf.sprintf "gather converges (schedule %d)" sched) true
      (Smp.rendezvous_complete smp);
    check_int (Printf.sprintf "both acked once (schedule %d)" sched)
      (acks_before + 2) (Smp.ipi_acks smp);
    ignore (Smp.rendezvous_finish smp (fun () -> ()));
    check_bool "hart 1 released" true (Smp.runnable smp 1);
    check_bool "hart 2 released" true (Smp.runnable smp 2);
    Harness.run s
  done

let test_nested_stop_machine () =
  let s = Harness.session1 ~n_harts:2 spin_src in
  let smp = s.Harness.smp in
  Harness.start s ~hart:1 "w" [ 50 ];
  let r = Smp.stop_machine smp (fun () -> Smp.stop_machine smp (fun () -> 7)) in
  check_int "nested thunk ran directly" 7 r;
  check_int "one rendezvous, not two" 1 (Smp.rendezvous_count smp);
  Harness.run s

(* A hart that never re-enables interrupts can never ack: the gather
   must fault (instead of hanging) and the cleanup must leave the
   container consistent — nothing parked, nothing pending. *)
let test_rendezvous_deadlock_faults () =
  let p = build hang_src in
  let smp = Smp.create ~max_steps:20_000 ~n_harts:2 p.Core.Compiler.p_image in
  Smp.start_call smp ~hart:1 "hang" [];
  let m1 = Smp.machine smp 1 in
  let guard = ref 100 in
  while m1.Machine.irq_enabled && !guard > 0 do
    decr guard;
    ignore (Smp.step_hart smp 1)
  done;
  (match Smp.stop_machine smp (fun () -> 0) with
  | _ -> Alcotest.fail "expected the gather to fault"
  | exception Machine.Fault _ -> ());
  check_bool "victim not left parked" true (Smp.runnable smp 1);
  (* the failed rendezvous was fully cleaned up: a new one can post *)
  check_int "a new rendezvous can post" 1 (Smp.rendezvous_post smp ~initiator:0)

(* ------------------------------------------------------------------ *)
(* Cross-modifying text (text_poke)                                    *)
(* ------------------------------------------------------------------ *)

let test_text_poke_phases_and_brk_spin () =
  let s = Harness.session1 ~n_harts:2 poke_src in
  let smp = s.Harness.smp in
  let img = s.Harness.program.Core.Compiler.p_image in
  let seven = Image.symbol img "seven" and nine = Image.symbol img "nine" in
  let nine_sz = Image.symbol_size img "nine" in
  check_int "twin bodies" (Image.symbol_size img "seven") nine_sz;
  let nine_bytes = Image.read_bytes img nine nine_sz in
  Harness.start s ~hart:1 "loop" [ 5 ];
  park_hart s ~hart:1 "seven";
  let m1 = Smp.machine smp 1 in
  Smp.text_poke_start smp ~addr:seven nine_bytes;
  let c0 = Perf.cycles m1.Machine.perf in
  ignore (Smp.step_hart smp 1);
  ignore (Smp.step_hart smp 1);
  check_int "spinning on the trap byte" seven m1.Machine.pc;
  check_bool "the spin charges cycles" true (Perf.cycles m1.Machine.perf > c0);
  check_bool "tail phase does not finish the poke" false (Smp.text_poke_step smp);
  ignore (Smp.step_hart smp 1);
  check_int "still spinning while the trap guards the entry" seven m1.Machine.pc;
  check_bool "final phase finishes the poke" true (Smp.text_poke_step smp);
  Harness.run s;
  check_int "every call saw the patched body" 45 (Harness.get s "acc")

(* Exhaustive schedule enumeration: interleave the three poke phases at
   every position among 8 hart-execution slots.  Under the breakpoint
   protocol each of the 3 calls must return the old value or the new
   one — never a torn hybrid, never a fault. *)
let test_poke_interleaving_never_tears () =
  let s = Harness.session1 ~n_harts:2 poke_src in
  let smp = s.Harness.smp in
  let img = s.Harness.program.Core.Compiler.p_image in
  let seven = Image.symbol img "seven" and nine = Image.symbol img "nine" in
  let nine_sz = Image.symbol_size img "nine" in
  let nine_bytes = Image.read_bytes img nine nine_sz in
  let orig_bytes = Image.read_bytes img seven nine_sz in
  let n_slots = 8 in
  let combos = ref 0 in
  for a = 0 to n_slots do
    for b = a to n_slots do
      for c = b to n_slots do
        incr combos;
        Harness.set s "acc" 0;
        Harness.start s ~hart:1 "loop" [ 3 ];
        let positions = [| a; b; c |] in
        let ops =
          [|
            (fun () -> Smp.text_poke_start smp ~addr:seven nine_bytes);
            (fun () -> ignore (Smp.text_poke_step smp));
            (fun () -> ignore (Smp.text_poke_step smp));
          |]
        in
        let applied = ref 0 in
        for slot = 0 to n_slots - 1 do
          while !applied < 3 && positions.(!applied) = slot do
            ops.(!applied) ();
            incr applied
          done;
          ignore (Smp.step_hart smp 1)
        done;
        while !applied < 3 do
          ops.(!applied) ();
          incr applied
        done;
        Harness.run s;
        let acc = Harness.get s "acc" in
        if not (acc >= 21 && acc <= 27 && (acc - 21) mod 2 = 0) then
          Alcotest.failf "torn result %d for poke positions (%d,%d,%d)" acc a b
            c;
        (* restore the original body for the next schedule *)
        Smp.text_poke smp ~addr:seven orig_bytes
      done
    done
  done;
  check_bool "enumerated the full schedule space" true (!combos >= 150)

(* ------------------------------------------------------------------ *)
(* Cross-hart quiescence (safe commit)                                 *)
(* ------------------------------------------------------------------ *)

let test_cross_hart_quiescence_defers () =
  let s = Harness.session1 ~n_harts:2 defer_src in
  let smp = s.Harness.smp in
  Harness.set s "m" 1;
  Harness.start s ~hart:1 "driver" [];
  park_hart s ~hart:1 "f";
  (* hart 0 is idle — only the cross-hart scanner can see hart 1's
     activation inside f *)
  let m1 = Smp.machine smp 1 in
  check_bool "hart 1's pc is a live code address" true
    (List.mem m1.Machine.pc (Smp.live_code_addrs smp));
  check_bool "frames aggregate across harts" true
    (List.length (Smp.call_frames smp) >= 2);
  check_int "live function not bound now" 0 (Harness.commit_safe s);
  check_bool "f journaled, not patched" true
    (Runtime.pending s.Harness.runtime = [ "f" ]);
  (* the binding decision is journaled: flipping the switch now must not
     change which variant drains at the safepoint *)
  Harness.set s "m" 0;
  Harness.run s;
  check_int "variant landed between the calls" 102
    (Harness.result s ~hart:1);
  check_bool "journal drained" true (Runtime.pending s.Harness.runtime = [])

let test_per_hart_safepoint_drains_once () =
  let s = Harness.session1 ~n_harts:2 defer_src in
  Harness.enable_tracing s;
  Harness.set s "m" 1;
  Harness.start s ~hart:1 "driver" [];
  park_hart s ~hart:1 "f";
  ignore (Harness.commit_safe s);
  Harness.run s;
  let drains =
    List.length
      (List.filter
         (fun (st : Trace.stamped) ->
           match st.Trace.ev with Trace.Pending_drained _ -> true | _ -> false)
         (Harness.trace_events s))
  in
  check_int "drained exactly once" 1 drains;
  let st = Runtime.stats s.Harness.runtime in
  check_int "applied exactly once" 1 st.Runtime.st_safe_applied;
  check_int "no rollbacks" 0 st.Runtime.st_safe_rolled_back;
  check_int "journal empty" 0 st.Runtime.st_pending

(* A safe commit injected mid-run while one hart executes the patched
   function and another spins: under every pinned seed the flip is
   atomic per call — each tick adds 1 (old variant) or 2 (new), and
   the total stays in the reachable window. *)
let test_midrun_safe_flip_deterministic () =
  let once seed =
    let s = Harness.session1 ~n_harts:2 ~seed tick_src in
    Harness.enable_tracing s;
    Harness.set s "mode" 0;
    ignore (Harness.commit s);
    Harness.start s ~hart:0 "spin" [ 200 ];
    Harness.start s ~hart:1 "work" [ 30 ];
    let more = ref true in
    for _ = 1 to 150 do
      if !more then more := Harness.step s
    done;
    Harness.set s "mode" 1;
    ignore (Harness.commit_safe s);
    Harness.run s;
    (s, Harness.get s "acc")
  in
  List.iter
    (fun seed ->
      with_artifact ~name:"midrun-flip" ~seed @@ fun dump ->
      let s, acc = once seed in
      dump :=
        (fun () ->
          Printf.sprintf "{\"seed\": %d, \"acc\": %d, \"trace\": %s}" seed acc
            (Harness.trace_dump s));
      if acc < 30 || acc > 60 then
        Alcotest.failf "torn tick total %d (seed %d)" acc seed;
      let _, acc' = once seed in
      check_int (Printf.sprintf "replay is bit-identical (seed %d)" seed) acc
        acc')
    seeds

(* ------------------------------------------------------------------ *)
(* Icache coherence and the drop-ack chaos channel                     *)
(* ------------------------------------------------------------------ *)

let test_commit_reaches_every_hart () =
  let s = Harness.session1 ~n_harts:2 tick_src in
  Harness.set s "mode" 0;
  ignore (Harness.commit s);
  Harness.start s ~hart:1 "work" [ 10 ];
  Harness.run s;
  check_int "mode 0 adds 1 per call" 10 (Harness.get s "acc");
  Harness.set s "mode" 1;
  ignore (Harness.commit s);
  Harness.start s ~hart:1 "work" [ 10 ];
  Harness.run s;
  check_int "hart 1 runs the new variant" 30 (Harness.get s "acc");
  Harness.start s ~hart:0 "work" [ 5 ];
  Harness.run s;
  check_int "hart 0 runs the new variant" 40 (Harness.get s "acc")

(* Break hart 1's flush channel: after the next commit it keeps
   executing its stale decoded call and adds 1 per tick while healthy
   hart 0 adds 2 — the observable divergence the fuzzer's drop-ack
   chaos mode must catch. *)
let test_dropped_flush_leaves_stale_icache () =
  let s = Harness.session1 ~n_harts:2 tick_src in
  Harness.set s "mode" 0;
  ignore (Harness.commit s);
  Harness.start s ~hart:1 "work" [ 10 ];
  Harness.run s;
  check_int "warm cache on the victim" 10 (Harness.get s "acc");
  Smp.set_drop_ack s.Harness.smp (Some 1);
  Harness.set s "mode" 1;
  ignore (Harness.commit s);
  Harness.start s ~hart:1 "work" [ 10 ];
  Harness.run s;
  check_int "victim executes the stale variant" 20 (Harness.get s "acc");
  Harness.start s ~hart:0 "work" [ 10 ];
  Harness.run s;
  check_int "healthy hart is coherent" 40 (Harness.get s "acc")

let test_flush_events_carry_hart_ids () =
  let s = Harness.session1 ~n_harts:2 tick_src in
  Harness.enable_tracing s;
  Harness.set s "mode" 1;
  ignore (Harness.commit s);
  let flush_harts =
    List.filter_map
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | Trace.Icache_flush { hart; _ } -> Some hart
        | _ -> None)
      (Harness.trace_events s)
  in
  check_bool "hart 0 flushed" true (List.mem 0 flush_harts);
  check_bool "hart 1 flushed" true (List.mem 1 flush_harts);
  check_bool "no phantom harts" true
    (List.for_all (fun h -> h = 0 || h = 1) flush_harts)

let test_send_ack_pairing_in_trace () =
  let s = Harness.session1 ~n_harts:2 Spinlock.contended_source in
  Harness.enable_tracing s;
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
  check_int "counter exact across the rendezvous" 40 (Harness.get s "counter");
  let sends = ref 0 and acks = ref 0 and ends = ref 0 in
  List.iter
    (fun (st : Trace.stamped) ->
      match st.Trace.ev with
      | Trace.Ipi_send _ -> incr sends
      | Trace.Ipi_ack { wait; _ } ->
          check_bool "ack latency is non-negative" true (wait >= 0.0);
          incr acks
      | Trace.Rendezvous_end { latency; _ } ->
          check_bool "rendezvous latency is non-negative" true (latency >= 0.0);
          incr ends
      | _ -> ())
    (Harness.trace_events s);
  check_bool "IPIs were posted" true (!sends >= 1);
  check_int "every send has its ack" !sends !acks;
  check_bool "rendezvous spans closed" true (!ends >= 1)

(* ------------------------------------------------------------------ *)
(* Profiling and accounting                                            *)
(* ------------------------------------------------------------------ *)

let test_per_hart_stackprof_attribution () =
  let s = Harness.session1 ~n_harts:2 ~seed:5 Spinlock.contended_source in
  Harness.set s "config_smp" 1;
  ignore (Harness.commit s);
  Harness.enable_stack_profiling ~interval:7 s;
  Harness.start s ~hart:0 "worker" [ 30 ];
  Harness.start s ~hart:1 "worker" [ 30 ];
  Harness.run s;
  check_int "one profiler per hart" 2 (Array.length s.Harness.stackprofs);
  let roots =
    List.sort_uniq compare
      (List.map (fun r -> List.hd r.Mv_obs.Stackprof.s_stack) (Harness.stack_report s))
  in
  check_bool "the report covers both harts" true (roots = [ "hart0"; "hart1" ]);
  let folded = Harness.folded_dump s in
  check_bool "hart 0 frames attributed" true (contains folded "hart0;");
  check_bool "hart 1 frames attributed" true (contains folded "hart1;")

let test_clock_and_seed_accessors () =
  let s = Harness.session1 ~n_harts:2 ~seed:42 spin_src in
  let smp = s.Harness.smp in
  check_int "seed is recorded" 42 (Smp.seed smp);
  Harness.start s ~hart:0 "w" [ 10 ];
  Harness.start s ~hart:1 "w" [ 25 ];
  Harness.run s;
  let sum =
    Perf.cycles (Smp.machine smp 0).Machine.perf
    +. Perf.cycles (Smp.machine smp 1).Machine.perf
  in
  check_bool "clock sums per-hart cycles" true (Smp.clock smp = sum);
  check_bool "clock advanced" true (Smp.clock smp > 0.0)

(* ------------------------------------------------------------------ *)
(* On-stack replacement under the rendezvous                           *)
(* ------------------------------------------------------------------ *)

(* Hart 0 loops inside a multiversed body while hart 1 runs independent
   work; a safe commit journaled mid-loop can only drain by *moving* hart
   0's activation into the variant at one of its safepoints — and the
   move runs inside the stop_machine rendezvous, with hart 1 parked
   mid-handshake.  Swept over the pinned seed set: every schedule must
   transfer, drain, and leave both harts' results exact. *)
let osr_smp_src =
  {|
  multiverse bool m;
  int w;
  int z;
  void tick() { w = w + 1; }
  multiverse int spin(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
      tick();
      if (m) { acc = acc + 2; } else { acc = acc + 1; }
      i = i + 1;
    }
    return acc;
  }
  int driver(int n) { w = 0; return spin(n); }
  int other(int n) {
    int i = 0;
    while (i < n) { z = z + 1; i = i + 1; }
    return z;
  }
|}

let osr_run_once ~seed =
  let s = Harness.session1 ~n_harts:2 ~seed osr_smp_src in
  Harness.enable_osr s;
  Harness.set s "m" 1;
  Harness.start s ~hart:0 "driver" [ 30 ];
  Harness.start s ~hart:1 "other" [ 100 ];
  let img = s.Harness.program.Core.Compiler.p_image in
  let spin_addr = Image.symbol img "spin" in
  let spin_size = Image.symbol_size img "spin" in
  let m0 = Smp.machine s.Harness.smp 0 in
  let guard = ref 100_000 in
  while
    (m0.Machine.pc < spin_addr || m0.Machine.pc >= spin_addr + spin_size)
    && !guard > 0
  do
    decr guard;
    ignore (Harness.step s)
  done;
  let bound = Harness.commit_safe s in
  Harness.set s "m" 0;
  Harness.run s;
  (s, bound)

let test_osr_transfer_deterministic_per_seed () =
  List.iter
    (fun seed ->
      with_artifact ~name:"osr-transfer" ~seed @@ fun dump ->
      let s, bound = osr_run_once ~seed in
      let smp = s.Harness.smp in
      let st = Runtime.stats s.Harness.runtime in
      dump :=
        (fun () ->
          Printf.sprintf
            "{\"seed\": %d, \"transfers\": %d, \"aborts\": %d, \"pending\": %d}"
            seed st.Runtime.st_osr_transfers st.Runtime.st_osr_aborts
            st.Runtime.st_pending);
      check_int (Printf.sprintf "live spin deferred (seed %d)" seed) 0 bound;
      check_bool (Printf.sprintf "transferred (seed %d)" seed) true
        (st.Runtime.st_osr_transfers >= 1);
      check_int (Printf.sprintf "journal drained (seed %d)" seed) 0
        st.Runtime.st_pending;
      check_bool (Printf.sprintf "rendezvous ran (seed %d)" seed) true
        (Smp.rendezvous_count smp >= 1);
      check_int (Printf.sprintf "hart 1 exact (seed %d)" seed) 100
        (Harness.result s ~hart:1);
      let r0 = Harness.result s ~hart:0 in
      check_bool (Printf.sprintf "hart 0 in envelope (seed %d, %d)" seed r0) true
        (r0 >= 30 && r0 <= 60);
      (* the schedule — and so the transfer point and the result — is a
         pure function of the seed *)
      let s', _ = osr_run_once ~seed in
      check_int (Printf.sprintf "replay is bit-equal (seed %d)" seed) r0
        (Harness.result s' ~hart:0))
    seeds

let suite =
  [
    tc "single-hart container is bit-identical" test_single_hart_bit_identity;
    tc "per-hart stacks and registers are isolated" test_per_hart_isolation;
    tc "round-robin alternates fairly" test_round_robin_fairness;
    tc "round-robin schedule is deterministic" test_round_robin_determinism;
    tc "weighted-random schedule is deterministic" test_weighted_random_determinism;
    tc "race-free outcome is seed-invariant" test_seed_invariance_race_free;
    tc "zero weight starves only under competition"
      test_zero_weight_starves_under_competition;
    tc "all-zero weights fall back to lowest hart"
      test_all_zero_weights_run_lowest_first;
    tc_slow "contended spinlock is exact on 2 harts" test_contended_exact_two_harts;
    tc_slow "contended spinlock is exact on 4 harts" test_contended_exact_four_harts;
    tc "elided lock races on 2 harts" test_elided_lock_races;
    tc_slow "mid-run commit rendezvous under contention"
      test_midrun_commit_under_contention;
    tc "pvops stress across harts (native)" test_pvops_native_smp;
    tc "pvops stress across harts (xen)" test_pvops_xen_smp;
    tc "idle harts owe no acks" test_idle_harts_owe_no_acks;
    tc "cli section delays the ack" test_cli_section_delays_ack;
    tc "handshake enumeration, 2 harts" test_handshake_enumeration_two_harts;
    tc "handshake enumeration, 3 harts" test_handshake_enumeration_three_harts;
    tc "nested stop_machine runs the thunk directly" test_nested_stop_machine;
    tc "rendezvous deadlock faults and cleans up" test_rendezvous_deadlock_faults;
    tc "text_poke phases and Brk spin" test_text_poke_phases_and_brk_spin;
    tc_slow "poke/execute interleaving never tears"
      test_poke_interleaving_never_tears;
    tc "cross-hart quiescence defers a live patch"
      test_cross_hart_quiescence_defers;
    tc "per-hart safepoints drain exactly once"
      test_per_hart_safepoint_drains_once;
    tc_slow "mid-run safe flip is deterministic per seed"
      test_midrun_safe_flip_deterministic;
    tc "commit reaches every hart's icache" test_commit_reaches_every_hart;
    tc "dropped flush leaves a stale icache" test_dropped_flush_leaves_stale_icache;
    tc "flush events carry hart ids" test_flush_events_carry_hart_ids;
    tc "IPI sends pair with acks in the trace" test_send_ack_pairing_in_trace;
    tc "per-hart stack profile attribution" test_per_hart_stackprof_attribution;
    tc_slow "OSR transfer is deterministic per seed"
      test_osr_transfer_deterministic_per_seed;
    tc "clock and seed accessors" test_clock_and_seed_accessors;
    tc "the schedule is pinned (round robin and weighted)" test_schedule_pinned;
  ]
