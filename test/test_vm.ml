(* Machine-simulator tests: execution semantics around the stack and
   platform rules, the cost model's paper-relevant properties, branch
   prediction, performance counters, and the instruction-cache model that
   forces the runtime to flush after patching. *)

open Util
module Machine = Mv_vm.Machine
module Perf = Mv_vm.Perf
module Cost = Mv_vm.Cost
module Branch_pred = Mv_vm.Branch_pred
module Image = Mv_link.Image
module Insn = Mv_isa.Insn

let cycles_of (s : Harness.session) fn args =
  let before = Perf.cycles s.machine.Machine.perf in
  let _ = Mv_vm.Machine.call s.machine fn args in
  Perf.cycles s.machine.Machine.perf -. before

let test_state_persists_across_calls () =
  let s = session "int counter; int bump() { counter = counter + 1; return counter; }" in
  check_int "first" 1 (run s "bump" []);
  check_int "second" 2 (run s "bump" []);
  check_int "third" 3 (run s "bump" [])

let test_stack_discipline () =
  let s = session "int f(int n) { if (n == 0) { return 0; } return f(n - 1) + 1; }" in
  let sp_before = s.machine.Machine.regs.(Insn.sp) in
  check_int "deep recursion" 200 (run s "f" [ 200 ]);
  (* call resets sp to stack base each time; a second call must also work *)
  check_int "again" 100 (run s "f" [ 100 ]);
  ignore sp_before

let test_irq_state () =
  let s = session "void off() { __cli(); } void on() { __sti(); }" in
  check_bool "initially enabled" true s.machine.Machine.irq_enabled;
  ignore (run s "off" []);
  check_bool "disabled after cli" false s.machine.Machine.irq_enabled;
  ignore (run s "on" []);
  check_bool "enabled after sti" true s.machine.Machine.irq_enabled

let test_xen_platform_rules () =
  (* raw cli faults in a PV guest; hypercalls fault on native *)
  let s = session ~platform:Machine.Xen "void f() { __cli(); }" in
  (match run s "f" [] with
  | exception Machine.Fault _ -> ()
  | _ -> Alcotest.fail "cli must fault in a PV guest");
  let s2 = session "void f() { __hypercall(1); }" in
  (match run s2 "f" [] with
  | exception Machine.Fault _ -> ()
  | _ -> Alcotest.fail "hypercall must fault on native hardware");
  let s3 = session ~platform:Machine.Xen "void f() { __hypercall(1); }" in
  ignore (run s3 "f" []);
  check_int "hypercall counted" 1 s3.machine.Machine.perf.Perf.hypercalls

let test_perf_counters () =
  let s =
    session
      {|int w;
        int f(int n) {
          for (int i = 0; i < n; i++) {
            w = w + 1;
            __atomic_xchg(&w, i);
          }
          return w;
        }|}
  in
  let before = Perf.snapshot s.machine.Machine.perf in
  ignore (run s "f" [ 10 ]);
  let d = Perf.diff before (Perf.snapshot s.machine.Machine.perf) in
  check_int "atomics" 10 d.Perf.s_atomics;
  check_bool "instructions counted" true (d.Perf.s_instructions > 50);
  check_bool "branches counted" true (d.Perf.s_branches >= 10);
  check_bool "cycles advance" true (d.Perf.s_cycles > 0.0);
  check_bool "loads and stores" true (d.Perf.s_loads > 0 && d.Perf.s_stores > 0)

let test_mispredict_cost_is_significant () =
  (* the paper's core argument: a data-dependent branch costs ~16 cycles
     when mispredicted.  Alternate the branch direction so the predictor
     keeps failing, and compare against a constant direction. *)
  let src =
    {|int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          if (i & 1) { s = s + 1; } else { s = s + 2; }
        }
        return s;
      }
      int g(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          if (0 < 1) { s = s + 1; } else { s = s + 2; }
        }
        return s;
      }|}
  in
  let s = session src in
  ignore (run s "f" [ 200 ]);
  ignore (run s "g" [ 200 ]);
  let alternating = cycles_of s "f" [ 200 ] /. 200.0 in
  let constant = cycles_of s "g" [ 200 ] /. 200.0 in
  (* the alternating pattern is learnable by gshare history, but the first
     iterations mispredict; with a cold predictor the gap must be large *)
  Branch_pred.flush s.machine.Machine.bp;
  let cold = cycles_of s "f" [ 200 ] /. 200.0 in
  check_bool "constant branch is cheap" true (constant < alternating +. 1.0);
  check_bool "cold predictor pays" true (cold > constant)

let test_branch_predictor_learns () =
  let bp = Branch_pred.create () in
  (* train: always taken at one pc *)
  let correct = ref 0 in
  for _ = 1 to 100 do
    if Branch_pred.conditional bp ~pc:0x1234 ~taken:true then incr correct
  done;
  check_bool "mostly correct after warmup" true (!correct > 80);
  (* flushing forgets *)
  Branch_pred.flush bp;
  check_bool "first prediction after flush can miss" true
    (let c = Branch_pred.conditional bp ~pc:0x1234 ~taken:true in
     (not c) || c)

let test_btb_indirect () =
  let bp = Branch_pred.create () in
  check_bool "first indirect misses" false (Branch_pred.indirect bp ~pc:0x10 ~target:0x100);
  check_bool "repeat hits" true (Branch_pred.indirect bp ~pc:0x10 ~target:0x100);
  check_bool "target change misses" false (Branch_pred.indirect bp ~pc:0x10 ~target:0x200)

let test_atomic_dominates_spinlock_cost () =
  (* Figure 1's 28.8 vs 6.6: the atomic exchange must dominate *)
  let locked = session "int w; void f() { __cli(); int r = __atomic_xchg(&w, 1); w = 0; __sti(); }" in
  let elided = session "void f() { __cli(); __sti(); }" in
  ignore (run locked "f" []);
  ignore (run elided "f" []);
  let c_locked = cycles_of locked "f" [] in
  let c_elided = cycles_of elided "f" [] in
  check_bool "locked is several times more expensive" true (c_locked > c_elided *. 2.5)

(* Overwrite a function body without flushing: the machine must keep
   executing the stale decode; after the flush it sees the new code.  This
   is exactly why Section 4 flushes after patching.  [finish] runs the
   superblock cache, [Machine.finish_ref] the reference stepper's
   per-instruction one; each must model the staleness. *)
let test_icache_staleness finish () =
  let s = session "int f() { return 1; }" in
  let img = s.program.Core.Compiler.p_image in
  let run_f () =
    Machine.start_call s.machine "f" [];
    finish s.machine
  in
  check_int "original" 1 (run_f ());
  let f = Image.symbol img "f" in
  (* patch [mov32 r0, 1] to [mov32 r0, 2] behind the machine's back *)
  Image.mprotect img ~addr:f ~len:16 Image.prot_rwx;
  Image.write_bytes img f (Mv_isa.Encode.encode (Insn.Mov_ri32 (0, 2)));
  Image.mprotect img ~addr:f ~len:16 Image.prot_rx;
  check_int "stale decode still returns 1" 1 (run_f ());
  Machine.flush_icache s.machine ~addr:f ~len:16;
  check_int "after flush returns 2" 2 (run_f ())

let test_fetch_outside_text_faults () =
  let s = session "int f() { return 1; }" in
  match Machine.call_addr s.machine 0x50 [] with
  | exception Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fetch fault"

let test_step_limit () =
  let program = build "void f() { while (1) { } }" in
  let machine = Machine.create ~max_steps:50_000 program.Core.Compiler.p_image in
  match Machine.call machine "f" [] with
  | exception Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected the step limit to trip"

let test_rdtsc_reads_cycles () =
  let s = session "int f() { int a = __rdtsc(); int b = __rdtsc(); return b - a; }" in
  check_bool "tsc advances" true (run s "f" [] > 0)

let test_cost_table_sanity () =
  let c = Cost.default in
  check_bool "mispredict ~16" true (c.Cost.mispredict_penalty >= 14.0 && c.Cost.mispredict_penalty <= 20.0);
  check_bool "atomic is heavy" true (c.Cost.atomic > 10.0);
  check_bool "nop is almost free" true (c.Cost.nop < c.Cost.mov);
  check_bool "indirect call costs more" true (c.Cost.call_ind > 0.0);
  (* the conversion helpers agree: 3e9 cycles = 1 second = 1000 ms *)
  check_bool "cycles_to_seconds" true (abs_float (Cost.cycles_to_seconds 3e9 -. 1.0) < 1e-9);
  check_bool "cycles_to_ms" true (abs_float (Cost.cycles_to_ms 3e9 -. 1000.0) < 1e-6)

let suite =
  [
    tc "state persists across calls" test_state_persists_across_calls;
    tc "stack discipline under recursion" test_stack_discipline;
    tc "irq state tracks cli/sti" test_irq_state;
    tc "platform rules (native vs Xen)" test_xen_platform_rules;
    tc "performance counters" test_perf_counters;
    tc "misprediction is expensive" test_mispredict_cost_is_significant;
    tc "branch predictor learns" test_branch_predictor_learns;
    tc "BTB for indirect calls" test_btb_indirect;
    tc "atomic dominates spinlock cost" test_atomic_dominates_spinlock_cost;
    tc "icache staleness until flush (Section 4)" (test_icache_staleness Machine.finish);
    tc "icache staleness until flush, reference stepper"
      (test_icache_staleness Machine.finish_ref);
    tc "fetch outside text faults" test_fetch_outside_text_faults;
    tc "machine step limit" test_step_limit;
    tc "rdtsc reads the cycle counter" test_rdtsc_reads_cycles;
    tc "cost table sanity" test_cost_table_sanity;
  ]
