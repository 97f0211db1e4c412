(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus the ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig1  # one experiment
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- --fast       # fewer samples

   An unknown experiment id or a stray argument exits 2 with the list of
   experiment ids.

   Cycle numbers come from the deterministic machine simulator; wall-clock
   numbers (patch time, the host-ms rows) are measured on the host.  The
   EXPERIMENTS.md file records these outputs against the paper's values. *)

module H = Mv_workloads.Harness
module Spinlock = Mv_workloads.Spinlock
module Pvops = Mv_workloads.Pvops
module Musl = Mv_workloads.Musl
module Grep = Mv_workloads.Grep
module Pygc = Mv_workloads.Pygc
module Farm = Mv_workloads.Callsite_farm
module Machine = Mv_vm.Machine
module Json = Mv_obs.Json

let fast = ref false
let samples () = if !fast then 40 else 150

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

(* --json collector: experiments append labelled rows under the id the
   driver is currently running; at exit the tables are written as one
   mv-bench-rows/1 document (schema documented in EXPERIMENTS.md).
   --baseline needs the same rows, so either flag arms the collector. *)
let json_path : string option ref = ref None
let baseline_path : string option ref = ref None
let current_exp = ref ""
let json_tables : (string * Json.t list ref) list ref = ref []

let jrow label (fields : (string * Json.t) list) =
  if !json_path <> None || !baseline_path <> None then begin
    let tbl =
      match List.assoc_opt !current_exp !json_tables with
      | Some t -> t
      | None ->
          let t = ref [] in
          json_tables := !json_tables @ [ (!current_exp, t) ];
          t
    in
    tbl := Json.Obj (("label", Json.String label) :: fields) :: !tbl
  end

(* Row whose fields are full measurements (mean/stddev/percentiles). *)
let jmeas label pairs =
  jrow label (List.map (fun (k, m) -> (k, H.measurement_json m)) pairs)

let tables_doc () =
  Json.Obj
    [
      ("schema", Json.String "mv-bench-rows/1");
      ("fast", Json.Bool !fast);
      ( "experiments",
        Json.Obj
          (List.map (fun (id, rows) -> (id, Json.List (List.rev !rows))) !json_tables) );
    ]

let write_json_tables path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty (tables_doc ())));
  Printf.printf "results -> %s\n" path

(* --baseline: structural diff of this run's rows against a committed
   mv-bench-rows/1 document (same comparison mvtrace diff performs). *)
let print_baseline_diff path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse contents with
  | Error m -> Printf.eprintf "baseline %s: %s\n" path m
  | Ok base -> (
      match Mv_obs.Analyze.bench_diff ~base ~fresh:(tables_doc ()) () with
      | Error m -> Printf.eprintf "baseline diff: %s\n" m
      | Ok deltas ->
          header (Printf.sprintf "diff vs baseline %s" path);
          Format.printf "%a@." (Mv_obs.Analyze.pp_deltas ~only_changed:true) deltas)

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — static vs dynamic vs multiverse spinlock             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header
    "E1 / Figure 1: spinlock lock+unlock, avg cycles\n\
     (paper: SMP=false: A=6.64 B=9.75 C=7.48; SMP=true: ~28.8 all)";
  row "%-12s %14s %15s %14s\n" "[avg cycles]" "A (static)" "B (dynamic if)" "C (multiverse)";
  List.iter
    (fun (label, a, b, c) ->
      row "%-12s %14.2f %15.2f %14.2f\n" label a.H.m_mean b.H.m_mean c.H.m_mean;
      jmeas label [ ("static", a); ("dynamic_if", b); ("multiverse", c) ])
    (Spinlock.figure1 ~samples:(samples ()) ())

(* ------------------------------------------------------------------ *)
(* E2: Figure 4 left — four kernels, unicore vs multicore              *)
(* ------------------------------------------------------------------ *)

let fig4_spinlock () =
  header
    "E2 / Figure 4 (left): spinlock (lock+unlock) across kernel builds\n\
     (paper shape: unicore ifdef < multiverse < if << mainline; multicore all ~equal)";
  row "%-28s %10s %12s\n" "kernel" "unicore" "multicore";
  List.iter
    (fun k ->
      let up = Spinlock.measure ~samples:(samples ()) k ~smp:false in
      match k with
      | Spinlock.Static_up ->
          row "%-28s %10.2f %12s\n" (Spinlock.kernel_name k) up.H.m_mean "n/a";
          jmeas (Spinlock.kernel_name k) [ ("unicore", up) ]
      | _ ->
          let smp = Spinlock.measure ~samples:(samples ()) k ~smp:true in
          row "%-28s %10.2f %12.2f\n" (Spinlock.kernel_name k) up.H.m_mean smp.H.m_mean;
          jmeas (Spinlock.kernel_name k) [ ("unicore", up); ("multicore", smp) ])
    [ Spinlock.Mainline_smp; Spinlock.If_elision; Spinlock.Multiverse; Spinlock.Static_up ]

(* ------------------------------------------------------------------ *)
(* E3: Figure 4 right — PV-Ops sti+cli                                 *)
(* ------------------------------------------------------------------ *)

let fig4_pvops () =
  header
    "E3 / Figure 4 (right): paravirtual operations (cli+sti), avg cycles\n\
     (paper shape: native all ~equal; Xen guest: multiverse < current)";
  row "%-30s %10s %12s\n" "kernel" "native" "XEN (guest)";
  List.iter
    (fun c ->
      let native = Pvops.measure ~samples:(samples ()) c ~platform:Machine.Native in
      match c with
      | Pvops.Static_native ->
          row "%-30s %10.2f %12s\n" (Pvops.config_name c) native.H.m_mean "n/a";
          jmeas (Pvops.config_name c) [ ("native", native) ]
      | Pvops.Current | Pvops.Multiverse ->
          let xen = Pvops.measure ~samples:(samples ()) c ~platform:Machine.Xen in
          row "%-30s %10.2f %12.2f\n" (Pvops.config_name c) native.H.m_mean xen.H.m_mean;
          jmeas (Pvops.config_name c) [ ("native", native); ("xen", xen) ])
    [ Pvops.Current; Pvops.Multiverse; Pvops.Static_native ]

(* ------------------------------------------------------------------ *)
(* E4: patch cost (Section 6.1 scalars)                                *)
(* ------------------------------------------------------------------ *)

let patch_cost () =
  header
    "E4 / Section 6.1 scalars: patching 1161 spinlock call sites\n\
     (paper: 1161 call sites, ~16 ms patch time, +40 KiB image)";
  let r = Farm.run ~sites:1161 () in
  row "call sites recorded      %d\n" r.Farm.r_callsites;
  row "commit wall-clock        %.2f ms\n" r.Farm.r_commit_ms;
  row "revert wall-clock        %.2f ms\n" r.Farm.r_revert_ms;
  row "individual patches       %d\n" r.Farm.r_patches;
  row "bytes patched            %d\n" r.Farm.r_bytes_patched;
  row "descriptor overhead      %d B\n" r.Farm.r_descriptor_bytes;
  row "variant text             %d B\n" r.Farm.r_variant_text_bytes;
  row "total multiverse bytes   %d B (paper: ~40 KiB for the whole kernel)\n"
    (r.Farm.r_descriptor_bytes + r.Farm.r_variant_text_bytes);
  jrow "farm-1161"
    [
      ("callsites", Json.Int r.Farm.r_callsites);
      ("commit_ms", Json.Float r.Farm.r_commit_ms);
      ("revert_ms", Json.Float r.Farm.r_revert_ms);
      ("patches", Json.Int r.Farm.r_patches);
      ("bytes_patched", Json.Int r.Farm.r_bytes_patched);
      ("descriptor_bytes", Json.Int r.Farm.r_descriptor_bytes);
      ("variant_text_bytes", Json.Int r.Farm.r_variant_text_bytes);
    ]

(* ------------------------------------------------------------------ *)
(* E4b: patch-cost scaling (call sites vs commit time)                  *)
(* ------------------------------------------------------------------ *)

let patch_scaling () =
  header
    "E4b / scaling: commit wall-clock vs number of recorded call sites\n\
     (the paper argues patch speed is not crucial, Section 7.1 — the cost\n\
    \ should scale linearly in the call sites)";
  row "%-12s %14s %14s %16s\n" "call sites" "commit (ms)" "revert (ms)" "bytes patched";
  List.iter
    (fun sites ->
      let r = Farm.run ~sites () in
      row "%-12d %14.3f %14.3f %16d\n" r.Farm.r_callsites r.Farm.r_commit_ms
        r.Farm.r_revert_ms r.Farm.r_bytes_patched;
      jrow (string_of_int sites)
        [
          ("callsites", Json.Int r.Farm.r_callsites);
          ("commit_ms", Json.Float r.Farm.r_commit_ms);
          ("revert_ms", Json.Float r.Farm.r_revert_ms);
          ("bytes_patched", Json.Int r.Farm.r_bytes_patched);
        ])
    [ 100; 400; 1600; 6400 ]

(* ------------------------------------------------------------------ *)
(* E5: Figure 5 — musl                                                  *)
(* ------------------------------------------------------------------ *)

let fig5_musl () =
  header
    "E5 / Figure 5: musl, accumulated ms for 10M invocations\n\
     (paper single-threaded deltas: random -43%, malloc(0) -51%, malloc(1) -54%, fputc -53%;\n\
    \ multi-threaded: no significant change)";
  List.iter
    (fun threads ->
      row "\n-- %s --\n" (if threads = 0 then "single-threaded" else "multi-threaded");
      row "%-12s %16s %16s %8s\n" "function" "w/o multiverse" "w/ multiverse" "delta";
      List.iter
        (fun bench ->
          let plain = Musl.measure ~samples:(samples ()) Musl.Plain bench ~threads in
          let mv = Musl.measure ~samples:(samples ()) Musl.Multiversed bench ~threads in
          let p_ms = Musl.to_ms_for plain ~invocations:10_000_000 in
          let m_ms = Musl.to_ms_for mv ~invocations:10_000_000 in
          row "%-12s %13.1f ms %13.1f ms %+7.1f%%\n" (Musl.bench_name bench) p_ms m_ms
            ((m_ms -. p_ms) /. p_ms *. 100.0);
          jrow
            (Printf.sprintf "%s/threads=%d" (Musl.bench_name bench) threads)
            [ ("plain_ms", Json.Float p_ms); ("multiverse_ms", Json.Float m_ms) ])
        Musl.all_benches)
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)
(* E6: musl scalars — fputc bandwidth and branch reduction             *)
(* ------------------------------------------------------------------ *)

let musl_scalars () =
  header
    "E6 / Section 6.2.2 scalars\n\
     (paper: fputc bandwidth 124 -> 264 MiB/s; branches -40% for malloc(1))";
  let plain_fputc = Musl.measure ~samples:(samples ()) Musl.Plain Musl.Fputc ~threads:0 in
  let mv_fputc = Musl.measure ~samples:(samples ()) Musl.Multiversed Musl.Fputc ~threads:0 in
  row "fputc bandwidth w/o multiverse  %8.0f MiB/s\n" (Musl.fputc_bandwidth plain_fputc);
  row "fputc bandwidth w/  multiverse  %8.0f MiB/s\n" (Musl.fputc_bandwidth mv_fputc);
  let bp = Musl.branches_per_call Musl.Plain Musl.Malloc1 ~threads:0 in
  let bm = Musl.branches_per_call Musl.Multiversed Musl.Malloc1 ~threads:0 in
  row "branches/call malloc(1) w/o multiverse  %6.2f\n" bp;
  row "branches/call malloc(1) w/  multiverse  %6.2f (%+.0f%%)\n" bm
    ((bm -. bp) /. bp *. 100.0);
  jrow "fputc-bandwidth"
    [
      ("plain_mib_s", Json.Float (Musl.fputc_bandwidth plain_fputc));
      ("multiverse_mib_s", Json.Float (Musl.fputc_bandwidth mv_fputc));
    ];
  jrow "malloc1-branches"
    [ ("plain", Json.Float bp); ("multiverse", Json.Float bm) ]

(* ------------------------------------------------------------------ *)
(* E7: grep                                                             *)
(* ------------------------------------------------------------------ *)

let grep () =
  header
    "E7 / Section 6.2.3: grep \"a.a\" over hexadecimal random text\n\
     (paper: 7.84 s -> 7.63 s for 2 GiB, -2.73%)";
  let rounds = if !fast then 8 else 25 in
  let plain = Grep.cycles_per_byte ~rounds Grep.Plain ~mb_mode:0 in
  let mv = Grep.cycles_per_byte ~rounds Grep.Multiversed ~mb_mode:0 in
  row "cycles/byte w/o multiverse   %.3f  (projected %.2f s / 2 GiB)\n" plain
    (Grep.seconds_for_2gib plain);
  row "cycles/byte w/  multiverse   %.3f  (projected %.2f s / 2 GiB)\n" mv
    (Grep.seconds_for_2gib mv);
  row "delta                        %+.2f%%\n" ((mv -. plain) /. plain *. 100.0);
  (* functional cross-check: the committed matcher must find the same matches *)
  let c_plain = Grep.scan_count Grep.Plain ~mb_mode:0 in
  let c_mv = Grep.scan_count Grep.Multiversed ~mb_mode:0 in
  row "match count (both builds)    %d / %d%s\n" c_plain c_mv
    (if c_plain = c_mv then "  [consistent]" else "  [MISMATCH]");
  jrow "a.a-hex"
    [
      ("plain_cycles_per_byte", Json.Float plain);
      ("multiverse_cycles_per_byte", Json.Float mv);
      ("matches_consistent", Json.Bool (c_plain = c_mv));
    ]

(* ------------------------------------------------------------------ *)
(* E8: cPython GC flag                                                  *)
(* ------------------------------------------------------------------ *)

let cpython () =
  header
    "E8 / Section 6.2.1: cPython _PyObject_GC_Alloc with gc disabled\n\
     (paper: no stable result on real hardware; deterministic model below)";
  let plain = Pygc.measure ~samples:(samples ()) Pygc.Plain ~gc_enabled:0 in
  let mv = Pygc.measure ~samples:(samples ()) Pygc.Multiversed ~gc_enabled:0 in
  row "alloc cycles, gc off, w/o multiverse  %7.2f\n" plain.H.m_mean;
  row "alloc cycles, gc off, w/  multiverse  %7.2f (%+.1f%%)\n" mv.H.m_mean
    ((mv.H.m_mean -. plain.H.m_mean) /. plain.H.m_mean *. 100.0);
  let on_plain = Pygc.measure ~samples:(samples ()) Pygc.Plain ~gc_enabled:1 in
  let on_mv = Pygc.measure ~samples:(samples ()) Pygc.Multiversed ~gc_enabled:1 in
  row "alloc cycles, gc on,  w/o multiverse  %7.2f\n" on_plain.H.m_mean;
  row "alloc cycles, gc on,  w/  multiverse  %7.2f (%+.1f%%)\n" on_mv.H.m_mean
    ((on_mv.H.m_mean -. on_plain.H.m_mean) /. on_plain.H.m_mean *. 100.0);
  row "caveat: the paper could not measure this stably on real hardware.\n";
  jmeas "gc-off" [ ("plain", plain); ("multiverse", mv) ];
  jmeas "gc-on" [ ("plain", on_plain); ("multiverse", on_mv) ]

(* ------------------------------------------------------------------ *)
(* E9: descriptor sizes (Section 5 scalars)                            *)
(* ------------------------------------------------------------------ *)

let descriptor_sizes () =
  header
    "E9 / Section 5: descriptor overhead\n\
     (paper: 32 B/switch, 16 B/call site, 48 + #v*(32 + #g*16) B/function)";
  let s = H.session1 (Spinlock.source Spinlock.Multiverse) in
  let stats = Core.Stats.of_program s.H.program in
  Format.printf "%a@." Core.Stats.pp stats;
  (* verify the formulas against the actual section bytes *)
  let img = s.H.program.Core.Compiler.p_image in
  let vars = Core.Descriptor.parse_variables img in
  let fns = Core.Descriptor.parse_functions img in
  let sites = Core.Descriptor.parse_callsites img in
  let expected_vars = 32 * List.length vars in
  let expected_sites = 16 * List.length sites in
  let expected_fns =
    List.fold_left
      (fun acc (f : Core.Descriptor.function_record) ->
        let guards =
          List.fold_left
            (fun acc (v : Core.Descriptor.variant_record) -> acc + List.length v.va_guards)
            0 f.fd_variants
        in
        acc
        + Core.Stats.function_record_bytes ~variants:(List.length f.fd_variants)
            ~total_guards:guards)
      0 fns
  in
  row "formula check: variables %d B, call sites %d B, functions %d B\n" expected_vars
    expected_sites expected_fns;
  row "actual:        variables %d B, call sites %d B, functions %d B%s\n"
    stats.Core.Stats.ps_sections.Core.Stats.sz_variables
    stats.Core.Stats.ps_sections.Core.Stats.sz_callsites
    stats.Core.Stats.ps_sections.Core.Stats.sz_functions
    (if
       expected_vars = stats.Core.Stats.ps_sections.Core.Stats.sz_variables
       && expected_sites = stats.Core.Stats.ps_sections.Core.Stats.sz_callsites
       && expected_fns = stats.Core.Stats.ps_sections.Core.Stats.sz_functions
     then "  [formulas hold]"
     else "  [MISMATCH]");
  jrow "spinlock-multiverse"
    [ ("program_stats", Core.Stats.program_stats_json stats) ]

(* ------------------------------------------------------------------ *)
(* E10: the Table 1 API                                                 *)
(* ------------------------------------------------------------------ *)

let api () =
  header "E10 / Table 1: the multiverse API, exercised end to end";
  let s = H.session1 (Spinlock.source Spinlock.Multiverse) in
  let r = s.H.runtime in
  H.set s "config_smp" 0;
  row "multiverse_commit()            -> %d bound\n" (Core.Runtime.commit r);
  row "multiverse_revert()            -> %d reverted\n" (Core.Runtime.revert r);
  row "multiverse_commit_func(lock)   -> %d\n" (Core.Runtime.commit_func r "spin_irq_lock");
  row "multiverse_revert_func(lock)   -> %d\n" (Core.Runtime.revert_func r "spin_irq_lock");
  row "multiverse_commit_refs(smp)    -> %d\n" (Core.Runtime.commit_refs r "config_smp");
  row "multiverse_revert_refs(smp)    -> %d\n" (Core.Runtime.revert_refs r "config_smp");
  row "fallbacks: [%s]\n" (String.concat "; " (Core.Runtime.fallbacks r))

(* ------------------------------------------------------------------ *)
(* E11: the Figures 2/3 worked example                                  *)
(* ------------------------------------------------------------------ *)

let worked_example () =
  header "E11 / Figures 2-3: the multi()/foo() worked example";
  let src =
    {|
    multiverse bool A;
    multiverse int B;
    int effects;
    void calc() { effects = effects + 1; }
    void log_() { effects = effects + 1000; }
    multiverse void multi() {
      if (A) {
        calc();
        if (B) { log_(); }
      }
    }
    int foo() { effects = 0; multi(); return effects; }
  |}
  in
  let s = H.session1 src in
  let img = s.H.program.Core.Compiler.p_image in
  let fns = Core.Descriptor.parse_functions img in
  let f = List.hd fns in
  row "variants generated for multi(): %d (4 assignments, A=0 bodies merged)\n"
    (List.length f.Core.Descriptor.fd_variants);
  List.iter
    (fun (v : Core.Descriptor.variant_record) ->
      row "  %-18s %3d bytes, guards:%s\n"
        (Option.value ~default:"?" (Mv_link.Image.symbol_at img v.va_addr))
        v.va_size
        (String.concat ""
           (List.map
              (fun (g : Core.Descriptor.guard_record) ->
                Printf.sprintf " %s in [%d,%d]"
                  (Option.value ~default:"?" (Mv_link.Image.symbol_at img g.gr_var))
                  g.gr_lo g.gr_hi)
              v.va_guards)))
    f.Core.Descriptor.fd_variants;
  List.iter
    (fun (a, b) ->
      H.set s "A" a;
      H.set s "B" b;
      let bound = H.commit s in
      row "A=%d B=%d: commit -> %d bound, foo() = %d%s\n" a b bound (H.call s "foo" [])
        (match Core.Runtime.fallbacks s.H.runtime with
        | [] -> ""
        | fs -> Printf.sprintf "  (fallback: %s)" (String.concat ", " fs)))
    [ (0, 0); (1, 0); (1, 1); (3, 4) ]

(* ------------------------------------------------------------------ *)
(* E12: extension — Ftrace-style zero-cost probes                       *)
(* ------------------------------------------------------------------ *)

let tracing () =
  header
    "E12 / extension: Ftrace-style function tracing via multiverse\n\
     (Section 1.1: multiverse unifies the kernel's ad-hoc patching\n\
    \ mechanisms; probes committed off become pure nops at every site)";
  let module T = Mv_workloads.Tracing in
  let off_dynamic = T.measure ~samples:(samples ()) T.Plain ~enabled:false in
  let off_committed = T.measure ~samples:(samples ()) T.Multiversed ~enabled:false in
  let on_committed = T.measure ~samples:(samples ()) T.Multiversed ~enabled:true in
  let baseline =
    (* the same functions with the probes removed at the source level *)
    let src =
      {|
      int file_size;
      int vfs_read(int n) { return n < file_size ? n : file_size; }
      int vfs_write(int n) { file_size = file_size + n; return n; }
      int sys_getpid() { return 42; }
      void bench_loop(int n) {
        for (int i = 0; i < n; i = i + 1) {
          vfs_write(8);
          vfs_read(4);
          sys_getpid();
        }
      }
    |}
    in
    H.measure ~samples:(samples ()) (H.session1 src) ~loop_fn:"bench_loop"
  in
  row "%-38s %10s\n" "configuration" "cycles";
  row "%-38s %10.2f\n" "no probes compiled in (baseline)" baseline.H.m_mean;
  row "%-38s %10.2f\n" "tracing off, dynamic check" off_dynamic.H.m_mean;
  row "%-38s %10.2f\n" "tracing off, multiverse (nop probes)" off_committed.H.m_mean;
  row "%-38s %10.2f\n" "tracing on, multiverse (recording)" on_committed.H.m_mean;
  row "=> committed-off probes cost %.2f cycles over no probes at all\n"
    (off_committed.H.m_mean -. baseline.H.m_mean);
  jmeas "probes"
    [
      ("baseline", baseline);
      ("off_dynamic", off_dynamic);
      ("off_multiverse", off_committed);
      ("on_multiverse", on_committed);
    ];
  let s = T.prepare T.Multiversed ~enabled:false in
  row "   (%d probe sites inlined as nops)\n" (T.nop_sites s);
  row "events recorded (on, 100 iterations): %d\n"
    (T.events_recorded T.Multiversed ~enabled:true ~calls:100)

(* ------------------------------------------------------------------ *)
(* E13: extension — safe commit (quiescence + deferred patching)        *)
(* ------------------------------------------------------------------ *)

let safe_commit_bench () =
  header
    "E13 / extension: safe commit — stack quiescence and deferred patching\n\
     (beyond the paper: Section 2's \"caller guarantees a patchable state\"\n\
    \ replaced by a live-activation check and a safepoint drain; the poll\n\
    \ is a per-ret flag test, budget < 2% on the spinlock workload)";
  let spin ~smp ~hook =
    let s = H.session1 (Spinlock.source Spinlock.Multiverse) in
    H.set s "config_smp" (Bool.to_int smp);
    ignore (H.commit s);
    if hook then H.enable_safe_commit s;
    H.measure ~samples:(samples ()) s ~loop_fn:"bench_loop"
  in
  row "%-40s %10s %10s %8s\n" "spinlock lock+unlock [avg cycles]" "w/o hook" "w/ hook"
    "delta";
  List.iter
    (fun (label, smp) ->
      let off = spin ~smp ~hook:false in
      let on = spin ~smp ~hook:true in
      let delta = (on.H.m_mean -. off.H.m_mean) /. off.H.m_mean *. 100.0 in
      row "%-40s %10.2f %10.2f %+7.2f%%\n" label off.H.m_mean on.H.m_mean delta;
      jmeas label [ ("without_hook", off); ("with_hook", on) ])
    [ ("unicore (elided, sites inlined)", false); ("multicore (atomic path)", true) ];
  (* deferral in action: commit while an activation of the target is live *)
  let src =
    {|
    multiverse bool m;
    int w;
    multiverse void f() { if (m) { w = w + 100; } }
    void spacer() { w = w + 1; }
    int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
  |}
  in
  let s = H.session1 src in
  H.enable_safe_commit s;
  H.set s "m" 1;
  let f_addr = Mv_link.Image.symbol s.H.program.Core.Compiler.p_image "f" in
  Machine.start_call s.H.machine "driver" [];
  while s.H.machine.Machine.pc <> f_addr do
    ignore (Machine.step s.H.machine)
  done;
  let bound = H.commit_safe s in
  row "\ncommit_safe with the target live: %d bound, pending: [%s]\n" bound
    (String.concat "; " (Core.Runtime.pending s.H.runtime));
  let w = Machine.finish s.H.machine in
  let st = Core.Runtime.stats s.H.runtime in
  row "run result %d (specialized mid-run at a quiescent safepoint)\n" w;
  row "deferred %d, applied %d, rolled back %d, safepoint polls %d\n"
    st.Core.Runtime.st_safe_deferred st.Core.Runtime.st_safe_applied
    st.Core.Runtime.st_safe_rolled_back st.Core.Runtime.st_safepoint_polls

(* ------------------------------------------------------------------ *)
(* E20: extension — on-stack replacement drain latency                  *)
(* ------------------------------------------------------------------ *)

(* A deferred set bound to an activation that never returns: without OSR
   the only drain opportunity is the frame unwinding, so drain latency
   grows with the loop length; with OSR the parked frame is transferred
   into the variant at the next safepoint and latency collapses to about
   one safepoint interval, independent of the remaining iterations. *)
let osr_drain () =
  header
    "E20 / extension: on-stack replacement — drain latency for\n\
     non-quiescent activations (frame transfer at the next safepoint;\n\
    \ gate: <= 2 safepoint intervals with OSR, any loop length)";
  let src =
    {|
    multiverse bool m;
    int w;
    void tick() { w = w + 1; }
    multiverse int spin(int n) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        tick();
        if (m) { acc = acc + 2; } else { acc = acc + 1; }
        i = i + 1;
      }
      return acc;
    }
    int driver(int n) { return spin(n); }
  |}
  in
  let park s =
    let addr = Mv_link.Image.symbol s.H.program.Core.Compiler.p_image "spin" in
    while s.H.machine.Machine.pc <> addr do
      ignore (Machine.step s.H.machine)
    done
  in
  (* One safepoint interval in machine steps: park inside the loop and
     count the steps between two consecutive safepoint polls. *)
  let interval =
    let s = H.session1 src in
    H.enable_safe_commit s;
    H.set s "m" 1;
    Machine.start_call s.H.machine "driver" [ 1000 ];
    park s;
    let polls () = (Core.Runtime.stats s.H.runtime).Core.Runtime.st_safepoint_polls in
    let rec to_next_poll steps p0 =
      if polls () > p0 then steps
      else begin
        ignore (Machine.step s.H.machine);
        to_next_poll (steps + 1) p0
      end
    in
    ignore (to_next_poll 0 (polls ()));
    to_next_poll 0 (polls ())
  in
  row "safepoint interval inside the loop: %d steps\n\n" interval;
  row "%-10s %16s %14s %12s %10s %8s\n" "[steps]" "w/o OSR drain" "w/ OSR drain"
    "intervals" "transfers" "aborts";
  let drain ~osr ~iters =
    let s = H.session1 src in
    H.enable_safe_commit s;
    if osr then H.enable_osr s;
    H.set s "m" 1;
    Machine.start_call s.H.machine "driver" [ iters ];
    park s;
    ignore (H.commit_safe s);
    let steps = ref 0 in
    let running = ref true in
    while Core.Runtime.pending s.H.runtime <> [] && !running do
      incr steps;
      running := Machine.step s.H.machine
    done;
    let st = Core.Runtime.stats s.H.runtime in
    (!steps, st.Core.Runtime.st_osr_transfers, st.Core.Runtime.st_osr_aborts)
  in
  List.iter
    (fun iters ->
      let without, _, _ = drain ~osr:false ~iters in
      let with_osr, transfers, aborts = drain ~osr:true ~iters in
      let intervals = float_of_int with_osr /. float_of_int interval in
      row "n=%-8d %16d %14d %12.2f %10d %8d\n" iters without with_osr intervals
        transfers aborts;
      jrow
        (Printf.sprintf "n=%d" iters)
        [
          ("without_osr_steps", Json.Int without);
          ("with_osr_steps", Json.Int with_osr);
          ("safepoint_interval_steps", Json.Int interval);
          ("osr_intervals", Json.Float intervals);
          ("transfers", Json.Int transfers);
          ("aborts", Json.Int aborts);
        ];
      if intervals > 2.0 then
        row "!! OSR drain exceeded 2 safepoint intervals (%.2f)\n" intervals)
    [ 200; 1000; 5000 ];
  row "=> without OSR the drain waits for the frame to unwind (O(n));\n";
  row "   with OSR it is pinned to the next safepoint, independent of n\n"

(* ------------------------------------------------------------------ *)
(* A1: ablation — completeness jump vs patched direct call              *)
(* ------------------------------------------------------------------ *)

let ablation_jmp () =
  header
    "A1 / ablation: cost of reaching a variant through the generic\n\
     prologue jump (function pointers) vs a patched direct call site";
  let src =
    Spinlock.source Spinlock.Multiverse
    ^ {|
    fnptr lock_ptr = &spin_irq_lock;
    fnptr unlock_ptr = &spin_irq_unlock;
    void bench_ptr_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
        lock_ptr();
        unlock_ptr();
      }
    }
  |}
  in
  let s = H.session1 src in
  H.set s "config_smp" 0;
  ignore (H.commit s);
  let direct = H.measure ~samples:(samples ()) s ~loop_fn:"bench_loop" in
  let via_ptr = H.measure ~samples:(samples ()) s ~loop_fn:"bench_ptr_loop" in
  row "patched direct call sites      %7.2f cycles\n" direct.H.m_mean;
  row "via fn-pointer + prologue jmp  %7.2f cycles (the completeness path)\n"
    via_ptr.H.m_mean;
  row "=> call-site patching saves    %7.2f cycles per invocation pair\n"
    (via_ptr.H.m_mean -. direct.H.m_mean);
  jmeas "unicore" [ ("direct", direct); ("via_fnptr", via_ptr) ]

(* ------------------------------------------------------------------ *)
(* A2: ablation — branch predictor warm vs cold                         *)
(* ------------------------------------------------------------------ *)

let ablation_btb () =
  header
    "A2 / ablation: the dynamic-if kernel under branch-predictor pressure\n\
     (the paper's Section 1 argument: ~16-cycle misprediction on real paths)";
  let measure_with_pressure ?(perturb = false) kernel ~flush_every =
    let s = H.session1 (Spinlock.source kernel) in
    (match kernel with
    | Spinlock.If_elision -> H.set s "config_smp" 0
    | Spinlock.Multiverse ->
        H.set s "config_smp" 0;
        ignore (H.commit s)
    | Spinlock.Mainline_smp | Spinlock.Static_up -> ());
    (* warmup *)
    ignore (H.call s "bench_loop" [ 100 ]);
    let n = samples () in
    let total = ref 0.0 in
    for i = 1 to n do
      if flush_every > 0 && i mod flush_every = 0 then
        if perturb then
          Mv_vm.Branch_pred.perturb s.H.machine.Machine.bp ~seed:i ~fraction:0.5
        else Mv_vm.Branch_pred.flush s.H.machine.Machine.bp;
      total := !total +. (H.cycles_of_call s "bench_loop" [ 10 ] /. 10.0)
    done;
    !total /. float_of_int n
  in
  let if_warm = measure_with_pressure Spinlock.If_elision ~flush_every:0 in
  let if_aliased = measure_with_pressure ~perturb:true Spinlock.If_elision ~flush_every:1 in
  let if_cold = measure_with_pressure Spinlock.If_elision ~flush_every:1 in
  let mv_warm = measure_with_pressure Spinlock.Multiverse ~flush_every:0 in
  let mv_aliased = measure_with_pressure ~perturb:true Spinlock.Multiverse ~flush_every:1 in
  let mv_cold = measure_with_pressure Spinlock.Multiverse ~flush_every:1 in
  row "%-28s %10s %12s %12s\n" "unicore kernel" "warm BTB" "aliased BTB" "cold BTB";
  row "%-28s %10.2f %12.2f %12.2f\n" "lock elision [if]" if_warm if_aliased if_cold;
  row "%-28s %10.2f %12.2f %12.2f\n" "lock elision [multiverse]" mv_warm mv_aliased mv_cold;
  jrow "if"
    [
      ("warm", Json.Float if_warm);
      ("aliased", Json.Float if_aliased);
      ("cold", Json.Float if_cold);
    ];
  jrow "multiverse"
    [
      ("warm", Json.Float mv_warm);
      ("aliased", Json.Float mv_aliased);
      ("cold", Json.Float mv_cold);
    ];
  row
    "=> the dynamic branch is nearly free when predicted but pays extra cycles\n\
    \   when cold (delta %.2f); the multiversed kernel has no such branch.\n"
    (if_cold -. if_warm)

(* ------------------------------------------------------------------ *)
(* A3: ablation — call-site inlining disabled                           *)
(* ------------------------------------------------------------------ *)

let ablation_inline () =
  header
    "A3 / ablation: PV-Ops native with call-site inlining disabled\n\
     (what Figure 4 right would look like without the inliner)";
  let run ~inline =
    let s = H.session1 (Pvops.source Pvops.Multiverse) in
    Core.Runtime.set_inlining s.H.runtime inline;
    Pvops.boot s Pvops.Multiverse Machine.Native;
    (H.measure ~samples:(samples ()) s ~loop_fn:"bench_loop").H.m_mean
  in
  let with_inline = run ~inline:true in
  let without = run ~inline:false in
  row "native cli+sti, inlining on   %7.2f cycles\n" with_inline;
  row "native cli+sti, inlining off  %7.2f cycles (call overhead retained)\n" without;
  row "=> inlining contributes       %7.2f cycles per op pair\n" (without -. with_inline);
  jrow "pvops-native"
    [ ("inlining_on", Json.Float with_inline); ("inlining_off", Json.Float without) ]

(* ------------------------------------------------------------------ *)
(* A4: ablation — body patching vs call-site patching (Section 7.1)     *)
(* ------------------------------------------------------------------ *)

let ablation_body_patching () =
  header
    "A4 / ablation: body patching vs call-site patching (Section 7.1)\n\
     (the alternative the paper rejects: fewer patches, but the runtime\n\
    \ must relocate variant bodies and loses call-site inlining)";
  let farm_src = Farm.source ~callers:117 ~pairs:5 in
  let run strategy =
    let s = H.session1 farm_src in
    Core.Runtime.set_strategy s.H.runtime strategy;
    H.set s "config_smp" 1;
    let t0 = Unix.gettimeofday () in
    ignore (H.commit s);
    let t1 = Unix.gettimeofday () in
    let stats = Core.Runtime.stats s.H.runtime in
    (* also measure the spinlock cost under each strategy, in UP mode *)
    ignore (H.revert s);
    H.set s "config_smp" 0;
    ignore (H.commit s);
    let m = H.measure ~samples:(samples ()) s ~loop_fn:"run_all" in
    ((t1 -. t0) *. 1000.0, stats.Core.Runtime.st_patches, m.H.m_mean)
  in
  let cs_ms, cs_patches, cs_cycles = run Core.Runtime.Call_site_patching in
  let bp_ms, bp_patches, bp_cycles = run Core.Runtime.Body_patching in
  row "%-24s %12s %10s %18s\n" "strategy" "commit (ms)" "patches" "run_all (cycles)";
  row "%-24s %12.3f %10d %18.1f\n" "call-site patching" cs_ms cs_patches cs_cycles;
  row "%-24s %12.3f %10d %18.1f\n" "body patching" bp_ms bp_patches bp_cycles;
  jrow "call-site"
    [
      ("commit_ms", Json.Float cs_ms);
      ("patches", Json.Int cs_patches);
      ("cycles", Json.Float cs_cycles);
    ];
  jrow "body"
    [
      ("commit_ms", Json.Float bp_ms);
      ("patches", Json.Int bp_patches);
      ("cycles", Json.Float bp_cycles);
    ];
  row
    "=> body patching commits with ~%dx fewer patches but cannot inline\n\
    \   tiny bodies into call sites (execution %.1f%% slower here).\n"
    (cs_patches / max 1 bp_patches)
    ((bp_cycles -. cs_cycles) /. cs_cycles *. 100.0)

(* ------------------------------------------------------------------ *)
(* A5: ablation — padded call sites (wider inlining, Section 7.1)       *)
(* ------------------------------------------------------------------ *)

let ablation_padded_sites () =
  header
    "A5 / ablation: nop-padded call sites widen the inlining budget\n\
     (the \"adjusting the sizes of call sites\" extension of Section 7.1)";
  let src =
    {|
    multiverse int m;
    int w;
    multiverse void store_one() {
      if (m) {
        w = 1;
      }
    }
    void bench_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
        store_one();
      }
    }
  |}
  in
  let run padding =
    let s = H.session ~callsite_padding:padding [ ("m", src) ] in
    H.set s "m" 1;
    ignore (H.commit s);
    let stats = Core.Runtime.stats s.H.runtime in
    let m = H.measure ~samples:(samples ()) s ~loop_fn:"bench_loop" in
    (m.H.m_mean, stats.Core.Runtime.st_sites_inlined)
  in
  row "%-14s %16s %14s\n" "site padding" "cycles/call" "sites inlined";
  List.iter
    (fun pad ->
      let cycles, inlined = run pad in
      row "%-14d %16.2f %14d\n" pad cycles inlined;
      jrow (string_of_int pad)
        [ ("cycles", Json.Float cycles); ("sites_inlined", Json.Int inlined) ])
    [ 0; 4; 8; 10 ];
  row "=> once the variant body fits the padded site, the call disappears.\n"

(* ------------------------------------------------------------------ *)
(* A6: ablation — variant explosion (Section 7.1)                       *)
(* ------------------------------------------------------------------ *)

let ablation_explosion () =
  header
    "A6 / ablation: the cost of the assignment cross product\n\
     (Section 7.1: \"the big threat arising from a function-level approach\n\
    \ is the possibility of combinatorial explosion\")";
  let source n_switches =
    let buf = Buffer.create 512 in
    for i = 0 to n_switches - 1 do
      Buffer.add_string buf (Printf.sprintf "multiverse int s%d;\n" i)
    done;
    Buffer.add_string buf "int w;\nmultiverse void f() {\n";
    for i = 0 to n_switches - 1 do
      Buffer.add_string buf (Printf.sprintf "  if (s%d) { w = w + %d; }\n" i (1 lsl i))
    done;
    Buffer.add_string buf "}\nint d() { w = 0; f(); return w; }\n";
    Buffer.contents buf
  in
  row "%-10s %10s %14s %14s %12s\n" "switches" "variants" "variant text" "descriptors"
    "commit (ms)";
  List.iter
    (fun n ->
      let s = H.session1 (source n) in
      let stats = Core.Stats.of_program s.H.program in
      let t0 = Unix.gettimeofday () in
      ignore (H.commit s);
      let t1 = Unix.gettimeofday () in
      row "%-10d %10d %14d %14d %12.3f\n" n stats.Core.Stats.ps_variants
        stats.Core.Stats.ps_text_in_variants
        (Core.Stats.descriptor_overhead stats.Core.Stats.ps_sections)
        ((t1 -. t0) *. 1000.0);
      jrow (string_of_int n)
        [
          ("variants", Json.Int stats.Core.Stats.ps_variants);
          ("variant_text", Json.Int stats.Core.Stats.ps_text_in_variants);
          ( "descriptor_bytes",
            Json.Int (Core.Stats.descriptor_overhead stats.Core.Stats.ps_sections) );
          ("commit_ms", Json.Float ((t1 -. t0) *. 1000.0));
        ])
    [ 1; 2; 4; 6 ];
  row
    "=> 2^n variants: the developer-controlled mitigations are values(..)\n\
    \   (narrow domains) and bind(..) (partial specialization).\n";
  (* demonstrate the mitigation: bind one switch out of six *)
  let bound_src =
    let base = source 6 in
    let marker = "multiverse void f()" in
    let idx =
      let rec find i =
        if String.sub base i (String.length marker) = marker then i else find (i + 1)
      in
      find 0
    in
    String.sub base 0 idx
    ^ "multiverse bind(s0) void f()"
    ^ String.sub base
        (idx + String.length marker)
        (String.length base - idx - String.length marker)
  in
  let s = H.session1 bound_src in
  let stats = Core.Stats.of_program s.H.program in
  row "with bind(s0):    %6d variants, %6d B of variant text\n"
    stats.Core.Stats.ps_variants stats.Core.Stats.ps_text_in_variants

(* ------------------------------------------------------------------ *)
(* E14: observability overhead — every recorder is pay-for-use          *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  header
    "E14+E16 / observability: cost of the tracing, stack-profiling, metrics,\n\
     flight and heat hooks (all host-side observers charging zero simulated\n\
    \ cycles, so the cycle tables are unchanged whether or not they are\n\
    \ armed; only host wall-clock pays for the bookkeeping)";
  let run arm =
    let s = H.session1 (Spinlock.source Spinlock.Multiverse) in
    H.set s "config_smp" 0;
    ignore (H.commit s);
    arm s;
    let t0 = Unix.gettimeofday () in
    let m = H.measure ~samples:(samples ()) s ~loop_fn:"bench_loop" in
    let t1 = Unix.gettimeofday () in
    (m, (t1 -. t0) *. 1000.0)
  in
  (* the baseline detaches the session's sink chain: no sink at all *)
  let base, base_ms =
    run (fun s ->
        Core.Runtime.set_tracer s.H.runtime None;
        Mv_vm.Smp.set_tracer s.H.smp None)
  in
  let traced, traced_ms = run H.enable_tracing in
  let stacked, stacked_ms = run H.enable_stack_profiling in
  let metered, metered_ms = run (fun s -> H.enable_metrics s) in
  (* the event ring is always on — armed at session creation, before any
     enable_* call — so this arm measures a fresh session with only the
     ring sink live; its cycles must match the sink-free baseline exactly *)
  let flighted, flighted_ms = run ignore in
  (* code-heat telemetry: block counters in the machine plus the residency
     sink in the event chain — like the other arms, host-side only, so the
     cycle column must match the baseline exactly *)
  let heated, heated_ms = run (fun s -> H.enable_heat s) in
  row "%-36s %12s %10s\n" "spinlock unicore" "cycles/call" "host ms";
  row "%-36s %12.2f %10.1f\n" "no sinks (baseline)" base.H.m_mean base_ms;
  row "%-36s %12.2f %10.1f\n" "tracing armed" traced.H.m_mean traced_ms;
  row "%-36s %12.2f %10.1f\n" "stack profiling armed" stacked.H.m_mean stacked_ms;
  row "%-36s %12.2f %10.1f\n" "metrics registry armed" metered.H.m_mean metered_ms;
  row "%-36s %12.2f %10.1f\n" "flight recorder (always on)" flighted.H.m_mean
    flighted_ms;
  row "%-36s %12.2f %10.1f\n" "heat telemetry armed" heated.H.m_mean heated_ms;
  let delta a = (a -. base.H.m_mean) /. base.H.m_mean *. 100.0 in
  row
    "=> simulated-cycle delta: tracing %+.2f%%, stack profiling %+.2f%%, \
     metrics %+.2f%%, flight %+.2f%%, heat %+.2f%%\n"
    (delta traced.H.m_mean) (delta stacked.H.m_mean)
    (delta metered.H.m_mean) (delta flighted.H.m_mean) (delta heated.H.m_mean);
  jmeas "spinlock-unicore"
    [
      ("baseline", base);
      ("tracing", traced);
      ("stackprof", stacked);
      ("metrics", metered);
      ("flight", flighted);
      ("heat", heated);
    ];
  jrow "host-ms"
    [
      ("baseline", Json.Float base_ms);
      ("tracing", Json.Float traced_ms);
      ("stackprof", Json.Float stacked_ms);
      ("metrics", Json.Float metered_ms);
      ("flight", Json.Float flighted_ms);
      ("heat", Json.Float heated_ms);
    ]

(* ------------------------------------------------------------------ *)
(* E17: stop_machine rendezvous cost vs hart count                     *)
(* ------------------------------------------------------------------ *)

let smp_rendezvous () =
  header
    "E17 / SMP: stop_machine rendezvous cost vs hart count\n\
     (contended spinlock workload, config_smp=1 committed; a whole-image\n\
    \ commit is injected mid-run, so every other running hart is IPI'd\n\
    \ and parks at its next irq-enabled boundary; latency is in summed\n\
    \ hart cycles per rendezvous.  Fully deterministic — the rows must\n\
    \ not drift between runs)";
  row "%-8s %10s %8s %8s %12s %14s %14s\n" "harts" "counter" "IPIs" "acks"
    "rendezvous" "latency/stop" "total cycles";
  List.iter
    (fun n_harts ->
      let iters = 25 in
      (* inject once every hart is ~40 steps deep in lock contention, so
         the acks actually wait on cli-protected critical sections *)
      let s, counter =
        Spinlock.run_contended ~n_harts ~seed:1 ~commit_at:(40 * n_harts)
          ~smp:true ~iters ()
      in
      let smp = s.H.smp in
      let sent = Mv_vm.Smp.ipis_sent smp in
      let acks = Mv_vm.Smp.ipi_acks smp in
      let count = Mv_vm.Smp.rendezvous_count smp in
      let cyc = Mv_vm.Smp.rendezvous_cycles smp in
      let latency = if count = 0 then 0.0 else cyc /. float_of_int count in
      let clock = Mv_vm.Smp.clock smp in
      row "%-8d %10d %8d %8d %12d %14.1f %14.1f\n" n_harts counter sent acks
        count latency clock;
      jrow (string_of_int n_harts)
        [
          ("n_harts", Json.Int n_harts);
          ("counter", Json.Int counter);
          ("ipis_sent", Json.Int sent);
          ("ipi_acks", Json.Int acks);
          ("rendezvous", Json.Int count);
          ("rendezvous_cycles", Json.Float cyc);
          ("latency_cycles", Json.Float latency);
          ("clock", Json.Float clock);
        ])
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E18a: superblock interpreter vs the reference stepper               *)
(* ------------------------------------------------------------------ *)

let interp_superblock () =
  header
    "E18a / superblock interpreter: pre-decoded closure dispatch (finish) vs\n\
     the reference fetch/decode interpreter (finish_ref).  Simulated cycles,\n\
     instructions and results must be bit-identical; the wall-clock speedup\n\
     is host-side and informational (excluded from the regression gate)";
  (* not scaled down by --fast: the wall-clock comparison needs a window
     well above timer noise, and 300 reps is still ~100 ms per arm *)
  let reps = 300 in
  (* Fresh session per arm so each interpreter starts from cold decode
     state; the gated fields are the simulated counters, which must not
     depend on which stepper ran. *)
  let arm ~use_ref (src, switch, loop_fn, calls) =
    let s = H.session1 src in
    H.set s switch 0;
    ignore (H.commit s);
    let m = s.H.machine in
    (* one untimed warm-up call so neither arm pays decode inside the
       timed region (the warm-up is inside the perf window on purpose:
       the gated cycle counts cover warm-up + timed reps identically) *)
    let before = Mv_vm.Perf.snapshot m.Machine.perf in
    Machine.start_call m loop_fn [ calls ];
    ignore (if use_ref then Machine.finish_ref m else Machine.finish m);
    let t0 = Unix.gettimeofday () in
    let last = ref 0 in
    for _ = 1 to reps do
      Machine.start_call m loop_fn [ calls ];
      last := (if use_ref then Machine.finish_ref m else Machine.finish m)
    done;
    let t1 = Unix.gettimeofday () in
    let d = Mv_vm.Perf.diff before (Mv_vm.Perf.snapshot m.Machine.perf) in
    (!last, d.Mv_vm.Perf.s_cycles, d.Mv_vm.Perf.s_instructions, (t1 -. t0) *. 1000.0)
  in
  row "%-22s %14s %14s %10s %10s %8s\n" "workload" "cycles" "instructions"
    "sb ms" "ref ms" "speedup";
  List.iter
    (fun (name, spec) ->
      let r_sb, cy_sb, in_sb, ms_sb = arm ~use_ref:false spec in
      let r_ref, cy_ref, in_ref, ms_ref = arm ~use_ref:true spec in
      if r_sb <> r_ref || cy_sb <> cy_ref || in_sb <> in_ref then
        failwith
          (Printf.sprintf
             "interp-superblock: %s diverged (r %d/%d, cycles %.0f/%.0f, \
              insns %d/%d)"
             name r_sb r_ref cy_sb cy_ref in_sb in_ref);
      row "%-22s %14.0f %14d %10.1f %10.1f %7.2fx\n" name cy_sb in_sb ms_sb
        ms_ref (ms_ref /. ms_sb);
      jrow name
        [
          ("result", Json.Int r_sb);
          ("cycles", Json.Float cy_sb);
          ("instructions", Json.Int in_sb);
          ("ref_cycles", Json.Float cy_ref);
          ("ref_instructions", Json.Int in_ref);
        ];
      jrow "host-ms"
        [
          ("workload", Json.String name);
          ("superblock_ms", Json.Float ms_sb);
          ("reference_ms", Json.Float ms_ref);
          ("speedup", Json.Float (ms_ref /. ms_sb));
        ])
    [
      ("spinlock-unicore", (Spinlock.source Spinlock.Multiverse, "config_smp", "bench_loop", 2000));
      ("musl-malloc1", (Musl.source Musl.Multiversed, "threads_minus_1", "bench_malloc1", 400));
    ]

(* ------------------------------------------------------------------ *)
(* E18b: domain-parallel fuzzing throughput                            *)
(* ------------------------------------------------------------------ *)

let fuzz_throughput () =
  header
    "E18b / fuzz throughput: one campaign fanned out over 1/2/4 OCaml\n\
     domains.  Cases tested and divergences are deterministic (gated);\n\
     wall-clock and scaling are host-side and informational";
  let iters = if !fast then 40 else 120 in
  let campaign domains =
    let t0 = Unix.gettimeofday () in
    let s =
      Mv_fuzz.Driver.run_parallel ~cfg:Mv_fuzz.Gen.small_cfg ~domains ~seed:1
        ~iters ()
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    (s.Mv_fuzz.Driver.s_tested, List.length s.Mv_fuzz.Driver.s_reports, ms)
  in
  let base_ms = ref 0.0 in
  row "%-10s %8s %12s %10s %9s\n" "domains" "cases" "divergences" "host ms" "scaling";
  List.iter
    (fun domains ->
      let tested, divs, ms = campaign domains in
      if domains = 1 then base_ms := ms;
      row "%-10d %8d %12d %10.1f %8.2fx\n" domains tested divs ms (!base_ms /. ms);
      jrow (Printf.sprintf "domains-%d" domains)
        [ ("cases", Json.Int tested); ("divergences", Json.Int divs) ];
      jrow "host-ms"
        [
          ("domains", Json.Int domains);
          ("wall_ms", Json.Float ms);
          ("scaling", Json.Float (!base_ms /. ms));
        ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* E22: lazy materialization — the variant cache                       *)
(* ------------------------------------------------------------------ *)

(* A function over [n] independent boolean switches: 2^n valuations,
   every subset specializing to a distinct body.  The shape the eager
   pipeline cannot pre-expand past the explosion cap and the lazy
   pipeline covers on demand. *)
let switch_farm_src n =
  let b = Buffer.create 1024 in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "multiverse bool s%d;\n" i)
  done;
  Buffer.add_string b "int w;\nmultiverse void f() {\n";
  for i = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf "  if (s%d) { w = w + %d; w = w + %d; }\n" i (i + 1)
         (100 * (i + 1)))
  done;
  Buffer.add_string b "}\nint driver() { w = 0; f(); return w; }\n";
  Buffer.contents b

(* drand48-style LCG, masked to 46 bits so it stays a native OCaml int *)
let lazy_lcg seed =
  let state = ref (seed lor 1) in
  fun bound ->
    state := ((!state * 0x5DEECE66D) + 0xB) land 0x3FFFFFFFFFFF;
    (!state lsr 17) mod bound

let set_valuation s n bits =
  for i = 0 to n - 1 do
    H.set s (Printf.sprintf "s%d" i) ((bits lsr i) land 1)
  done

(* E22a: first-commit latency — specialize, optimize, assemble and link
   one unseen valuation into the variant-text region.  The wall-clock
   column is host time (skipped by the diff gate); the materialization
   counts and resident bytes are simulator-deterministic and gated. *)
let lazy_first_commit () =
  header
    "E22a / extension: lazy materialization — first-commit latency\n\
     (demand-driven specialize+optimize+assemble+link of one unseen\n\
    \ switch valuation; eager pre-expansion pays this for the whole\n\
    \ cross product at compile time)";
  row "%-10s %12s %16s %14s %12s\n" "[switches]" "commits" "mean ms/commit"
    "materialized" "bytes";
  List.iter
    (fun n ->
      let s = H.session1 ~lazy_variants:true (switch_farm_src n) in
      let commits = min (1 lsl n) 16 in
      let t0 = Unix.gettimeofday () in
      for bits = 0 to commits - 1 do
        set_valuation s n bits;
        ignore (H.commit s)
      done;
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int commits in
      let st = Core.Runtime.stats s.H.runtime in
      row "%-10d %12d %16.3f %14d %12d\n" n commits ms
        st.Core.Runtime.st_materialized st.Core.Runtime.st_variant_bytes;
      jrow (Printf.sprintf "%d-switches" n)
        [
          ("commits", Json.Int commits);
          ("commit_ms", Json.Float ms);
          ("materialized", Json.Int st.Core.Runtime.st_materialized);
          ("dedup_hits", Json.Int st.Core.Runtime.st_dedup_hits);
          ("variant_bytes", Json.Int st.Core.Runtime.st_variant_bytes);
        ])
    [ 2; 4; 6; 20 ]

(* E22b: cache-hit commit latency — re-committing an already-resident
   valuation touches the LRU and relinks the descriptor alias but
   assembles nothing. *)
let lazy_cache_hit () =
  header
    "E22b / extension: lazy materialization — cache-hit commit latency\n\
     (the structural-hash cache makes a re-commit of a resident\n\
    \ valuation patch-only: no specialization, no new bytes)";
  row "%-10s %12s %16s %14s %12s\n" "[switches]" "recommits" "mean ms/commit"
    "cache hits" "bytes";
  List.iter
    (fun n ->
      let s = H.session1 ~lazy_variants:true (switch_farm_src n) in
      set_valuation s n 1;
      ignore (H.commit s);
      let bytes0 = Core.Runtime.variant_bytes s.H.runtime in
      let recommits = 100 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to recommits do
        ignore (H.commit s)
      done;
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int recommits in
      let st = Core.Runtime.stats s.H.runtime in
      assert (Core.Runtime.variant_bytes s.H.runtime = bytes0);
      row "%-10d %12d %16.3f %14d %12d\n" n recommits ms
        st.Core.Runtime.st_cache_hits st.Core.Runtime.st_variant_bytes;
      jrow (Printf.sprintf "%d-switches" n)
        [
          ("recommits", Json.Int recommits);
          ("commit_ms", Json.Float ms);
          ("cache_hits", Json.Int st.Core.Runtime.st_cache_hits);
          ("materialized", Json.Int st.Core.Runtime.st_materialized);
          ("variant_bytes", Json.Int st.Core.Runtime.st_variant_bytes);
        ])
    [ 2; 6; 20 ]

(* E22c: variant-memory footprint — eager pre-expansion burns text for
   the whole cross product; the lazy cache holds only what ran, and the
   20-switch (~1M valuation) storm stays inside a 256 KiB budget. *)
let lazy_footprint () =
  header
    "E22c / extension: lazy materialization — variant-memory footprint\n\
     (eager: text for every valuation up front; lazy: resident bytes\n\
    \ track the committed working set under a byte budget)";
  row "%-10s %16s %16s %14s\n" "[switches]" "eager bytes" "lazy bytes"
    "lazy commits";
  List.iter
    (fun n ->
      let src = switch_farm_src n in
      let eager = H.session1 src in
      let eimg = eager.H.program.Core.Compiler.p_image in
      let eager_bytes =
        Hashtbl.fold
          (fun name size acc ->
            if String.contains name '.' then acc + size else acc)
          eimg.Mv_link.Image.symbol_sizes 0
      in
      let s = H.session1 ~lazy_variants:true src in
      let commits = min (1 lsl n) 8 in
      for bits = 0 to commits - 1 do
        set_valuation s n bits;
        ignore (H.commit s)
      done;
      let lazy_bytes = Core.Runtime.variant_bytes s.H.runtime in
      row "%-10d %16d %16d %14d\n" n eager_bytes lazy_bytes commits;
      jrow (Printf.sprintf "%d-switches" n)
        [
          ("eager_bytes", Json.Int eager_bytes);
          ("lazy_bytes", Json.Int lazy_bytes);
          ("commits", Json.Int commits);
        ])
    [ 2; 4; 6 ];
  (* the acceptance storm: 20 switches (~1M valuations), 1000 pinned-seed
     commits, 256 KiB budget — residency must never exceed the budget *)
  let n = 20 in
  let budget = 256 * 1024 in
  let s = H.session1 ~lazy_variants:true ~budget (switch_farm_src n) in
  let rand = lazy_lcg 0xC0FFEE in
  let peak = ref 0 in
  let ok = ref true in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1000 do
    set_valuation s n (rand (1 lsl n));
    ignore (H.commit s);
    let b = Core.Runtime.variant_bytes s.H.runtime in
    if b > !peak then peak := b;
    if b > budget then ok := false
  done;
  let storm_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let st = Core.Runtime.stats s.H.runtime in
  row
    "\nstorm: 20 switches, 1000 commits, 256 KiB budget — peak %d B, %d\n\
     materialized, %d evictions, %d denials, budget %s (%.0f ms host)\n"
    !peak st.Core.Runtime.st_materialized st.Core.Runtime.st_evictions
    st.Core.Runtime.st_budget_denials
    (if !ok then "held" else "EXCEEDED")
    storm_ms;
  jrow "storm-20-switches"
    [
      ("commits", Json.Int 1000);
      ("budget_bytes", Json.Int budget);
      ("peak_bytes", Json.Int !peak);
      ("within_budget", Json.Bool !ok);
      ("materialized", Json.Int st.Core.Runtime.st_materialized);
      ("dedup_hits", Json.Int st.Core.Runtime.st_dedup_hits);
      ("cache_hits", Json.Int st.Core.Runtime.st_cache_hits);
      ("evictions", Json.Int st.Core.Runtime.st_evictions);
      ("budget_denials", Json.Int st.Core.Runtime.st_budget_denials);
      ("commit_ms", Json.Float storm_ms);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig4-spinlock", fig4_spinlock);
    ("fig4-pvops", fig4_pvops);
    ("patch-cost", patch_cost);
    ("patch-scaling", patch_scaling);
    ("fig5-musl", fig5_musl);
    ("musl-scalars", musl_scalars);
    ("grep", grep);
    ("cpython", cpython);
    ("descriptor-sizes", descriptor_sizes);
    ("api", api);
    ("fig23-worked-example", worked_example);
    ("tracing", tracing);
    ("safe-commit", safe_commit_bench);
    ("osr-drain", osr_drain);
    ("ablation-jmp", ablation_jmp);
    ("ablation-btb", ablation_btb);
    ("ablation-inline", ablation_inline);
    ("ablation-body-patching", ablation_body_patching);
    ("ablation-explosion", ablation_explosion);
    ("ablation-padded-sites", ablation_padded_sites);
    ("obs-overhead", obs_overhead);
    ("smp-rendezvous", smp_rendezvous);
    ("interp-superblock", interp_superblock);
    ("fuzz-throughput", fuzz_throughput);
    ("lazy-first-commit", lazy_first_commit);
    ("lazy-cache-hit", lazy_cache_hit);
    ("lazy-footprint", lazy_footprint);
  ]

(* The message names every experiment so the caller can self-correct. *)
let usage_error msg =
  Printf.eprintf "bench: %s\nexperiments: %s\n" msg
    (String.concat ", " (List.map fst experiments));
  exit 2

let () =
  let only = ref [] in
  let list_only = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := s :: !only), "ID run a single experiment");
      ("--list", Arg.Set list_only, " list experiment ids");
      ("--fast", Arg.Set fast, " fewer samples");
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "FILE write per-experiment result rows as JSON (mv-bench-rows/1)" );
      ( "--baseline",
        Arg.String (fun p -> baseline_path := Some p),
        "FILE print a structural diff of this run's rows against a committed \
         mv-bench-rows/1 document" );
    ]
  in
  Arg.parse args
    (fun a -> usage_error (Printf.sprintf "unexpected argument %S" a))
    "multiverse benchmark harness";
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then
        usage_error (Printf.sprintf "unknown experiment %S" id))
    !only;
  if !list_only then
    List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let selected =
      if !only = [] then experiments
      else List.filter (fun (id, _) -> List.mem id !only) experiments
    in
    List.iter
      (fun (id, f) ->
        current_exp := id;
        f ())
      selected;
    (match !json_path with Some path -> write_json_tables path | None -> ());
    (match !baseline_path with Some path -> print_baseline_diff path | None -> ());
    print_newline ()
  end
