(* The repository benchmark: four seeded, closed-loop workloads over the
   public APIs of the toolchain, the multiverse runtime, the simulator and
   the fuzzer.  See perfbench/README.md for the workloads, the metrics and
   which layer metric should move which end-to-end metric.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Every run of a registered workload reports every metric, so it
   interleaves the kernel-build, reconfig-storm and guest-exec phases, one
   operation at a time, each starting when the previous one ends; the
   workload names the phase that gets half of the [--seconds].  The fuzz
   campaign runs alone, under its own name only.
   Every operation is checked against a reference that does not come from
   the code under test; a failed check or an exception counts as a failed
   operation.

   With [--trace 0] the run prints the end-to-end metrics.  With
   [--trace 1] it runs a fixed schedule of operations twice, untraced and
   then traced, wraps each call into a layer in a span
   (perfbench/span.ml), and prints the per-layer metrics.  The last line
   of standard output is one JSON object. *)

module C = Core.Compiler
module R = Core.Runtime
module V = Core.Variantgen
module M = Mv_vm.Machine
module Smp = Mv_vm.Smp
module Perf = Mv_vm.Perf
module H = Mv_workloads.Harness

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metrics : metric list ref = ref []
let emit name unit_ samples value = metrics := { name; value; unit_; samples } :: !metrics
let attempted = ref 0
let failed = ref 0
let first_failure = ref None

let record_failure what =
  incr failed;
  if !first_failure = None then first_failure := Some what

(* One checked operation: [f] returns whether the output matched its
   reference. *)
let checked what f =
  incr attempted;
  match f () with
  | true -> ()
  | false -> record_failure (what ^ ": output differs from the reference")
  | exception e -> record_failure (what ^ ": " ^ Printexc.to_string e)

let pct l p = H.percentile l p

type chaos = No_chaos | Skip_flush | Stale_cache

let chaos = ref No_chaos

(* ------------------------------------------------------------------ *)
(* Host state                                                          *)
(* ------------------------------------------------------------------ *)

(* The host's cores alternate, a few seconds at a time, between two
   speeds: the simulator runs nearly twice as fast in the faster one
   (other tenants' load on the shared core comes and goes), and a run's
   medians moved with the share of it the host spent there.  So a fixed
   loop of the benchmark's own code, which calls nothing in the program,
   is timed before every operation, and the commit and guest-loop
   metrics keep only the operations taken in the slower state. *)
let probe_table = Array.init 4096 (fun i -> (i * 2654435761) land 0xffff)

let host_probe () =
  let t0 = now () in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 5000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let v = probe_table.(!x land 4095) in
    if v land 1 = 0 then acc := !acc + v else decr acc
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The probe reading taken just before the current operation. *)
let probe = ref 0.0

(* Whether a probe reading belongs to the slower state: at least 1.3
   times the run's 10th percentile, which the faster state sets whenever
   the run spent a tenth of its time there (the loop reads about 40 us
   there and 55-60 us in the slower state).  A run with fewer than a
   tenth of its readings that slow spent its time in one state, and keeps
   every operation. *)
let slow_state probes =
  let t = 1.3 *. pct probes 0.1 in
  let n_slow = List.length (List.filter (fun p -> p >= t) probes) in
  if n_slow * 10 < List.length probes then fun _ -> true else fun p -> p >= t

(* The values, each paired with its operation's probe reading, that were
   measured in the slower host state; all of them if none was. *)
let in_slow_state slow l =
  match List.filter_map (fun (p, v) -> if slow p then Some v else None) l with
  | [] -> List.map snd l
  | kept -> kept

(* Machine.create, with its major-heap words counted in the traced run. *)
let machine_create ?(replay = false) img =
  Span.with_ ~replay "vm.machine.create" (fun () ->
      let w0 = (Gc.quick_stat ()).Gc.major_words in
      let m = M.create img in
      Span.count "vm.machine.create_kwords" (((Gc.quick_stat ()).Gc.major_words -. w0) /. 1000.0);
      m)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type runner = {
  op : int -> unit;  (** operation [i]: counts attempts and failures *)
  report : slow:(float -> bool) -> unit;
      (** emit this phase's end-to-end metrics; [slow] tells the probe
          readings of the slower host state *)
  min_ops : int;  (** operations every metric the phase reports needs *)
}

type phase = {
  p_name : string;
  p_setup : int -> unit -> runner;
      (** [p_setup seed] generates the phase's inputs; applying the result
          sets up fresh program state, the part [setup_s] times *)
  p_ops_per_s : float;
      (** rough untraced operation rate, to size the traced run's fixed
          operation counts *)
}

(* ---- kernel-build ------------------------------------------------- *)

(* Call sites per program, two programs of each size: small programs up
   to the paper's 1,161-site kernel and beyond. *)
let kb_sites = [| 64; 256; 640; 1170; 1600; 64; 256; 640; 1170; 1600 |]

let ir_instrs (p : Mv_ir.Ir.prog) =
  List.fold_left
    (fun a (fn : Mv_ir.Ir.fn) ->
      List.fold_left (fun a (b : Mv_ir.Ir.block) -> a + 1 + List.length b.b_instrs) a fn.fn_blocks)
    0 p.p_fns

(* The traced build: [Compiler.build] is [compile_unit] per unit and one
   [link], so the traced run calls those two itself.  Before each
   [compile_unit] it replays the unit's stages through their own public
   functions, to split the unit's time by layer. *)
let traced_build units =
  let cus =
    List.map
      (fun (u_name, u_source) ->
        ignore (Span.with_ ~replay:true "minic.lexer" (fun () -> Minic.Lexer.tokenize u_source));
        let tu = Span.with_ ~replay:true "minic.parser" (fun () -> Minic.Parser.parse_string u_source) in
        let tu, env, _ = Span.with_ ~replay:true "minic.typecheck" (fun () -> Minic.Typecheck.check tu) in
        let prog = Span.with_ ~replay:true "ir.lower" (fun () -> Mv_ir.Lower.lower_tunit tu env) in
        Span.count "ir.lower.instrs" (float_of_int (ir_instrs prog));
        let g = Span.with_ ~replay:true "core.variantgen" (fun () -> V.generate prog) in
        List.iter
          (fun (mf : V.mv_function) ->
            List.iter
              (fun (v : V.variant) ->
                Span.count "core.variantgen.variants" 1.0;
                Span.count "core.variantgen.merged" (float_of_int (List.length v.v_assignments - 1)))
              mf.mf_variants)
          g.r_functions;
        let bytes =
          Span.with_ ~replay:true "codegen.emit" (fun () ->
              List.fold_left
                (fun a fn -> a + Bytes.length (Mv_codegen.Emit.emit_fn fn).fr_code)
                0 g.r_prog.p_fns)
        in
        Span.count "codegen.emit.bytes" (float_of_int bytes);
        Span.with_ "core.compiler.compile_unit" (fun () -> C.compile_unit { C.u_name; u_source }))
      units
  in
  { C.p_image = Span.with_ "link.linker" (fun () -> C.link cus); p_units = cus }

let text_bytes img =
  let sz = Core.Stats.section_sizes img in
  sz.sz_text + Core.Stats.descriptor_overhead sz

let kernel_build seed =
  let rs = Random.State.make [| seed; 1 |] in
  let progs = Array.map (fun sites -> Kernel_src.make rs ~sites) kb_sites in
  fun () ->
    let n = Array.length progs in
    let expected = Array.make n None and text = Array.make n None in
    let builds = ref [] and boots = ref [] in
    let op i =
      let p = progs.(i mod n) in
      checked "kernel-build" (fun () ->
          let want =
            match expected.(i mod n) with
            | Some v -> v
            | None ->
                let v = Span.with_ "ir.interp" (fun () -> Kernel_src.reference p) in
                expected.(i mod n) <- Some v;
                v
          in
          let t0 = now () in
          let prog = if !Span.enabled then traced_build p.units else C.build p.units in
          let t1 = now () in
          let img = prog.p_image in
          let m = machine_create img in
          let rt =
            Span.with_ "core.runtime.create" (fun () ->
                R.create img ~flush:(fun ~addr ~len -> M.flush_icache m ~addr ~len))
          in
          List.iter (fun (sw, v) -> M.write_global m sw v ~width:8) p.valuation;
          ignore (Span.with_ "core.runtime.commit" (fun () -> R.commit rt));
          let t2 = now () in
          builds := (t1 -. t0) :: !builds;
          boots := (t2 -. t1) :: !boots;
          if text.(i mod n) = None then text.(i mod n) <- Some (text_bytes img);
          Span.with_ "vm.machine.call" (fun () -> M.call m "probe" [ p.arg ]) = want)
    in
    (* Not filtered by host state: the ten programs, of five sizes, run in
       turn, and filtering them one by one changes the mix the percentiles
       are taken over (build_ms_p50 spread 0.18 of its median over seven
       seeds filtered, 0.08 not). *)
    let report ~slow:_ =
      let ms l p = 1000.0 *. pct l p in
      let nb = List.length !builds in
      emit "build_ms_p50" "ms" nb (ms !builds 0.5);
      emit "build_ms_p90" "ms" nb (ms !builds 0.9);
      emit "boot_ms_p50" "ms" nb (ms !boots 0.5);
      emit "boot_ms_p90" "ms" nb (ms !boots 0.9);
      let sizes = Array.to_list text |> List.filter_map Fun.id in
      emit "text_kib" "KiB" (List.length sizes)
        (float_of_int (List.fold_left ( + ) 0 sizes) /. 1024.0 /. float_of_int (max 1 (List.length sizes)));
      Array.iter
        (fun (p : Kernel_src.t) ->
          Printf.printf "# kernel-build input: %d units, %d call sites, %d caller fns, %d source bytes\n"
            (List.length p.units) p.sites p.fns (Kernel_src.source_bytes p))
        progs
    in
    { op; report; min_ops = 1 }

(* ---- reconfig-storm ----------------------------------------------- *)

(* Eight multiversed functions over four bool switches each.  Whenever
   the outer switch of a pair is 0 the inner one is dead, so 7 of each
   function's 16 valuations optimize to a body that already exists:
   the dedup path runs. *)
let storm_fns = 8
let storm_farm_sites = 1170

let storm_consts k = (1 + (10 * k), 3 + (10 * k), 5 + (10 * k), 7 + (10 * k))

let storm_source =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Mv_workloads.Callsite_farm.source ~callers:(storm_farm_sites / 10) ~pairs:5);
  Buffer.add_string b "\nint w;\n";
  for j = 0 to (4 * storm_fns) - 1 do
    Buffer.add_string b (Printf.sprintf "multiverse bool s%d;\n" j)
  done;
  for k = 0 to storm_fns - 1 do
    let c1, c2, c3, c4 = storm_consts k in
    let s j = Printf.sprintf "s%d" ((4 * k) + j) in
    Buffer.add_string b
      (Printf.sprintf
         "multiverse void mf%d() {\n\
         \  if (%s) { w = w + %d; if (%s) { w = w + %d; } }\n\
         \  if (%s) { w = (w * 3) + %d; if (%s) { w = w + %d; } }\n\
          }\n"
         k (s 0) c1 (s 1) c2 (s 2) c3 (s 3) c4)
  done;
  Buffer.add_string b "int probe() {\n  w = 0;\n";
  for k = 0 to storm_fns - 1 do
    Buffer.add_string b (Printf.sprintf "  mf%d();\n" k)
  done;
  Buffer.add_string b
    "  spin_irq_lock();\n  int l = lock_word;\n  spin_irq_unlock();\n  return w + (l * 1000000);\n}\n";
  Buffer.contents b

(* What [probe] must return under a valuation, computed from the source's
   meaning rather than by running it. *)
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
  !w + if smp then 1_000_000 else 0

(* Valuations drawn Zipf-skewed (exponent 1.1) from a seeded universe;
   config_smp flips on about one operation in 32, re-patching every
   spinlock call site.  [storm_stream seed] draws the universe; each
   application of the result starts the same stream afresh. *)
let storm_universe = 256
let storm_budget = 1536

let storm_stream seed =
  let rs = Random.State.make [| seed; 2 |] in
  let universe =
    Array.init storm_universe (fun _ -> Random.State.full_int rs (1 lsl (4 * storm_fns)))
  in
  let cdf = Array.make storm_universe 0.0 in
  let acc = ref 0.0 in
  for r = 0 to storm_universe - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** 1.1));
    cdf.(r) <- !acc
  done;
  fun () ->
    let rs = Random.State.copy rs and smp = ref false in
    fun () ->
      let u = Random.State.float rs !acc in
      let r = ref 0 in
      while cdf.(!r) < u do incr r done;
      if Random.State.int rs 32 = 0 then smp := not !smp;
      (universe.(!r), !smp)

let reconfig_storm seed =
  let stream = storm_stream seed in
  fun () ->
    let s = H.lazy_session1 ~budget:storm_budget storm_source in
    let rt = s.runtime and m = s.machine in
    if !chaos = Stale_cache then R.set_stale_cache_chaos rt true;
    let next = stream () in
    let recipes = C.recipes s.program and call_pad = C.call_pad s.program in
    let commits = ref [] and seen = Hashtbl.create 256 in
    let op _ =
      checked "reconfig-storm" (fun () ->
          let bits, smp = next () in
          Hashtbl.replace seen (bits, smp) ();
          for j = 0 to (4 * storm_fns) - 1 do
            H.set s (Printf.sprintf "s%d" j) ((bits lsr j) land 1)
          done;
          H.set s "config_smp" (Bool.to_int smp);
          let st0 = R.stats rt in
          let t0 = now () in
          ignore (Span.with_ "core.runtime.commit" (fun () -> R.commit rt));
          let dt = now () -. t0 in
          let st1 = R.stats rt in
          commits := (!probe, dt) :: !commits;
          let d f = float_of_int (f st1 - f st0) in
          let kind =
            if d (fun s -> s.R.st_patches) >= float_of_int storm_farm_sites then "repatch"
            else if d (fun s -> s.R.st_evictions) > 0.0 then "evict"
            else if d (fun s -> s.R.st_materialized) > 0.0 then "materialize"
            else "hit"
          in
          Span.count ("storm." ^ kind ^ "_s") dt;
          Span.count ("storm." ^ kind ^ "_n") 1.0;
          Span.count "storm.commits" 1.0;
          Span.count "storm.cache_hits" (d (fun s -> s.R.st_cache_hits));
          Span.count "storm.materialized" (d (fun s -> s.R.st_materialized));
          Span.count "storm.dedup_hits" (d (fun s -> s.R.st_dedup_hits));
          Span.count "storm.evictions" (d (fun s -> s.R.st_evictions));
          Span.count "storm.budget_denials" (d (fun s -> s.R.st_budget_denials));
          Span.count "storm.patches" (d (fun s -> s.R.st_patches));
          if !Span.enabled then begin
            Span.count "storm.resident" (float_of_int (List.length (R.materialized_variants rt)));
            if kind = "evict" || kind = "materialize" then
              List.iter
                (fun (r : V.recipe) ->
                  let asg = List.map (fun (sw, _) -> (sw, H.get s sw)) r.rc_switches in
                  let v =
                    Span.with_ ~replay:true "core.variantgen.specialize" (fun () ->
                        V.specialize_recipe r asg)
                  in
                  ignore
                    (Span.with_ ~replay:true "codegen.emit.materialize" (fun () ->
                         Mv_codegen.Emit.emit_fn ~call_pad v.v_fn)))
                recipes
          end;
          Span.with_ "vm.machine.call" (fun () -> M.call m "probe" []) = storm_expected bits smp)
    in
    let report ~slow =
      let kept = in_slow_state slow !commits in
      let us p = 1e6 *. pct kept p in
      emit "commit_us_p50" "us" (List.length kept) (us 0.5);
      emit "commit_us_p90" "us" (List.length kept) (us 0.9);
      let n = List.length !commits in
      let bodies = List.sort_uniq compare (List.map (fun (_, a, sz) -> (a, sz)) (R.materialized_variants rt)) in
      let mean = List.fold_left (fun a (_, sz) -> a + sz) 0 bodies / max 1 (List.length bodies) in
      Printf.printf
        "# reconfig-storm input: %d valuations committed, %d distinct; %d variants materialized; the %d-byte budget holds %d bodies of mean %d bytes\n"
        n (Hashtbl.length seen) (R.stats rt).st_materialized storm_budget (List.length bodies) mean
    in
    { op; report; min_ops = 1 }


(* ---- guest-exec --------------------------------------------------- *)

(* The paper's unicore guest loops, each checked by a closed form
   computed outside the simulator, and the contended spinlock on 4 harts,
   checked by its exact shared counter. *)
type loop = {
  g_name : string;
  g_session : H.session;
  g_fn : string;
  g_iters : int;  (** mean loop iterations per operation *)
  g_check : int -> bool;  (** after a run of [n] iterations *)
}

let smp_harts = 4

(* A counted copy of the paper loop [fn]: the same [body], plus a global
   the loop increments.  The spinlock, pvops and malloc(1) loops leave no
   other state that depends on how many times they ran, so without the
   count a toolchain that dropped their bodies would pass every check. *)
let counted fn body =
  Printf.sprintf
    "\nint %s_ran;\nvoid %s_counted(int n) {\n  for (int i = 0; i < n; i = i + 1) {\n    %s\n    %s_ran = %s_ran + 1;\n  }\n}\n"
    fn fn body fn fn

(* Whether the counted copy of [fn] ran [n] iterations since the last
   check, which resets the count. *)
let ran (s : H.session) fn n =
  let v = H.get s (fn ^ "_ran") in
  H.set s (fn ^ "_ran") 0;
  v = n

let guest_exec seed =
  let spin_src =
    Mv_workloads.Spinlock.source Mv_workloads.Spinlock.Multiverse
    ^ counted "bench_loop" "spin_irq_lock(); spin_irq_unlock();"
  in
  let musl_src =
    Mv_workloads.Musl.source Mv_workloads.Musl.Multiversed
    ^ counted "bench_malloc1" "free_(malloc(1));"
  in
  let pv_src =
    Mv_workloads.Pvops.source Mv_workloads.Pvops.Multiverse
    ^ counted "bench_loop" "irq_disable(); irq_enable();"
  in
  fun () ->
    let rs = Random.State.make [| seed; 3 |] in
    let spin = H.session1 spin_src in
    H.set spin "config_smp" 0;
    ignore (H.commit spin);
    (* as Musl.prepare Multiversed ~threads:0 *)
    let musl = H.session1 musl_src in
    H.set musl "threads_minus_1" 0;
    ignore (H.commit musl);
    let pv = H.session1 pv_src in
    Mv_workloads.Pvops.boot pv Mv_workloads.Pvops.Multiverse M.Native;
    let sm = H.smp_session1 ~n_harts:smp_harts ~seed Mv_workloads.Spinlock.contended_source in
    H.smp_set sm "config_smp" 1;
    ignore (H.smp_commit sm);
    let irq_on (s : H.session) = s.machine.irq_enabled in
    let rand = ref (H.get musl "rand_state") and chars = ref 0 in
    let loops =
      [|
        { g_name = "spinlock"; g_session = spin; g_fn = "bench_loop_counted"; g_iters = 3000;
          g_check = (fun n -> ran spin "bench_loop" n && H.get spin "lock_word" = 0 && irq_on spin) };
        { g_name = "random"; g_session = musl; g_fn = "bench_random"; g_iters = 2000;
          g_check =
            (fun n ->
              for _ = 1 to n do
                rand := ((!rand * 1103515245) + 12345) land 0x7FFFFFFF
              done;
              H.get musl "rand_state" = !rand) };
        { g_name = "malloc1"; g_session = musl; g_fn = "bench_malloc1_counted"; g_iters = 1500;
          (* steady state: the one class-1 block is freed and reused *)
          g_check = (fun n -> ran musl "bench_malloc1" n && H.get musl "brk_off" = 48) };
        { g_name = "fputc"; g_session = musl; g_fn = "bench_fputc"; g_iters = 2000;
          g_check =
            (fun n ->
              chars := !chars + n;
              H.get musl "file_pos" = !chars mod 1024
              && H.get musl "file_flushes" = !chars / 1024) };
        { g_name = "pvops"; g_session = pv; g_fn = "bench_loop_counted"; g_iters = 3000;
          g_check = (fun n -> ran pv "bench_loop" n && irq_on pv) };
      |]
    in
    let nl = Array.length loops in
    let cycles_per_iter = Array.make nl 0.0 in
    (* per-operation simulated instructions per host second, per loop *)
    let uni_rates = Array.make nl [] and smp_rates = ref [] in
    let iters base = (base * 3 / 4) + Random.State.int rs (base / 2) in
    let record_decode_stats () =
      let sum f =
        List.fold_left (fun a (s : H.session) -> a + f (M.decode_stats s.machine)) 0 [ spin; musl; pv ]
      in
      Span.set "guest.sb_blocks" (float_of_int (sum (fun d -> d.M.ds_blocks)));
      Span.set "guest.sb_insns" (float_of_int (sum (fun d -> d.M.ds_insns)));
      Span.set "guest.sb_invalidated" (float_of_int (sum (fun d -> d.M.ds_invalidated)))
    in
    let uni_op i k =
      let g = loops.(k) in
      let n = iters g.g_iters in
      checked ("guest-exec " ^ g.g_name) (fun () ->
          let m = g.g_session.machine in
          let p0 = Perf.snapshot m.perf in
          M.start_call m g.g_fn [ n ];
          let t0 = now () in
          ignore (Span.with_ "vm.machine.finish" (fun () -> M.finish m));
          let dt = now () -. t0 in
          let d = Perf.diff p0 (Perf.snapshot m.perf) in
          uni_rates.(k) <- (!probe, float_of_int d.s_instructions /. dt) :: uni_rates.(k);
          (* the first run of each loop sets the cycle figure, so it does not
             depend on how many operations fit in the run *)
          if i < nl then cycles_per_iter.(k) <- d.s_cycles /. float_of_int n;
          Span.count "guest.uni_insns" (float_of_int d.s_instructions);
          Span.count "guest.iters" (float_of_int n);
          Span.count "guest.branches" (float_of_int d.s_branches);
          Span.count "guest.mispredicts" (float_of_int d.s_branch_mispredicts);
          if !Span.enabled then record_decode_stats ();
          g.g_check n)
    in
    let hart_insns () =
      let t = ref 0 in
      for h = 0 to smp_harts - 1 do
        t := !t + (Smp.machine sm.smp h).perf.instructions
      done;
      !t
    in
    let smp_op () =
      let n = iters 400 in
      let commit_at = 200 + Random.State.int rs 2000 in
      checked "guest-exec smp" (fun () ->
          H.smp_set sm "counter" 0;
          let i0 = hart_insns () and polls0 = (R.stats sm.sm_runtime).st_safepoint_polls in
          let rz0 = Smp.rendezvous_count sm.smp and rc0 = Smp.rendezvous_cycles sm.smp in
          let ipi0 = Smp.ipis_sent sm.smp in
          let t0 = now () in
          Span.with_ "vm.smp.run" (fun () ->
              for h = 0 to smp_harts - 1 do
                H.smp_start sm ~hart:h "worker" [ n ]
              done;
              let more = ref true and steps = ref 0 in
              while !more && !steps < commit_at do
                more := H.smp_step sm;
                incr steps
              done;
              (* commit only where hart 0 can take the stop IPI, as
                 Spinlock.run_contended does *)
              let m0 = Smp.machine sm.smp 0 in
              while !more && not m0.irq_enabled do
                more := H.smp_step sm
              done;
              if !more then ignore (Span.with_ "core.runtime.commit" (fun () -> H.smp_commit sm));
              H.smp_run sm);
          let dt = now () -. t0 in
          let di = hart_insns () - i0 in
          smp_rates := (!probe, float_of_int di /. dt) :: !smp_rates;
          Span.count "guest.smp_insns" (float_of_int di);
          Span.count "guest.smp_ops" 1.0;
          Span.count "guest.rendezvous" (float_of_int (Smp.rendezvous_count sm.smp - rz0));
          Span.count "guest.rendezvous_cycles" (Smp.rendezvous_cycles sm.smp -. rc0);
          Span.count "guest.ipis" (float_of_int (Smp.ipis_sent sm.smp - ipi0));
          Span.count "guest.safepoint_polls"
            (float_of_int ((R.stats sm.sm_runtime).st_safepoint_polls - polls0));
          H.smp_get sm "counter" = smp_harts * n)
    in
    (* operation i runs loop i mod (nl + 1); the last slot is the SMP run *)
    let op i = if i mod (nl + 1) = nl then smp_op () else uni_op i (i mod (nl + 1)) in
    let report ~slow =
      let geomean a =
        exp (Array.fold_left (fun s x -> s +. log x) 0.0 a /. float_of_int (Array.length a))
      in
      (* From medians, so a burst of host interference slows a few
         operations, not the figure; the geometric mean over the loops
         moves with a change to any one of them. *)
      let uni = Array.map (in_slow_state slow) uni_rates and smp = in_slow_state slow !smp_rates in
      emit "uni_minsn_s" "Minsn/s"
        (Array.fold_left (fun a l -> a + List.length l) 0 uni)
        (geomean (Array.map (fun l -> pct l 0.5) uni) /. 1e6);
      emit "smp_minsn_s" "Minsn/s" (List.length smp) (pct smp 0.5 /. 1e6);
      emit "guest_cycles_per_op" "cycles" nl (geomean cycles_per_iter)
    in
    { op; report; min_ops = nl + 1 }

(* ---- fuzz-campaign ------------------------------------------------ *)

(* One operation is a batch of cases run by Driver.run_parallel on 2
   domains; case seeds are consecutive from a base drawn from the
   workload seed.  A divergence found by any of the eight oracles is a
   failed case. *)
let fuzz_batch = 4
let fuzz_domains = 2
let fuzz_cfg = Mv_fuzz.Gen.small_cfg

let fuzz_campaign seed =
  let base = 1 + (Random.State.int (Random.State.make [| seed; 4 |]) 1_000_000_000) in
  fun () ->
    let batches = ref [] in
    let op i =
      let first = base + (i * fuzz_batch) in
      let fuzz_chaos = if !chaos = Skip_flush then Some Mv_fuzz.Oracle.Skip_flush else None in
      let t0 = now () in
      (match
         Span.with_ "fuzz.driver.run_parallel" (fun () ->
             Mv_fuzz.Driver.run_parallel ~cfg:fuzz_cfg ?chaos:fuzz_chaos ~keep_going:true
               ~shrink_budget:0 ~domains:fuzz_domains ~seed:first ~iters:fuzz_batch ())
       with
      | sum ->
          attempted := !attempted + sum.s_tested;
          List.iter
            (fun (r : Mv_fuzz.Driver.report) ->
              record_failure
                (Format.asprintf "fuzz-campaign seed %d: %a" r.rp_seed Mv_fuzz.Oracle.pp_divergence
                   r.rp_original))
            sum.s_reports
      | exception e ->
          attempted := !attempted + fuzz_batch;
          record_failure ("fuzz-campaign: " ^ Printexc.to_string e));
      let dt = now () -. t0 in
      batches := dt :: !batches;
      Span.count "fuzz.campaign_s" dt;
      Span.count "fuzz.cases" (float_of_int fuzz_batch);
      (* the traced run replays the batch on one domain, one call per layer *)
      if !Span.enabled then
        for c = first to first + fuzz_batch - 1 do
          let g0 = Gc.quick_stat () in
          let case = Span.with_ ~replay:true "fuzz.gen" (fun () -> Mv_fuzz.Gen.case ~cfg:fuzz_cfg c) in
          let sched = Mv_fuzz.Driver.schedule_for case c in
          List.iter
            (fun name ->
              ignore
                (Span.with_ ~replay:true ("fuzz.oracle." ^ name) (fun () ->
                     Mv_fuzz.Oracle.run_named name case sched)))
            Mv_fuzz.Oracle.oracle_names;
          let g1 = Gc.quick_stat () in
          Span.count "fuzz.replay.minor_words" (g1.minor_words -. g0.minor_words);
          Span.count "fuzz.replay.major_words" (g1.major_words -. g0.major_words);
          Span.count "fuzz.replay.major_collections"
            (float_of_int (g1.major_collections - g0.major_collections));
          (* Machine.create on the case's own image *)
          let prog = Span.with_ ~replay:true "core.compiler.build" (fun () -> C.build_string case.c_src) in
          ignore (machine_create ~replay:true prog.p_image)
        done
    in
    (* from the median batch: a burst of host interference stalls both
       domains of the batches it hits, not the figure *)
    let report ~slow:_ =
      emit "fuzz_cases_s" "1/s" (fuzz_batch * List.length !batches)
        (float_of_int fuzz_batch /. pct !batches 0.5)
    in
    { op; report; min_ops = 1 }

let kernel_build_phase = { p_name = "kernel-build"; p_setup = kernel_build; p_ops_per_s = 50.0 }
let storm_phase = { p_name = "reconfig-storm"; p_setup = reconfig_storm; p_ops_per_s = 1100.0 }
let guest_phase = { p_name = "guest-exec"; p_setup = guest_exec; p_ops_per_s = 300.0 }
let fuzz_phase = { p_name = "fuzz-campaign"; p_setup = fuzz_campaign; p_ops_per_s = 1.5 }

(* The phases every run of a registered workload interleaves.  The fuzz
   campaign runs alone, only under its own name: its two domains read
   both of the host's cores, and fuzz_cases_s spread 0.25 of its median
   over six seeds, more than any bound allows. *)
let interleaved = [ kernel_build_phase; storm_phase; guest_phase ]
let phases = interleaved @ [ fuzz_phase ]
let run_phases main = if main == fuzz_phase then [ fuzz_phase ] else interleaved

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from the traced run's spans and counters         *)
(* ------------------------------------------------------------------ *)

let layer_metrics ps ~gc_per_op =
  let has p = List.memq p ps in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  let c = Span.counter in
  let self_ms name = fst (Span.mean_self name) *. 1000.0 in
  let calls name = float_of_int (snd (Span.mean_self name)) in
  let ms name span = emit name "ms" (snd (Span.mean_self span)) (self_ms span) in
  let programs = calls "link.linker" in
  let units = calls "core.compiler.compile_unit" in
  let m name unit_ v = emit name unit_ 1 v in
  if has kernel_build_phase then begin
    ms "minic.lexer.ms" "minic.lexer";
    ms "minic.parser.ms" "minic.parser";
    ms "minic.typecheck.ms" "minic.typecheck";
    ms "ir.lower.ms" "ir.lower";
    m "ir.lower.instrs" "count" (per (c "ir.lower.instrs") (calls "ir.lower"));
    ms "core.variantgen.ms" "core.variantgen";
    m "core.variantgen.variants" "count" (per (c "core.variantgen.variants") programs);
    m "core.variantgen.merged" "count" (per (c "core.variantgen.merged") programs);
    ms "codegen.emit.ms" "codegen.emit";
    m "codegen.emit.bytes" "bytes" (per (c "codegen.emit.bytes") programs);
    (* compile_unit repeats the stages replayed above; parse_string
       includes lexing, so the lexer replay is not subtracted *)
    let stages =
      List.fold_left (fun a n -> a +. Span.total n) 0.0
        [ "minic.parser"; "minic.typecheck"; "ir.lower"; "core.variantgen"; "codegen.emit" ]
    in
    m "core.compiler.assemble_ms" "ms"
      (1000.0 *. per (Span.total "core.compiler.compile_unit" -. stages) units);
    ms "link.linker.ms" "link.linker";
    ms "core.runtime.create_ms" "core.runtime.create"
  end;
  ms "vm.machine.create_ms" "vm.machine.create";
  m "vm.machine.create_kwords" "kwords"
    (per (c "vm.machine.create_kwords") (calls "vm.machine.create"));
  if has storm_phase then begin
    let kind_us k = 1e6 *. per (c ("storm." ^ k ^ "_s")) (c ("storm." ^ k ^ "_n")) in
    m "core.runtime.commit_hit_us" "us" (kind_us "hit");
    m "core.runtime.cache_hit_ratio" "ratio"
      (per (c "storm.cache_hits") (c "storm.cache_hits" +. c "storm.materialized"));
    m "core.runtime.resident_variants" "count" (per (c "storm.resident") (c "storm.commits"));
    m "core.runtime.commit_materialize_us" "us" (kind_us "materialize");
    m "core.runtime.commit_evict_us" "us" (kind_us "evict");
    m "core.runtime.commit_repatch_us" "us" (kind_us "repatch");
    m "core.runtime.materialized" "count" (c "storm.materialized");
    m "core.runtime.dedup_hits" "count" (c "storm.dedup_hits");
    m "core.runtime.evictions" "count" (c "storm.evictions");
    m "core.runtime.budget_denials" "count" (c "storm.budget_denials");
    m "core.runtime.patches_per_commit" "count" (per (c "storm.patches") (c "storm.commits"));
    m "core.variantgen.specialize_us" "us" (1000.0 *. self_ms "core.variantgen.specialize");
    m "codegen.emit.materialize_us" "us" (1000.0 *. self_ms "codegen.emit.materialize")
  end;
  if has guest_phase then begin
    m "vm.machine.ns_per_insn" "ns" (1e9 *. per (Span.total "vm.machine.finish") (c "guest.uni_insns"));
    m "vm.machine.sb_blocks" "count" (c "guest.sb_blocks");
    m "vm.machine.sb_insns_per_block" "count" (per (c "guest.sb_insns") (c "guest.sb_blocks"));
    m "vm.machine.sb_invalidated" "count" (c "guest.sb_invalidated");
    m "vm.smp.ns_per_insn" "ns" (1e9 *. per (Span.total "vm.smp.run") (c "guest.smp_insns"));
    m "vm.smp.rendezvous" "count" (c "guest.rendezvous");
    m "vm.smp.rendezvous_cycles_mean" "cycles" (per (c "guest.rendezvous_cycles") (c "guest.rendezvous"));
    m "vm.smp.ipis" "count" (c "guest.ipis");
    m "vm.perf.branches_per_op" "count" (per (c "guest.branches") (c "guest.iters"));
    m "vm.perf.mispredicts_per_op" "count" (per (c "guest.mispredicts") (c "guest.iters"));
    m "core.runtime.safepoint_polls" "count" (per (c "guest.safepoint_polls") (c "guest.smp_ops"))
  end;
  if has fuzz_phase then begin
    ms "fuzz.gen.ms_per_case" "fuzz.gen";
    List.iter
      (fun o -> ms ("fuzz.oracle." ^ o ^ ".ms_per_case") ("fuzz.oracle." ^ o))
      Mv_fuzz.Oracle.oracle_names;
    let replay =
      List.fold_left
        (fun a o -> a +. Span.total ("fuzz.oracle." ^ o))
        (Span.total "fuzz.gen") Mv_fuzz.Oracle.oracle_names
    in
    m "fuzz.driver.domain_efficiency" "ratio"
      (per replay (float_of_int fuzz_domains *. c "fuzz.campaign_s"));
    m "fuzz.driver.cases" "count" (c "fuzz.cases")
  end;
  let minor, major, colls = gc_per_op in
  m "gc.minor_words_per_op" "words" minor;
  m "gc.major_words_per_op" "words" major;
  m "gc.major_collections_per_op" "count" colls

(* ------------------------------------------------------------------ *)
(* Running the phases                                                 *)
(* ------------------------------------------------------------------ *)

(* Every run of a registered workload measures the three interleaved
   phases, because every run reports every metric and this host's speed
   drifts over seconds: a phase measured in one short block would read
   that block's speed.  The workload's own phase gets [main_share] of the
   measuring time and the other two split the rest. *)
let main_share = 0.5

let shares main ps =
  let others = float_of_int (List.length ps - 1) in
  Array.of_list
    (List.map
       (fun p -> if p != main then (1.0 -. main_share) /. others else if others = 0.0 then 1.0 else main_share)
       ps)

let setup_repeats = 11

(* The inputs for [seed] of every phase in [ps], generated untimed;
   applying entry k sets phase k up. *)
let inputs ps seed = Array.of_list (List.map (fun p -> p.p_setup seed) ps)

(* Set every phase up once, adding the time phase k took to [times.(k)]. *)
let set_up_all set_ups times =
  let runners =
    Array.mapi
      (fun k set_up ->
        Gc.compact ();
        let t0 = now () in
        let r = set_up () in
        times.(k) <- (now () -. t0) :: times.(k);
        r)
      set_ups
  in
  Gc.compact ();
  runners

(* Peak resident set of this process so far, in MiB (Linux VmHWM). *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let argmin n f =
  let best = ref (-1) in
  for k = 0 to n - 1 do
    match f k with
    | Some v -> (
        match !best with
        | -1 -> best := k
        | b -> if v < Option.get (f b) then best := k)
    | None -> ()
  done;
  !best

(* Closed loop for [seconds]: the next operation goes to the phase that
   has used the smallest part of its share so far.  After the deadline,
   only phases that have not yet run their [min_ops] continue. *)
let untraced main ~seed ~seconds =
  let ps = run_phases main in
  let set_ups = inputs ps seed in
  let n = Array.length set_ups in
  let times = Array.make n [] in
  let runners = set_up_all set_ups times in
  let share = shares main ps and probes = ref [] in
  let used = Array.make n 0.0 and next = Array.make n 0 in
  let deadline = now () +. float_of_int seconds in
  let rec loop () =
    let open_ = now () < deadline in
    let k =
      argmin n (fun k ->
          if open_ || next.(k) < runners.(k).min_ops then Some (used.(k) /. share.(k)) else None)
    in
    if k >= 0 then begin
      probe := host_probe ();
      probes := !probe :: !probes;
      let t0 = now () in
      runners.(k).op next.(k);
      used.(k) <- used.(k) +. (now () -. t0);
      next.(k) <- next.(k) + 1;
      loop ()
    end
  in
  loop ();
  let slow = slow_state !probes in
  Printf.printf "# host probe: 10th percentile %.1f us; %d of %d operations in the slower state\n"
    (1e6 *. pct !probes 0.1)
    (List.length (List.filter slow !probes))
    (List.length !probes);
  Array.iter (fun r -> r.report ~slow) runners;
  emit "peak_rss_mib" "MiB" 1 (peak_rss_mib ());
  (* The other set-ups come after the peak is read: done before the
     measured time, they raised it (619 MiB after one set-up, 1,276 MiB
     after eleven, in otherwise equal 12 s runs). *)
  for _ = 2 to setup_repeats do
    ignore (set_up_all set_ups times)
  done;
  emit "setup_s" "s" (n * setup_repeats) (Array.fold_left (fun a l -> a +. pct l 0.5) 0.0 times)

(* The traced run's fixed schedule: per phase, the operations half the
   run would hold at the phase's share, interleaved evenly. *)
let schedule main ps ~seconds =
  let share = shares main ps in
  let counts =
    Array.of_list
      (List.mapi
         (fun k p ->
           max 2 (int_of_float (float_of_int seconds *. share.(k) *. p.p_ops_per_s /. 2.0)))
         ps)
  in
  let n = Array.length counts in
  let issued = Array.make n 0 in
  List.init (Array.fold_left ( + ) 0 counts) (fun _ ->
      let k =
        argmin n (fun k ->
            if issued.(k) < counts.(k) then
              Some (float_of_int (issued.(k) + 1) /. float_of_int counts.(k))
            else None)
      in
      issued.(k) <- issued.(k) + 1;
      k)

let run_schedule runners order f =
  let next = Array.make (Array.length runners) 0 in
  List.iter
    (fun k ->
      f k next.(k) (fun () -> runners.(k).op next.(k));
      next.(k) <- next.(k) + 1)
    order

(* The schedule twice: untraced, for the wall time and the main phase's
   allocation per operation, then traced from a fresh set-up. *)
let traced main ~seed ~seconds =
  let ps = run_phases main in
  let order = schedule main ps ~seconds in
  let is_main k = List.nth ps k == main in
  let set_ups = inputs ps seed in
  let times = Array.make (Array.length set_ups) [] in
  let runners = set_up_all set_ups times in
  let plain = Array.make (Array.length runners) 0.0 and main_ops = ref 0 in
  let minor = ref 0.0 and major = ref 0.0 and colls = ref 0.0 in
  run_schedule runners order (fun k _ run ->
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      run ();
      plain.(k) <- plain.(k) +. (now () -. t0);
      if is_main k then begin
        let g1 = Gc.quick_stat () in
        incr main_ops;
        minor := !minor +. (g1.minor_words -. g0.minor_words);
        major := !major +. (g1.major_words -. g0.major_words);
        colls := !colls +. float_of_int (g1.major_collections - g0.major_collections)
      end);
  let runners = set_up_all set_ups times in
  Span.reset ();
  Span.enabled := true;
  run_schedule runners order (fun k i run -> Span.op ((k * 1_000_000) + i) run);
  Span.enabled := false;
  let self = Span.self_times () in
  let ops = Span.named "op" in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0.0 l in
  let op_time = sum Span.dur ops in
  let unattributed = sum self ops in
  let replay = sum (fun (s : Span.t) -> if s.replay then Span.dur s else 0.0) !Span.recorded in
  let plain_total = Array.fold_left ( +. ) 0.0 plain in
  List.iteri
    (fun k p ->
      let mine (s : Span.t) = s.op / 1_000_000 = k in
      Printf.printf "# trace %-15s untraced %.3f s, traced %.3f s of which replay %.3f s\n" p.p_name
        plain.(k)
        (sum Span.dur (List.filter mine ops))
        (sum (fun (s : Span.t) -> if s.replay && mine s then Span.dur s else 0.0) !Span.recorded))
    ps;
  let per_op x = x /. float_of_int (max 1 !main_ops) in
  let gc_main =
    if main == fuzz_phase then
      let c = Span.counter and cases = Span.counter "fuzz.cases" in
      ( c "fuzz.replay.minor_words" /. cases,
        c "fuzz.replay.major_words" /. cases,
        c "fuzz.replay.major_collections" /. cases )
    else (per_op !minor, per_op !major, per_op !colls)
  in
  layer_metrics ps ~gc_per_op:gc_main;
  let n = List.length ops in
  emit "trace.unattributed_share" "ratio" n (unattributed /. op_time);
  emit "trace.overhead_share" "ratio" n ((op_time -. replay -. plain_total) /. plain_total);
  if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
  let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" main.p_name seed in
  Span.write path;
  Printf.printf "# %d spans written to %s\n" (List.length !Span.recorded) path

let json_result () =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failed = 0 && !attempted > 0) !attempted !failed;
  List.iteri
    (fun i mt ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        mt.name mt.value mt.unit_)
    (List.rev !metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

let usage () =
  prerr_endline
    "usage: bench.exe --workload (kernel-build|reconfig-storm|guest-exec|fuzz-campaign) --seed N \
     --seconds S --trace (0|1) [--chaos (skip-flush|stale-cache)]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--chaos" :: "skip-flush" :: rest -> chaos := Skip_flush; parse rest
    | "--chaos" :: "stale-cache" :: rest -> chaos := Stale_cache; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let main =
    match List.find_opt (fun p -> p.p_name = !workload) phases with
    | Some p -> p
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  if !trace = 0 then untraced main ~seed:!seed ~seconds:!seconds
  else traced main ~seed:!seed ~seconds:!seconds;
  let err = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "# %-40s %14s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun mt -> Printf.printf "# %-40s %14.4f %-8s n=%d\n" mt.name mt.value mt.unit_ mt.samples)
    (List.rev !metrics);
  Printf.printf "# %-40s %14.4f %-8s n=%d\n" "error_rate" err "ratio" !attempted;
  Option.iter (Printf.printf "# first failure: %s\n") !first_failure;
  print_endline (json_result ())
