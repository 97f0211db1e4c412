(* mvcc — the multiverse Mini-C compiler driver.

   Compiles one or more Mini-C source files, links them into a simulated
   process image, and optionally runs a function on the machine simulator,
   committing configuration switches through the multiverse runtime first.

     mvcc prog.mvc --run main
     mvcc prog.mvc --set config_smp=1 --commit --run bench --perf
     mvcc prog.mvc --dump-ir --dump-asm
     mvcc a.mvc b.mvc --descriptors --stats
     mvcc prog.mvc --commit --strategy body --run main
     mvcc prog.mvc --padding 8 --commit --bench bench_loop
     mvcc prog.mvc --commit --run main --trace out.json --stats-json m.json *)

module Image = Mv_link.Image

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let dump_ir (p : Core.Compiler.program) =
  List.iter
    (fun (u : Core.Compiler.compiled_unit) ->
      Format.printf "; unit %s@." u.cu_name;
      List.iter
        (fun fn -> Format.printf "%a@.@." Mv_ir.Ir.pp_fn fn)
        u.cu_prog.Mv_ir.Ir.p_fns)
    p.p_units

let dump_asm (p : Core.Compiler.program) =
  let img = p.p_image in
  List.iter
    (fun (u : Core.Compiler.compiled_unit) ->
      List.iter
        (fun (fn : Mv_ir.Ir.fn) ->
          let addr = Image.symbol img fn.fn_name in
          let size = Image.symbol_size img fn.fn_name in
          Format.printf "%s:  ; 0x%x, %d bytes@." fn.fn_name addr size;
          print_string
            (Mv_isa.Asm.disassemble
               ~resolve:(fun a -> Image.symbol_at img a)
               img.Image.mem ~off:addr ~len:size);
          print_newline ())
        u.cu_prog.Mv_ir.Ir.p_fns)
    p.p_units

let dump_descriptors (p : Core.Compiler.program) =
  let img = p.p_image in
  let vars = Core.Descriptor.parse_variables img in
  let fns = Core.Descriptor.parse_functions img in
  let sites = Core.Descriptor.parse_callsites img in
  Format.printf "multiverse.variables (%d):@." (List.length vars);
  List.iter
    (fun (v : Core.Descriptor.variable) ->
      Format.printf "  0x%-8x width=%d signed=%b fnptr=%b  ; %s@." v.vr_addr v.vr_width
        v.vr_signed v.vr_fnptr
        (Option.value ~default:"?" (Image.symbol_at img v.vr_addr)))
    vars;
  Format.printf "multiverse.functions (%d):@." (List.length fns);
  List.iter
    (fun (f : Core.Descriptor.function_record) ->
      Format.printf "  %s (0x%x, %d B), %d variant record(s):@."
        (Option.value ~default:"?" (Image.symbol_at img f.fd_generic))
        f.fd_generic f.fd_generic_size
        (List.length f.fd_variants);
      List.iter
        (fun (v : Core.Descriptor.variant_record) ->
          Format.printf "    %s (0x%x, %d B) guards:"
            (Option.value ~default:"?" (Image.symbol_at img v.va_addr))
            v.va_addr v.va_size;
          List.iter
            (fun (g : Core.Descriptor.guard_record) ->
              Format.printf " %s in [%d,%d]"
                (Option.value ~default:"?" (Image.symbol_at img g.gr_var))
                g.gr_lo g.gr_hi)
            v.va_guards;
          Format.printf "@.")
        f.fd_variants)
    fns;
  Format.printf "multiverse.callsites (%d):@." (List.length sites);
  List.iter
    (fun (c : Core.Descriptor.callsite) ->
      Format.printf "  site 0x%-8x -> %s@." c.cs_site
        (Option.value ~default:"?" (Image.symbol_at img c.cs_target)))
    sites

open Cmdliner

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Mini-C source files")

let run_arg =
  Arg.(value & opt (some string) None & info [ "run" ] ~docv:"FN" ~doc:"Run function $(docv)")

let args_arg =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Integer argument for --run")

let set_arg =
  Arg.(
    value & opt_all (pair ~sep:'=' string int) []
    & info [ "set" ] ~docv:"VAR=VAL" ~doc:"Set a global before running")

let commit_arg =
  Arg.(value & flag & info [ "commit" ] ~doc:"Call multiverse_commit before --run")

let perf_arg = Arg.(value & flag & info [ "perf" ] ~doc:"Print performance counters")
let dump_ir_arg = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Dump the optimized IR")
let dump_asm_arg = Arg.(value & flag & info [ "dump-asm" ] ~doc:"Disassemble the image")

let descriptors_arg =
  Arg.(value & flag & info [ "descriptors" ] ~doc:"Dump multiverse descriptor sections")

let xen_arg =
  Arg.(value & flag & info [ "xen" ] ~doc:"Run as a paravirtualized guest (hypercalls allowed, cli/sti fault)")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print section sizes and multiverse overhead")

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("call-site", `Call_site); ("body", `Body) ]) `Call_site
    & info [ "strategy" ] ~docv:"S"
        ~doc:"Variant installation strategy: $(b,call-site) (the paper's design) or $(b,body) (the Section 7.1 alternative)")

let padding_arg =
  Arg.(
    value & opt int 0
    & info [ "padding" ] ~docv:"N"
        ~doc:"Nop-pad call sites of multiversed symbols by $(docv) bytes (wider inlining)")

let bench_arg =
  Arg.(
    value & opt (some string) None
    & info [ "bench" ] ~docv:"FN"
        ~doc:"Measure mean cycles per call of loop function $(docv) (called with a count argument)")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record patching/execution events and write a Chrome trace_event JSON to $(docv) (load in about:tracing or Perfetto)")

let stats_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write the unified metrics snapshot (runtime, perf, program stats) as JSON to $(docv)")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Sample the step loop and print the hot-function table (variants attributed separately)")

let main files run args sets commit perf ir asm descriptors xen stats strategy padding bench
    trace stats_json profile =
  try
    let sources = List.map (fun f -> (Filename.basename f, read_file f)) files in
    let session =
      Mv_workloads.Harness.session ~callsite_padding:padding
        ~platform:(if xen then Mv_vm.Machine.Xen else Mv_vm.Machine.Native)
        sources
    in
    let { Mv_workloads.Harness.program; machine; runtime; _ } = session in
    List.iter (fun w -> Format.eprintf "%s@." w) (Core.Compiler.warnings program);
    if ir then dump_ir program;
    if descriptors then dump_descriptors program;
    let img = program.p_image in
    if trace <> None then Mv_workloads.Harness.enable_tracing session;
    if profile then Mv_workloads.Harness.enable_stack_profiling session;
    (match strategy with
    | `Call_site -> ()
    | `Body -> Core.Runtime.set_strategy runtime Core.Runtime.Body_patching);
    List.iter
      (fun (name, v) -> Image.write img (Image.symbol img name) v 8)
      sets;
    if commit then begin
      let n = Core.Runtime.commit runtime in
      Format.printf "multiverse_commit: %d entities bound@." n;
      List.iter
        (fun f -> Format.printf "  fallback to generic: %s@." f)
        (Core.Runtime.fallbacks runtime)
    end;
    if asm then dump_asm program;
    if stats then begin
      Format.printf "%a@." Core.Stats.pp (Core.Stats.of_program program);
      let rstats = Core.Runtime.stats runtime in
      Format.printf
        "runtime: %d function(s), %d variant record(s), %d call site(s), %d inlined, %d retargeted@."
        rstats.Core.Runtime.st_functions rstats.Core.Runtime.st_variants
        rstats.Core.Runtime.st_callsites rstats.Core.Runtime.st_sites_inlined
        rstats.Core.Runtime.st_sites_retargeted
    end;
    (match bench with
    | Some loop_fn ->
        let calls = 100 in
        (* warmup + measure, mirroring the benchmark harness *)
        for _ = 1 to 3 do
          ignore (Mv_vm.Machine.call machine loop_fn [ calls ])
        done;
        let total = ref 0.0 in
        let samples = 100 in
        for _ = 1 to samples do
          let before = Mv_vm.Perf.cycles machine.Mv_vm.Machine.perf in
          ignore (Mv_vm.Machine.call machine loop_fn [ calls ]);
          total := !total +. (Mv_vm.Perf.cycles machine.Mv_vm.Machine.perf -. before)
        done;
        Format.printf "%s: %.2f cycles/call (%d samples x %d calls)@." loop_fn
          (!total /. float_of_int (samples * calls))
          samples calls
    | None -> ());
    (match run with
    | Some fn ->
        let before = Mv_vm.Perf.snapshot machine.Mv_vm.Machine.perf in
        let result = Mv_vm.Machine.call machine fn args in
        let after = Mv_vm.Perf.snapshot machine.Mv_vm.Machine.perf in
        Format.printf "%s(%s) = %d@." fn
          (String.concat ", " (List.map string_of_int args))
          result;
        if perf then Format.printf "%a@." Mv_vm.Perf.pp (Mv_vm.Perf.diff before after)
    | None -> ());
    if profile then
      Format.printf "%a@." (fun fmt -> Mv_obs.Stackprof.pp_leaves fmt)
        (Array.to_list session.Mv_workloads.Harness.stackprofs);
    (match trace with
    | Some path ->
        write_file path (Mv_workloads.Harness.trace_dump session);
        Format.printf "trace: %d event(s) -> %s@."
          (List.length (Mv_workloads.Harness.trace_events session))
          path
    | None -> ());
    (match stats_json with
    | Some path ->
        write_file path
          (Mv_obs.Json.to_string_pretty (Mv_workloads.Harness.metrics_json session));
        Format.printf "metrics -> %s@." path
    | None -> ());
    0
  with
  | Core.Compiler.Compile_error m ->
      Format.eprintf "error: %s@." m;
      1
  | Mv_vm.Machine.Fault m ->
      Format.eprintf "machine fault: %s@." m;
      2
  | Image.Segfault m ->
      Format.eprintf "segfault: %s@." m;
      2

let cmd =
  let doc = "Mini-C compiler with multiverse dynamic-variability support" in
  Cmd.v
    (Cmd.info "mvcc" ~doc)
    Term.(
      const main $ files_arg $ run_arg $ args_arg $ set_arg $ commit_arg $ perf_arg
      $ dump_ir_arg $ dump_asm_arg $ descriptors_arg $ xen_arg $ stats_arg
      $ strategy_arg $ padding_arg $ bench_arg $ trace_arg $ stats_json_arg
      $ profile_arg)

let () = exit (Cmd.eval' cmd)
