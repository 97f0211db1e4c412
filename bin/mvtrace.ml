(* mvtrace — observability analysis for multiverse workloads.

   Builds a Mini-C workload, runs it under the requested recorders, and
   renders the results; or compares two bench JSON documents offline.

     mvtrace flame prog.mvc --set config_smp=1 --commit --run bench \
         --out prog.folded --chrome prog.trace.json
     mvtrace top prog.mvc --commit --run bench
     mvtrace spans prog.mvc --commit --run bench
     mvtrace heat prog.mvc --set config_smp=1 --commit --run bench \
         --budget 64 --json prog.heat.json
     mvtrace variants prog.mvc --set config_smp=1 --commit --run bench
     mvtrace timeline prog.mvc --harts 3 --seed 7 --run worker --chrome t.json
     mvtrace blame prog.mvc --harts 3 --seed 7 --run worker --slow-hart 2
     mvtrace postmortem smp-artifacts/trap-1.flight.json
     mvtrace diff BENCH_results.json fresh.json --gate 0

   `flame` emits folded stacks (flamegraph.pl / speedscope input) and/or
   a Chrome trace_event JSON; `top` prints the hot-stack table; `spans`
   prints patching-span latency statistics and the event/metrics
   summary; `heat` prints the per-region code heatmap (block hits,
   executed-byte coverage, decayed hotness with ASCII bars), optionally
   the eviction advisor's keep/evict plan under --budget, and exports a
   mv-heat/1 JSON with --json; `variants` prints the variant lifecycle
   table (installs, residency, heat, advisor verdict); `timeline`
   drives a pinned-seed SMP patch storm and renders per-hart event
   lanes (ASCII and/or Chrome trace, one lane per hart); `blame` runs
   the same storm and attributes each stop_machine rendezvous' latency
   to the hart that released it last (with optional slow-ack chaos to
   inject a straggler); `postmortem` pretty-prints and causally
   analyzes a mv-flight/1 flight-recorder dump; `diff` structurally
   compares two mv-bench-rows/1 documents and, with --gate PCT, exits
   non-zero when any leaf drifts by more than PCT percent or is missing
   from an experiment the fresh document ran (writing a
   mv-flight/1 dump of the regressions when MV_SMP_ARTIFACT_DIR is
   set).

   Unknown subcommands or flags exit 2 with a usage line naming every
   subcommand (keep that list, this comment, and the Cmd.group below in
   sync). *)

module Image = Mv_link.Image
module Harness = Mv_workloads.Harness

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

(* Build a session and run the workload function under whatever
   recorders the subcommand armed via [arm].  Shared by flame/top/spans. *)
let run_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args ~arm =
  let sources = List.map (fun f -> (Filename.basename f, read_file f)) files in
  (* --lazy: demand-driven materialization; 0 means the whole region *)
  let session =
    Harness.session ~callsite_padding:padding
      ~lazy_variants:(lazy_budget <> None)
      ?budget:(Option.bind lazy_budget (fun b -> if b = 0 then None else Some b))
      sources
  in
  List.iter (fun w -> Format.eprintf "%s@." w)
    (Core.Compiler.warnings session.Harness.program);
  arm session;
  List.iter (fun (name, v) -> Harness.set session name v) sets;
  if commit then begin
    let n = Harness.commit session in
    Format.eprintf "multiverse_commit: %d entities bound@." n
  end;
  let result = Harness.call session fn args in
  Format.eprintf "%s(%s) = %d@." fn
    (String.concat ", " (List.map string_of_int args))
    result;
  session

(* ------------------------------------------------------------------ *)

open Cmdliner

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Mini-C source files")

let set_arg =
  Arg.(
    value & opt_all (pair ~sep:'=' string int) []
    & info [ "set" ] ~docv:"VAR=VAL" ~doc:"Set a global before running")

let commit_arg =
  Arg.(value & flag & info [ "commit" ] ~doc:"Call multiverse_commit before running")

let run_arg =
  Arg.(
    value & opt string "main"
    & info [ "run" ] ~docv:"FN" ~doc:"Workload function to run (default $(b,main))")

let args_arg =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Integer argument for --run")

let padding_arg =
  Arg.(
    value & opt int 0
    & info [ "padding" ] ~docv:"N" ~doc:"Nop-pad call sites of multiversed symbols")

let lazy_arg =
  Arg.(
    value
    & opt ~vopt:(Some 0) (some int) None
    & info [ "lazy" ] ~docv:"BYTES"
        ~doc:
          "Materialize variants on demand instead of pre-expanding them, \
           under a resident byte budget of $(docv) (0 or omitted value: \
           the whole variant-text region)")

let interval_arg =
  Arg.(
    value & opt int 97
    & info [ "interval" ] ~docv:"N"
        ~doc:"Sampling period in instructions (default 97)")

let handle_errors f =
  try f () with
  | Core.Compiler.Compile_error m ->
      Format.eprintf "error: %s@." m;
      2
  | Mv_vm.Machine.Fault m ->
      Format.eprintf "machine fault: %s@." m;
      2
  | Image.Segfault m ->
      Format.eprintf "segfault: %s@." m;
      2
  | Sys_error m ->
      Format.eprintf "error: %s@." m;
      2

(* --- flame ---------------------------------------------------------- *)

let flame_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write folded stacks to $(docv) (default: stdout)")

let chrome_arg =
  Arg.(
    value & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:"Also record trace events and write a Chrome trace_event JSON to $(docv)")

let flame_main files sets commit fn args padding lazy_budget interval out chrome =
  handle_errors (fun () ->
      let session =
        run_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
          ~arm:(fun s ->
            Harness.enable_stack_profiling ~interval s;
            if chrome <> None then Harness.enable_tracing s)
      in
      let folded = Harness.folded_dump session in
      (match out with
      | Some path ->
          write_file path folded;
          Format.eprintf "folded stacks -> %s@." path
      | None -> print_string folded);
      (match chrome with
      | Some path ->
          write_file path (Harness.trace_dump session);
          Format.eprintf "chrome trace: %d event(s) -> %s@."
            (List.length (Harness.trace_events session))
            path
      | None -> ());
      0)

let flame_cmd =
  let doc = "Emit folded stacks (flamegraph.pl / speedscope input)" in
  Cmd.v
    (Cmd.info "flame" ~doc)
    Term.(
      const flame_main $ files_arg $ set_arg $ commit_arg $ run_arg $ args_arg
      $ padding_arg $ lazy_arg $ interval_arg $ flame_out_arg $ chrome_arg)

(* --- top ------------------------------------------------------------ *)

let limit_arg =
  Arg.(
    value & opt int 10
    & info [ "limit"; "n" ] ~docv:"N" ~doc:"Rows to print (default 10)")

let top_main files sets commit fn args padding lazy_budget interval limit =
  handle_errors (fun () ->
      let session =
        run_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
          ~arm:(fun s -> Harness.enable_stack_profiling ~interval s)
      in
      Array.iter
        (fun sp ->
          Format.printf "%a@." (Mv_obs.Stackprof.pp ~limit) sp;
          Format.printf "variant share: %.1f%%@."
            (100.0 *. Mv_obs.Stackprof.variant_share sp))
        session.Harness.stackprofs;
      0)

let top_cmd =
  let doc = "Print the hot-stack table" in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(
      const top_main $ files_arg $ set_arg $ commit_arg $ run_arg $ args_arg
      $ padding_arg $ lazy_arg $ interval_arg $ limit_arg)

(* --- spans ---------------------------------------------------------- *)

let spans_metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Also write the metrics-registry JSON ($(b,mv-metrics-registry/1)) to $(docv)")

let spans_main files sets commit fn args padding lazy_budget metrics_out =
  handle_errors (fun () ->
      let session =
        run_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
          ~arm:(fun s ->
            Harness.enable_tracing s;
            Harness.enable_metrics s)
      in
      let events = Harness.trace_events session in
      Format.printf "%a@." Mv_obs.Analyze.pp_span_stats
        (Mv_obs.Analyze.span_stats events);
      Format.printf "event counts:@.";
      List.iter
        (fun (tag, n) -> Format.printf "  %-20s %d@." tag n)
        (Mv_obs.Analyze.event_counts events);
      (match (metrics_out, Harness.metrics session) with
      | Some path, Some m ->
          Core.Runtime.stats_metrics (Core.Runtime.stats session.Harness.runtime) m;
          write_file path (Mv_obs.Json.to_string_pretty (Mv_obs.Metrics.to_json m));
          Format.eprintf "metrics registry -> %s@." path
      | _ -> ());
      0)

let spans_cmd =
  let doc = "Print patching-span latency statistics" in
  Cmd.v
    (Cmd.info "spans" ~doc)
    Term.(
      const spans_main $ files_arg $ set_arg $ commit_arg $ run_arg $ args_arg
      $ padding_arg $ lazy_arg $ spans_metrics_arg)

(* --- heat / variants ------------------------------------------------- *)

let budget_arg =
  Arg.(
    value & opt (some int) None
    & info [ "budget" ] ~docv:"BYTES"
        ~doc:
          "Run the eviction advisor: rank resident variants by heat density \
           and keep the densest prefix fitting $(docv) bytes of text")

let heat_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the $(b,mv-heat/1) heat report to $(docv)")

(* Shared by heat/variants: run the workload with heat telemetry armed,
   then close one decay epoch so the reported hotness is the run's hit
   counts (decayed scores only differ once a caller runs several
   epochs). *)
let run_heat_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args =
  let session =
    run_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
      ~arm:(fun s -> Harness.enable_heat s)
  in
  Harness.heat_epoch session;
  session

let heat_main files sets commit fn args padding lazy_budget budget json_out =
  handle_errors (fun () ->
      let session =
        run_heat_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
      in
      (match session.Harness.heat with
      | Some h ->
          Format.printf "%a" Mv_obs.Heat.pp h;
          (match budget with
          | Some budget ->
              Format.printf "@.eviction plan (budget %d bytes):@." budget;
              List.iter
                (fun (a : Mv_obs.Heat.advice) ->
                  Format.printf "  %-6s %-40s heat=%.1f bytes=%d@."
                    (match a.Mv_obs.Heat.ad_verdict with
                    | Mv_obs.Heat.Keep -> "keep"
                    | Mv_obs.Heat.Evict -> "evict")
                    a.Mv_obs.Heat.ad_region.Mv_obs.Heat.r_name
                    a.Mv_obs.Heat.ad_heat a.Mv_obs.Heat.ad_bytes)
                (Mv_obs.Heat.evict_plan h ~budget)
          | None -> ())
      | None -> ());
      (match json_out with
      | Some path ->
          write_file path
            (Mv_obs.Json.to_string_pretty (Harness.heat_json ?budget session));
          Format.eprintf "heat report -> %s@." path
      | None -> ());
      0)

let heat_cmd =
  let doc = "Per-region code heatmap (block hits, coverage, decayed hotness)" in
  Cmd.v
    (Cmd.info "heat" ~doc)
    Term.(
      const heat_main $ files_arg $ set_arg $ commit_arg $ run_arg $ args_arg
      $ padding_arg $ lazy_arg $ budget_arg $ heat_json_arg)

let variants_main files sets commit fn args padding lazy_budget budget json_out =
  handle_errors (fun () ->
      let session =
        run_heat_workload ~files ~sets ~padding ~lazy_budget ~commit ~fn ~args
      in
      (match session.Harness.heat with
      | Some h ->
          Format.printf "%a"
            (Mv_obs.Heat.pp_variants ?budget ~exclude:[]
               ~now:(Mv_vm.Smp.clock session.Harness.smp))
            h
      | None -> ());
      (match json_out with
      | Some path ->
          write_file path
            (Mv_obs.Json.to_string_pretty (Harness.heat_json ?budget session));
          Format.eprintf "heat report -> %s@." path
      | None -> ());
      0)

let variants_cmd =
  let doc = "Variant lifecycle table: installs, residency, heat, advisor verdict" in
  Cmd.v
    (Cmd.info "variants" ~doc)
    Term.(
      const variants_main $ files_arg $ set_arg $ commit_arg $ run_arg $ args_arg
      $ padding_arg $ lazy_arg $ budget_arg $ heat_json_arg)

(* --- SMP runs: timeline / blame ------------------------------------- *)

module Smp = Mv_vm.Smp
module Trace = Mv_obs.Trace
module Causal = Mv_obs.Causal
module Json = Mv_obs.Json
module Flight = Mv_obs.Flight

let harts_arg =
  Arg.(
    value & opt int 2
    & info [ "harts" ] ~docv:"N" ~doc:"Number of harts (default 2)")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S" ~doc:"Scheduler seed (default 42)")

let storms_arg =
  Arg.(
    value & opt int 3
    & info [ "storms" ] ~docv:"N"
        ~doc:
          "Patch-storm rounds: each round steps the schedule, then runs a \
           commit/revert under the stop_machine rendezvous (default 3)")

let steps_arg =
  Arg.(
    value & opt int 120
    & info [ "steps" ] ~docv:"N"
        ~doc:"Scheduler steps between storm rounds (default 120)")

let slow_hart_arg =
  Arg.(
    value & opt (some int) None
    & info [ "slow-hart" ] ~docv:"H"
        ~doc:
          "Chaos: make hart $(docv) a straggler — it keeps executing instead \
           of acking IPIs")

let slow_acks_arg =
  Arg.(
    value & opt int 25
    & info [ "slow-acks" ] ~docv:"N"
        ~doc:
          "How many ack opportunities the slow hart squanders per rendezvous \
           window (default 25; needs --slow-hart)")

(* Build an SMP session, arm tracing, and drive a pinned-seed patch
   storm: every hart runs [fn args]; between rounds of scheduler steps
   the initiator runs a commit (odd rounds) or revert (even rounds), each
   inside a stop_machine rendezvous.  Deterministic per
   (sources, sets, harts, seed, storms, steps, slow). *)
let run_smp_workload ~files ~sets ~harts ~seed ~fn ~args ~storms ~steps ~slow =
  let sources = List.map (fun f -> (Filename.basename f, read_file f)) files in
  let s = Harness.session ~n_harts:harts ~seed sources in
  Harness.enable_tracing s;
  (match slow with
  | Some (h, n) ->
      if h < 0 || h >= harts then failwith "slow hart out of range";
      Smp.set_slow_ack s.Harness.smp (Some (h, n))
  | None -> ());
  List.iter (fun (name, v) -> Harness.set s name v) sets;
  for h = 0 to harts - 1 do
    Harness.start s ~hart:h fn args
  done;
  let more = ref true in
  for round = 1 to storms do
    for _ = 1 to steps do
      if !more then more := Harness.step s
    done;
    if round mod 2 = 1 then ignore (Harness.commit s)
    else ignore (Harness.revert s)
  done;
  Harness.run s;
  s

let slow_of slow_hart slow_acks =
  Option.map (fun h -> (h, slow_acks)) slow_hart

(* --- timeline ------------------------------------------------------- *)

let timeline_chrome_arg =
  Arg.(
    value & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write the run as a Chrome trace_event JSON (one lane per hart) to \
           $(docv)")

let timeline_limit_arg =
  Arg.(
    value & opt int 25
    & info [ "limit"; "n" ] ~docv:"N"
        ~doc:"Events to print per hart lane (default 25, newest kept)")

let print_timelines ~limit events =
  List.iter
    (fun (hart, lane) ->
      let n = List.length lane in
      let shown =
        if n <= limit then lane
        else
          (* keep the newest window; the dropped prefix is announced *)
          List.filteri (fun i _ -> i >= n - limit) lane
      in
      Format.printf "── hart %d ── %d event(s)%s@." hart n
        (if n > List.length shown then
           Printf.sprintf " (showing last %d)" (List.length shown)
         else "");
      List.iter
        (fun (st : Trace.stamped) ->
          Format.printf "  [%10.1f] #%d %a@." st.Trace.ts st.Trace.hseq
            Trace.pp_event st.Trace.ev)
        shown)
    (Causal.timelines events);
  match Causal.edges events with
  | [] -> ()
  | edges ->
      Format.printf "cross-hart edges:@.";
      List.iter
        (fun (e : Causal.edge) ->
          Format.printf "  [%10.1f] %-10s id=%d  hart %d -> hart %d@."
            e.Causal.e_ts e.Causal.e_kind e.Causal.e_id e.Causal.e_src
            e.Causal.e_dst)
        edges

let timeline_main files sets harts seed fn args storms steps slow_hart slow_acks
    limit chrome =
  handle_errors (fun () ->
      let s =
        run_smp_workload ~files ~sets ~harts ~seed ~fn ~args ~storms ~steps
          ~slow:(slow_of slow_hart slow_acks)
      in
      let events = Harness.trace_events s in
      print_timelines ~limit events;
      (match chrome with
      | Some path ->
          write_file path (Harness.trace_dump s);
          Format.eprintf "chrome trace: %d event(s) -> %s@." (List.length events)
            path
      | None -> ());
      0)

let timeline_cmd =
  let doc = "Per-hart event lanes for a pinned-seed SMP patch storm" in
  Cmd.v
    (Cmd.info "timeline" ~doc)
    Term.(
      const timeline_main $ files_arg $ set_arg $ harts_arg $ seed_arg $ run_arg
      $ args_arg $ storms_arg $ steps_arg $ slow_hart_arg $ slow_acks_arg
      $ timeline_limit_arg $ timeline_chrome_arg)

(* --- blame ---------------------------------------------------------- *)

let print_blame ~resolve events =
  let rdvs = Causal.rendezvous events in
  if rdvs = [] then Format.printf "no rendezvous in this run@."
  else begin
    Format.printf
      "%-5s %-9s %-10s %-9s %-12s %-10s %s@." "rdv" "initiator" "latency"
      "straggler" "waited" "share" "executing";
    List.iter
      (fun (r : Causal.rendezvous) ->
        match (Causal.straggler r, r.Causal.r_latency) with
        | Some a, Some lat ->
            let share =
              if lat > 0.0 then 100.0 *. a.Causal.a_wait /. lat else 0.0
            in
            Format.printf "%-5d %-9d %-10.1f %-9d %-12.1f %-9.1f%% %s@."
              r.Causal.r_id r.Causal.r_initiator lat a.Causal.a_hart
              a.Causal.a_wait share
              (resolve a.Causal.a_at)
        | _ ->
            Format.printf "%-5d %-9d (uncontended or incomplete)@." r.Causal.r_id
              r.Causal.r_initiator)
      rdvs;
    match Causal.rank_stragglers rdvs with
    | [] -> ()
    | ranks ->
        Format.printf "@.straggler ranking:@.";
        List.iter
          (fun (h : Causal.hart_rank) ->
            Format.printf
              "  hart %d: straggled %d/%d rendezvous, total wait %.1f, max \
               wait %.1f@."
              h.Causal.h_hart h.Causal.h_straggled h.Causal.h_acks
              h.Causal.h_total_wait h.Causal.h_max_wait)
          ranks
  end

let blame_main files sets harts seed fn args storms steps slow_hart slow_acks =
  handle_errors (fun () ->
      let s =
        run_smp_workload ~files ~sets ~harts ~seed ~fn ~args ~storms ~steps
          ~slow:(slow_of slow_hart slow_acks)
      in
      let img = s.Harness.program.Core.Compiler.p_image in
      let resolve pc =
        match Image.symbol_at img pc with
        | Some name -> Printf.sprintf "%s (pc %d)" name pc
        | None -> Printf.sprintf "pc %d" pc
      in
      print_blame ~resolve (Harness.trace_events s);
      0)

let blame_cmd =
  let doc = "Which hart delayed each stop_machine rendezvous, and by how much" in
  Cmd.v
    (Cmd.info "blame" ~doc)
    Term.(
      const blame_main $ files_arg $ set_arg $ harts_arg $ seed_arg $ run_arg
      $ args_arg $ storms_arg $ steps_arg $ slow_hart_arg $ slow_acks_arg)

(* --- postmortem ----------------------------------------------------- *)

let dump_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"DUMP" ~doc:"A $(b,mv-flight/1) dump (*.flight.json)")

let postmortem_limit_arg =
  Arg.(
    value & opt int 25
    & info [ "limit"; "n" ] ~docv:"N"
        ~doc:"Events to print per hart lane (default 25, newest kept)")

let postmortem_main dump limit =
  handle_errors (fun () ->
      match Json.parse (read_file dump) with
      | Error m ->
          Format.eprintf "error: %s does not parse: %s@." dump m;
          2
      | Ok doc ->
          (match Json.member "schema" doc with
          | Some (Json.String s) when s = Flight.schema -> ()
          | Some (Json.String s) ->
              failwith (Printf.sprintf "unsupported schema %S (want %s)" s Flight.schema)
          | _ -> failwith "not a flight dump: no schema member");
          let str k =
            match Json.member k doc with
            | Some (Json.String s) -> s
            | _ -> "?"
          in
          let int k =
            match Json.member k doc with Some (Json.Int n) -> n | _ -> 0
          in
          Format.printf "flight dump: reason=%s clock=%s@." (str "reason")
            (match Json.member "clock" doc with
            | Some (Json.Float f) -> Printf.sprintf "%.1f" f
            | Some (Json.Int n) -> string_of_int n
            | _ -> "?");
          Format.printf "window: %d recorded, %d kept (capacity %d), %d dropped@."
            (int "recorded")
            (int "recorded" - int "dropped")
            (int "capacity") (int "dropped");
          (match Json.member "fault" doc with
          | Some (Json.String m) when m <> "" -> Format.printf "fault: %s@." m
          | _ -> ());
          (match Json.member "harts" doc with
          | Some (Json.List hs) ->
              List.iter
                (fun h ->
                  match
                    (Json.member "hart" h, Json.member "pc" h, Json.member "frames" h)
                  with
                  | Some (Json.Int i), Some (Json.Int pc), Some (Json.List fr) ->
                      Format.printf "hart %d: pc=%d, %d live frame(s)@." i pc
                        (List.length fr)
                  | _ -> ())
                hs
          | _ -> ());
          (match Flight.events_of_dump doc with
          | [] -> Format.printf "no events in the recorded window@."
          | events ->
              Format.printf "@.";
              print_timelines ~limit events;
              let rdvs = Causal.rendezvous events in
              if rdvs <> [] then begin
                Format.printf "@.rendezvous blame:@.";
                print_blame
                  ~resolve:(fun pc -> Printf.sprintf "pc %d" pc)
                  events
              end;
              (match Causal.chains events with
              | [] -> ()
              | chains ->
                  Format.printf "@.commit chains:@.";
                  List.iter
                    (fun (c : Causal.chain) ->
                      Format.printf
                        "  cid %d: %s on hart %d, begin %.1f%s, %d defer(s), \
                         %d denial(s)%s%s@."
                        c.Causal.c_cid c.Causal.c_op c.Causal.c_hart
                        c.Causal.c_begin_ts
                        (match c.Causal.c_end_ts with
                        | Some e -> Printf.sprintf ", end %.1f" e
                        | None -> ", never ended")
                        (List.length c.Causal.c_defers)
                        (List.length c.Causal.c_denies)
                        (match c.Causal.c_drained with
                        | Some (h, ts) ->
                            Printf.sprintf ", drained on hart %d @ %.1f" h ts
                        | None -> "")
                        (if c.Causal.c_rolled_back then ", ROLLED BACK" else ""))
                    chains);
              match Causal.check_send_ack_pairing events with
              | [] -> ()
              | violations ->
                  Format.printf "@.causal invariant violations:@.";
                  List.iter (fun v -> Format.printf "  %s@." v) violations);
          0)

let postmortem_cmd =
  let doc = "Pretty-print and analyze a mv-flight/1 postmortem dump" in
  Cmd.v
    (Cmd.info "postmortem" ~doc)
    Term.(const postmortem_main $ dump_arg $ postmortem_limit_arg)

(* --- diff ----------------------------------------------------------- *)

let base_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE" ~doc:"Baseline bench JSON")

let fresh_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"FRESH" ~doc:"Fresh bench JSON")

let gate_arg =
  Arg.(
    value & opt (some float) None
    & info [ "gate" ] ~docv:"PCT"
        ~doc:
          "Exit non-zero when any compared leaf drifts by more than $(docv) percent \
           (either direction: on a deterministic simulator any drift means the \
           baseline is stale), or when a baseline leaf is missing from an \
           experiment the fresh document ran")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Show unchanged leaves too, not just the drifted ones")

let no_skip_arg =
  Arg.(
    value & flag
    & info [ "no-skip" ]
        ~doc:
          "Compare host wall-clock series too (commit_ms/revert_ms fields and the \
           host-ms row are skipped by default: they are not simulator-deterministic)")

let diff_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the delta list as JSON to $(docv)")

let diff_main base fresh gate all no_skip json_out =
  handle_errors (fun () ->
      let parse path =
        match Mv_obs.Json.parse (read_file path) with
        | Ok j -> Ok j
        | Error m -> Error (Printf.sprintf "%s: %s" path m)
      in
      match (parse base, parse fresh) with
      | Error m, _ | _, Error m ->
          Format.eprintf "error: %s@." m;
          2
      | Ok base_j, Ok fresh_j -> (
          let skip =
            if no_skip then Some (fun ~label:_ ~field:_ -> false) else None
          in
          match Mv_obs.Analyze.bench_diff ?skip ~base:base_j ~fresh:fresh_j () with
          | Error m ->
              Format.eprintf "error: %s@." m;
              2
          | Ok deltas ->
              Format.printf "%a@."
                (Mv_obs.Analyze.pp_deltas ~only_changed:(not all))
                deltas;
              (match json_out with
              | Some path ->
                  write_file path
                    (Mv_obs.Json.to_string_pretty (Mv_obs.Analyze.deltas_json deltas))
              | None -> ());
              (match gate with
              | None -> 0
              | Some threshold -> (
                  match Mv_obs.Analyze.regressions ~threshold deltas with
                  | [] ->
                      Format.printf "gate: ok (no leaf beyond %.2f%%)@." threshold;
                      0
                  | bad ->
                      Format.printf "gate: FAIL — %d leaf(s) beyond %.2f%% or missing:@."
                        (List.length bad) threshold;
                      List.iter
                        (fun d -> Format.printf "  %a@." Mv_obs.Analyze.pp_delta d)
                        bad;
                      (* postmortem artifact for CI: the offending deltas
                         in the same schema every other failure dump
                         uses (gated on MV_SMP_ARTIFACT_DIR) *)
                      let flight =
                        Flight.create ~capacity:1 ~clock:(fun () -> 0.0) ()
                      in
                      (match
                         Flight.write_artifact flight ~reason:"bench-gate"
                           ~name:"bench-gate"
                           ~extra:
                             [
                               ("threshold", Json.Float threshold);
                               ( "regressions",
                                 Mv_obs.Analyze.deltas_json bad );
                             ]
                           ()
                       with
                      | Some p -> Format.eprintf "flight dump saved: %s@." p
                      | None -> ());
                      1))))

let diff_cmd =
  let doc = "Structurally compare two bench JSON documents" in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(
      const diff_main $ base_arg $ fresh_arg $ gate_arg $ all_arg $ no_skip_arg
      $ diff_json_arg)

(* ------------------------------------------------------------------ *)

let subcommands =
  [
    flame_cmd;
    top_cmd;
    spans_cmd;
    heat_cmd;
    variants_cmd;
    timeline_cmd;
    blame_cmd;
    postmortem_cmd;
    diff_cmd;
  ]

let cmd =
  let doc = "Observability analysis for multiverse workloads" in
  Cmd.group (Cmd.info "mvtrace" ~doc) subcommands

(* An unknown subcommand or flag must exit 2 (usage error) rather than
   cmdliner's default 124, and the message must name every subcommand so
   the caller can self-correct without opening the man page. *)
let () =
  let status = Cmd.eval' cmd in
  if status = Cmd.Exit.cli_error then begin
    Format.eprintf "usage: mvtrace COMMAND [OPTION]...@.commands: %s@."
      (String.concat ", " (List.map Cmd.name subcommands));
    exit 2
  end
  else exit status
