(* Observability demo: trace a commit/run/revert cycle and write the
   events as a Chrome trace plus a metrics snapshot.

     dune exec examples/trace_obs.exe
     # then load /tmp/multiverse_trace.json in about:tracing or Perfetto

   The session arms the structured-event recorder and the stack
   profiler, drives the spinlock workload through a reconfiguration, and
   exports everything the observability layer produces: the event log,
   the Chrome trace_event JSON, the hot-function table, and the unified
   metrics snapshot. *)

module H = Mv_workloads.Harness
module Trace = Mv_obs.Trace

let source =
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

let trace_path = "/tmp/multiverse_trace.json"
let metrics_path = "/tmp/multiverse_metrics.json"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let () =
  Format.printf "--- multiverse observability: tracing a reconfiguration ---@.";
  let s = H.session1 source in
  H.enable_tracing s;
  H.enable_stack_profiling s;

  (* boot single-core, run, then bring up a second core and re-commit *)
  H.set s "config_smp" 0;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 500 ]);
  H.set s "config_smp" 1;
  ignore (H.commit s);
  ignore (H.call s "bench_loop" [ 500 ]);
  ignore (H.revert s);

  (* 1. the raw event log, one line per event *)
  Format.printf "@.recorded %d event(s):@." (List.length (H.trace_events s));
  List.iter (fun st -> Format.printf "  %a@." Trace.pp st) (H.trace_events s);

  (* 2. the profiler's view of where the cycles went, folded by leaf *)
  Format.printf "@.%a@."
    (fun fmt -> Mv_obs.Stackprof.pp_leaves fmt)
    (Array.to_list s.H.stackprofs);

  (* 3. the exports *)
  write_file trace_path (H.trace_dump s);
  Format.printf "@.chrome trace   -> %s (load in about:tracing / Perfetto)@." trace_path;
  write_file metrics_path (Mv_obs.Json.to_string_pretty (H.metrics_json s));
  Format.printf "metrics (JSON) -> %s@." metrics_path;
  Format.printf "@.done.@."
