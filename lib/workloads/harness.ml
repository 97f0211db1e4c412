(* The measurement harness, mirroring the paper's protocol (Section 6.1):

   "For each measurement we recorded 1 million samples, each consisting of
    100 calls to the respective functions.  In all result sets a small
    amount (not exceeding 0.04%) of clearly distinguishable outliers could
    be observed, presumably attributable to the occurrence of processor
    interrupts during measurement.  These outliers were excluded."

   Samples here are simulated-cycle counts per call; the machine is
   deterministic, so an optional seeded jitter source injects "interrupt"
   outliers to exercise the exclusion protocol. *)

module Machine = Mv_vm.Machine
module Smp = Mv_vm.Smp
module Perf = Mv_vm.Perf
module Image = Mv_link.Image
module Trace = Mv_obs.Trace
module Stackprof = Mv_obs.Stackprof
module Metrics = Mv_obs.Metrics
module Flight = Mv_obs.Flight
module Heat = Mv_obs.Heat
module Json = Mv_obs.Json

type measurement = {
  m_mean : float;  (** mean cycles per call, outliers excluded *)
  m_stddev : float;
  m_min : float;
  m_max : float;
  m_p50 : float;
  m_p95 : float;
  m_samples : int;
  m_excluded : int;
}

(** A built program on an N-hart container (a unicore session is the
    1-hart case) with its multiverse runtime, plus the (lazily enabled)
    observability state. *)
type session = {
  program : Core.Compiler.program;
  smp : Smp.t;
  machine : Machine.t;  (** hart 0 *)
  runtime : Core.Runtime.t;
  sm_runtime : Core.Runtime.t;  (** [runtime] again, a benchmark alias *)
  mutable ring : Trace.ring;  (** always on; {!enable_tracing} swaps it *)
  mutable stackprofs : Stackprof.t array;  (** set by {!enable_stack_profiling} *)
  mutable metrics : Metrics.t option;  (** set by {!enable_metrics} *)
  mutable metrics_sink : Trace.sink option;  (** the registry's trace bridge *)
  mutable heat : Heat.t option;  (** set by {!enable_heat} *)
}

(* Sequence number for trap artifacts, so two faults in one process never
   overwrite each other's dump — also when they trap on different domains:
   each dump takes its number with one atomic fetch-and-add. *)
let trap_counter = Atomic.make 1

let harts s = List.init (Smp.n_harts s.smp) (Smp.machine s.smp)

(* The session clock (summed hart cycles — hart 0's cycles on one hart)
   and the hart host-driven events are attributed to. *)
let clock s () = Smp.clock s.smp
let current_hart s () = Smp.current_hart s.smp

(* Postmortem context for a flight dump: the fault, the runtime's
   patching counters, and each hart's pc/stack summary. *)
let trap_extra ~msg s : (string * Json.t) list =
  [
    ("fault", Json.String msg);
    ("runtime", Core.Runtime.stats_json (Core.Runtime.stats s.runtime));
    ( "harts",
      Json.List
        (List.mapi
           (fun i (m : Machine.t) ->
             Json.Obj
               [
                 ("hart", Json.Int i);
                 ("pc", Json.Int m.Machine.pc);
                 ( "frames",
                   Json.List
                     (List.map (fun a -> Json.Int a) (Machine.call_frames m)) );
               ])
           (harts s)) );
  ]

(* One sink serves both emitters (the runtime, and the container, which
   hands it to every hart); the ring is in every chain, the metrics
   bridge and the heat sink tee in behind it when armed.  Re-run after
   any enable_* so the installed chain always reflects the session's
   current state. *)
let install_tracers s =
  let sinks =
    List.filter_map Fun.id
      [
        Some (Trace.sink s.ring);
        s.metrics_sink;
        Option.map (fun h -> Heat.sink h ~clock:(clock s)) s.heat;
      ]
  in
  let sink =
    match sinks with
    | [ f ] -> Some f
    | fs -> Some (fun ev -> List.iter (fun f -> f ev) fs)
  in
  Core.Runtime.set_tracer s.runtime sink;
  Smp.set_tracer s.smp sink

(* Wire the vm and the runtime together for safe commit: the runtime scans
   every hart's stack for live activations, and each hart's
   quiescence-point hook drains the runtime's deferred patch sets. *)
let enable_safe_commit s =
  Core.Runtime.set_live_scanner s.runtime (fun () -> Smp.live_code_addrs s.smp);
  Smp.set_safepoint s.smp (Some (fun () -> Core.Runtime.safepoint s.runtime))

(* Wire the runtime for cross-modifying code: every patching operation
   runs inside a stop_machine rendezvous, every text mutation goes
   through the breakpoint-first text_poke, commit-chain events carry the
   hart they ran on, and safe commit is armed. *)
let enable_stop_machine s =
  Core.Runtime.set_patch_barrier s.runtime
    (Some (fun f -> Smp.stop_machine s.smp f));
  Core.Runtime.set_text_writer s.runtime
    (Some (fun ~addr b -> Smp.text_poke s.smp ~addr b));
  Core.Runtime.set_hart_source s.runtime (Some (current_hart s));
  enable_safe_commit s

(** Attach a session to a built program.  One hart writes text directly
    and leaves safe commit opt-in; more harts wire the runtime for
    cross-modifying code: every patching operation runs inside a
    [stop_machine] rendezvous, text mutations go through the
    breakpoint-first [text_poke], commit chains carry the hart they ran
    on, and safe commit is armed.  The 512-event ring is armed here —
    always-on, every session — and every hart's trap hook wired to dump
    the session's current ring (gated on [MV_SMP_ARTIFACT_DIR], so a
    plain test run writes nothing). *)
let attach ?(n_harts = 1) ?policy ?seed ?platform ?budget
    (program : Core.Compiler.program) : session =
  let image = program.Core.Compiler.p_image in
  let smp = Smp.create ?policy ?seed ?platform ~n_harts image in
  let runtime =
    Core.Runtime.create image ~flush:(fun ~addr ~len ->
        Smp.flush_icache smp ~addr ~len)
  in
  (match Core.Compiler.recipes program with
  | [] -> ()
  | recipes ->
      Core.Runtime.enable_lazy ?budget runtime ~recipes
        ~call_pad:(Core.Compiler.call_pad program));
  let s =
    {
      program;
      smp;
      machine = Smp.machine smp 0;
      runtime;
      sm_runtime = runtime;
      ring =
        Trace.ring ~capacity:512
          ~clock:(fun () -> Smp.clock smp)
          ~hart:(fun () -> Smp.current_hart smp)
          ();
      stackprofs = [||];
      metrics = None;
      metrics_sink = None;
      heat = None;
    }
  in
  if n_harts > 1 then enable_stop_machine s;
  List.iter
    (fun m ->
      Machine.set_trap_hook m
        (Some
           (fun msg ->
             let n = Atomic.fetch_and_add trap_counter 1 in
             ignore
               (Flight.write_artifact s.ring ~reason:"vm-trap"
                  ~name:(Printf.sprintf "trap-%d" n)
                  ~extra:(trap_extra ~msg s) ()))))
    (harts s);
  (* the ring listens from the first instruction; enable_metrics /
     enable_heat later tee their sinks in behind it *)
  install_tracers s;
  s

let session ?n_harts ?policy ?seed ?platform ?callsite_padding ?lazy_variants
    ?vtext_size ?budget (sources : (string * string) list) : session =
  attach ?n_harts ?policy ?seed ?platform ?budget
    (Core.Compiler.build ?callsite_padding ?lazy_variants ?vtext_size sources)

let session1 ?n_harts ?policy ?seed ?platform ?callsite_padding ?lazy_variants
    ?vtext_size ?budget source =
  session ?n_harts ?policy ?seed ?platform ?callsite_padding ?lazy_variants
    ?vtext_size ?budget [ ("main", source) ]

let set s name v = Smp.write_global s.smp name v ~width:8
let get s name = Smp.read_global s.smp name ~width:8

(** Point a function-pointer global at a function symbol. *)
let set_fnptr s name target =
  let img = s.program.Core.Compiler.p_image in
  Image.write img (Image.symbol img name) (Image.symbol img target) 8

let commit s = Core.Runtime.commit s.runtime
let revert s = Core.Runtime.revert s.runtime
let commit_safe ?policy s = Core.Runtime.commit_safe ?policy s.runtime
let revert_safe ?policy s = Core.Runtime.revert_safe ?policy s.runtime

(* The OSR accessor record over one machine: direct register/pc access,
   and top-frame replacement so the stack profiler follows the
   transferred activation (stack words go through the runtime's image,
   which every hart's stack lives in). *)
let osr_hart_of_machine (m : Machine.t) : Core.Osr.hart =
  {
    Core.Osr.oh_hart = Machine.hart_id m;
    oh_pc = (fun () -> m.Machine.pc);
    oh_set_pc = (fun pc -> m.Machine.pc <- pc);
    oh_reg = (fun r -> m.Machine.regs.(r));
    oh_set_reg = (fun r v -> m.Machine.regs.(r) <- v);
    oh_set_top_frame = Machine.set_top_frame m;
    oh_stack = (m.Machine.stack_base - Smp.hart_stack_bytes, m.Machine.stack_base);
  }

(* Arm on-stack replacement: the runtime resolves the accessors of
   whichever hart is currently polling, so each hart's safepoint can
   transfer that hart's own parked activation into the newly selected
   body instead of waiting for the frame to unwind.  Compose with
   enable_safe_commit. *)
let enable_osr s =
  let ctxs = Array.of_list (List.map osr_hart_of_machine (harts s)) in
  Core.Runtime.set_osr s.runtime (Some (fun () -> ctxs.(Smp.current_hart s.smp)))

let start s ~hart fn args = Smp.start_call s.smp ~hart fn args
let step s = Smp.step s.smp
let run s = Smp.run s.smp
let result s ~hart = Smp.result s.smp ~hart

(* ------------------------------------------------------------------ *)
(* Observability: tracing, profiling, metrics, heat                    *)
(* ------------------------------------------------------------------ *)

(* Swap the always-on ring for a fresh one of the Trace.ring default
   capacity (4096), clocked and stamped like it; every reader and the
   trap hooks follow the swap.  A second call starts another fresh ring. *)
let enable_tracing s =
  s.ring <- Trace.ring ~clock:(clock s) ~hart:(current_hart s) ();
  install_tracers s

(* Arm the metrics registry: a second consumer of the same event stream
   (Metrics.trace_sink), clocked like the ring so the latency histograms
   are in simulated cycles and labelled with the hart that closed them.
   Composes with enable_tracing in either order. *)
let enable_metrics s =
  let m = Metrics.create () in
  s.metrics <- Some m;
  s.metrics_sink <-
    Some (Metrics.trace_sink m ~clock:(clock s) ~hart:(current_hart s) ());
  install_tracers s

(* Arm code-heat telemetry: every hart gains block-entry hit counters
   (host-side, zero simulated cycles), the runtime's body census becomes
   the region registry, and the residency sink joins the event chain so
   variant lifecycles are tracked from the same trace stream everything
   else consumes.  Composes with the other enable_* in any order. *)
let enable_heat s =
  let h = Heat.create () in
  List.iter (Heat.register h) (Core.Runtime.heat_regions s.runtime);
  s.heat <- Some h;
  List.iter Machine.enable_heat (harts s);
  install_tracers s

(* Fold every hart's cumulative block counters into the accumulator,
   keyed by hart id so harts sharing text offsets never collide
   (delta-safe: calling it repeatedly never double-counts).  Under lazy
   materialization the body census changes as variants come and go, so
   re-register the runtime's current regions first — Heat.register
   replaces extents by name, keeping registration order for survivors
   and their coverage unless the extent moved. *)
let heat_sync s =
  match s.heat with
  | None -> ()
  | Some h ->
      if Core.Runtime.lazy_enabled s.runtime then
        List.iter (Heat.register h) (Core.Runtime.heat_regions s.runtime);
      List.iter
        (fun m -> Heat.observe ~source:(Machine.hart_id m) h (Machine.heat_blocks m))
        (harts s)

let heat s =
  heat_sync s;
  s.heat

let heat_epoch s =
  heat_sync s;
  Option.iter Heat.epoch s.heat

let heat_report s =
  heat_sync s;
  match s.heat with None -> [] | Some h -> Heat.region_stats h

let heat_json ?budget s =
  heat_sync s;
  match s.heat with
  | None -> Json.Null
  | Some h ->
      Heat.to_json ?budget
        ~exclude:(Core.Runtime.pending_variants s.runtime)
        ~now:(clock s ()) h

(* Wire the byte-budget eviction advisor into the runtime: when the lazy
   materializer needs room, it asks the heat accumulator's
   Heat.evict_plan (freshly synced) which resident variants to shed
   first — coldest heat-per-byte first — excluding any a
   journaled-but-undrained bind still needs. *)
let enable_evict_advisor ?(budget = 0) s =
  Core.Runtime.set_evict_advisor s.runtime
    (Some
       (fun () ->
         heat_sync s;
         match s.heat with
         | None -> []
         | Some h ->
             Heat.evict_plan
               ~exclude:(Core.Runtime.pending_variants s.runtime)
               h ~budget
             |> List.filter_map (fun (a : Heat.advice) ->
                    if a.Heat.ad_verdict = Heat.Evict then
                      Some a.Heat.ad_region.Heat.r_name
                    else None)
             |> List.rev))

(* Attach one stack-aware sampler per hart, each clocked by its own hart's
   cycle counter: every [interval]-th instruction symbolizes the whole
   call stack (Machine.call_frames plus the pc as the leaf) and
   aggregates by collapsed stack — folded-stack output for
   flamegraph.pl/speedscope, and a per-leaf view for the flat
   hot-function table.  With several harts each stack is rooted at a
   synthetic "hartN" frame, so the merged dump keeps per-hart
   attribution. *)
let enable_stack_profiling ?interval s =
  let img = s.program.Core.Compiler.p_image in
  let n = Smp.n_harts s.smp in
  s.stackprofs <-
    Array.init n (fun i ->
        let m = Smp.machine s.smp i in
        let sp =
          Stackprof.create ?interval ~is_variant:(Core.Runtime.is_variant s.runtime)
            ?root:(if n > 1 then Some (Printf.sprintf "hart%d" i) else None)
            ~resolve:(Image.symbol_at img)
            ~frames:(fun () -> Machine.call_frames m)
            ~now:(fun () -> Perf.cycles m.Machine.perf)
            ()
        in
        Machine.set_sampler m (Some (Stackprof.sample sp));
        sp)

let trace_events s = Trace.events s.ring

let trace_dump s = Mv_obs.Export.chrome_trace_string (trace_events s)

let flight_dump ?(reason = "manual") s =
  Flight.dump_string s.ring ~reason ~extra:(trap_extra ~msg:"" s) ()

let stack_report s = List.concat_map Stackprof.report (Array.to_list s.stackprofs)

let folded_dump s =
  String.concat "" (List.map Stackprof.folded (Array.to_list s.stackprofs))

let metrics s = s.metrics

(* The unified metrics snapshot: runtime patching counters, hart 0's perf
   counters (with derived metrics), static program statistics, the ring's
   accounting, and — when enabled — the profiler's hot-function and
   hot-stack tables. *)
let metrics_json s : Json.t =
  let extra =
    (match Array.to_list s.stackprofs with
    | [] -> []
    | sps ->
        [
          ("profile", Mv_obs.Export.profile_json (Stackprof.leaves sps));
          ("stacks", Mv_obs.Export.stack_profile_json (stack_report s));
        ])
    @ (match s.metrics with
      | Some m ->
          (* refresh the runtime-counter (and, when armed, the code-heat)
             gauges at scrape time *)
          Core.Runtime.stats_metrics (Core.Runtime.stats s.runtime) m;
          (match s.heat with
          | Some h ->
              heat_sync s;
              Heat.to_metrics h m
          | None -> ());
          [ ("metrics", Metrics.to_json m) ]
      | None -> [])
    @ [
        ( "trace",
          Json.Obj
            [
              ("recorded", Json.Int (Trace.recorded s.ring));
              ("dropped", Json.Int (Trace.dropped s.ring));
            ] );
      ]
  in
  Mv_obs.Export.metrics ~extra
    ~runtime:(Core.Runtime.stats_json (Core.Runtime.stats s.runtime))
    ~perf:(Perf.snapshot_json (Perf.snapshot s.machine.Machine.perf))
    ~program:(Core.Stats.program_stats_json (Core.Stats.of_program s.program))
    ()

let call s fn args = Machine.call s.machine fn args

(** Cycles consumed by one invocation [fn args]. *)
let cycles_of_call s fn args =
  let before = Perf.cycles s.machine.Machine.perf in
  let (_ : int) = Machine.call s.machine fn args in
  Perf.cycles s.machine.Machine.perf -. before

let mean values =
  if values = [] then 0.0
  else List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let stddev values =
  match values with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean values in
      let var =
        List.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 values
        /. float_of_int (List.length values - 1)
      in
      sqrt var

(** Nearest-rank percentile of a sample list, [p] in [0, 1]; 0.0 for the
    empty list.  [percentile 0.5] is the median, [percentile 0.95] the
    tail-latency figure the bench tables report. *)
let percentile values p =
  match List.sort compare values with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(** Exclude "clearly distinguishable" outliers: anything beyond 3x the
    median (interrupt-scale disturbances, not ordinary noise). *)
let exclude_outliers values =
  let sorted = List.sort compare values in
  let median = List.nth sorted (List.length sorted / 2) in
  let threshold = median *. 3.0 +. 1.0 in
  List.partition (fun v -> v <= threshold) values

(** Measure [loop_fn], a guest function that runs [calls] invocations of the
    function under test in a tight loop, after three warm-up runs.
    Returns mean cycles per call.

    [jitter] (a seed) makes a small fraction of samples absorb a simulated
    interrupt, as in the paper's measurements on real hardware. *)
let measure ?(samples = 200) ?(calls = 100) ?jitter (s : session) ~(loop_fn : string) :
    measurement =
  for _ = 1 to 3 do
    ignore (Machine.call s.machine loop_fn [ calls ])
  done;
  let lcg = ref (Option.value jitter ~default:0 lor 1) in
  let next_lcg () =
    lcg := (!lcg * 0x5DEECE66D) + 0xB land max_int;
    !lcg land 0xFFFFFF
  in
  let raw =
    List.init samples (fun _ ->
        let c = cycles_of_call s loop_fn [ calls ] /. float_of_int calls in
        match jitter with
        | Some _ when next_lcg () mod 2500 = 0 ->
            (* an "interrupt" hit this sample: ~500 cycles amortized *)
            c +. (500.0 /. float_of_int calls *. 10.0)
        | _ -> c)
  in
  let kept, excluded = exclude_outliers raw in
  {
    m_mean = mean kept;
    m_stddev = stddev kept;
    m_min = (match List.sort compare kept with [] -> 0.0 | v :: _ -> v);
    m_max = List.fold_left max 0.0 kept;
    m_p50 = percentile kept 0.5;
    m_p95 = percentile kept 0.95;
    m_samples = List.length kept;
    m_excluded = List.length excluded;
  }

(** Perf-counter deltas over [n] invocations of [loop_fn]. *)
let counters (s : session) ~loop_fn ~calls : Perf.snapshot =
  let before = Perf.snapshot s.machine.Machine.perf in
  ignore (Machine.call s.machine loop_fn [ calls ]);
  let after = Perf.snapshot s.machine.Machine.perf in
  Perf.diff before after

(** A measurement as a JSON object — the bench exporter's row payload. *)
let measurement_json m : Json.t =
  Json.Obj
    [
      ("mean", Json.Float m.m_mean);
      ("stddev", Json.Float m.m_stddev);
      ("min", Json.Float m.m_min);
      ("max", Json.Float m.m_max);
      ("p50", Json.Float m.m_p50);
      ("p95", Json.Float m.m_p95);
      ("samples", Json.Int m.m_samples);
      ("excluded", Json.Int m.m_excluded);
    ]

(* ------------------------------------------------------------------ *)
(* Benchmark aliases (see harness.mli)                                 *)
(* ------------------------------------------------------------------ *)

let lazy_session1 ~budget source = session1 ~lazy_variants:true ~budget source
let smp_session1 ~n_harts ~seed source = session1 ~n_harts ~seed source
let smp_set = set
let smp_get = get
let smp_commit = commit
let smp_start = start
let smp_step = step
let smp_run = run
