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
module Perf = Mv_vm.Perf
module Image = Mv_link.Image
module Trace = Mv_obs.Trace
module Profile = Mv_obs.Profile
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

(** A built program with an attached machine and multiverse runtime, plus
    the (lazily enabled) observability state. *)
type session = {
  program : Core.Compiler.program;
  machine : Machine.t;
  runtime : Core.Runtime.t;
  flight : Flight.t;  (** always-on flight recorder, armed at creation *)
  mutable trace : Trace.ring option;  (** set by {!enable_tracing} *)
  mutable profile : Profile.t option;  (** set by {!enable_profiling} *)
  mutable stackprof : Stackprof.t option;  (** set by {!enable_stack_profiling} *)
  mutable metrics : Metrics.t option;  (** set by {!enable_metrics} *)
  mutable metrics_sink : Trace.sink option;  (** the registry's trace bridge *)
  mutable heat : Heat.t option;  (** set by {!enable_heat} *)
}

(* Sequence number for trap artifacts, so two faults in one process never
   overwrite each other's dump — also when they trap on different domains:
   each dump takes its number with one atomic fetch-and-add. *)
let trap_counter = Atomic.make 1

(* Postmortem context for a flight dump: the fault, the runtime's
   patching counters, and each hart's pc/stack summary. *)
let trap_extra ~msg ~runtime ~machines : (string * Json.t) list =
  [
    ("fault", Json.String msg);
    ("runtime", Core.Runtime.stats_json (Core.Runtime.stats runtime));
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
           machines) );
  ]

(** Assemble a session from pre-built parts (for callers that need custom
    build options, e.g. call-site padding).  The flight recorder is armed
    here — always-on, every session — and the machine's trap hook wired
    to dump it (gated on [MV_SMP_ARTIFACT_DIR], so a plain test run
    writes nothing). *)
let of_parts ?(flight_capacity = 512) program machine runtime : session =
  let flight =
    Flight.create ~capacity:flight_capacity
      ~clock:(fun () -> machine.Machine.perf.Perf.cycles)
      ()
  in
  let s =
    {
      program;
      machine;
      runtime;
      flight;
      trace = None;
      profile = None;
      stackprof = None;
      metrics = None;
      metrics_sink = None;
      heat = None;
    }
  in
  Machine.set_trap_hook machine
    (Some
       (fun msg ->
         let n = Atomic.fetch_and_add trap_counter 1 in
         ignore
           (Flight.write_artifact flight ~reason:"vm-trap"
              ~name:(Printf.sprintf "trap-%d" n)
              ~extra:(trap_extra ~msg ~runtime ~machines:[ machine ])
              ())));
  (* the recorder listens from the first instruction; enable_tracing /
     enable_metrics later tee their sinks in front of it *)
  let fsink = Flight.sink flight in
  Core.Runtime.set_tracer runtime (Some fsink);
  Machine.set_tracer machine (Some fsink);
  s

let session ?platform ?cost (sources : (string * string) list) : session =
  let program = Core.Compiler.build sources in
  let machine = Machine.create ?platform ?cost program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Machine.flush_icache machine ~addr ~len)
  in
  of_parts program machine runtime

let session1 ?platform ?cost source = session ?platform ?cost [ ("main", source) ]

(** A session built in lazy-materialization mode: the compiler records
    recipes instead of pre-expanding the switch product, and the runtime
    specializes on first commit into the image's vtext region.
    [vtext_size] sizes that region at link time; [budget] caps resident
    variant bytes (default: the whole region). *)
let lazy_session ?platform ?cost ?vtext_size ?budget
    (sources : (string * string) list) : session =
  let program = Core.Compiler.build ~lazy_variants:true ?vtext_size sources in
  let machine = Machine.create ?platform ?cost program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Machine.flush_icache machine ~addr ~len)
  in
  Core.Runtime.enable_lazy ?budget runtime
    ~recipes:(Core.Compiler.recipes program)
    ~call_pad:(Core.Compiler.call_pad program);
  of_parts program machine runtime

let lazy_session1 ?platform ?cost ?vtext_size ?budget source =
  lazy_session ?platform ?cost ?vtext_size ?budget [ ("main", source) ]

let set s name v =
  let img = s.program.Core.Compiler.p_image in
  Image.write img (Image.symbol img name) v 8

let get s name =
  let img = s.program.Core.Compiler.p_image in
  Image.read img (Image.symbol img name) 8

(** Point a function-pointer global at a function symbol. *)
let set_fnptr s name target =
  let img = s.program.Core.Compiler.p_image in
  Image.write img (Image.symbol img name) (Image.symbol img target) 8

let commit s = Core.Runtime.commit s.runtime
let revert s = Core.Runtime.revert s.runtime

(* Wire the vm and the runtime together for safe commit: the runtime scans
   the machine's stack for live activations, and the machine's
   quiescence-point hook drains the runtime's deferred patch sets. *)
let enable_safe_commit s =
  Core.Runtime.set_live_scanner s.runtime (fun () ->
      Machine.live_code_addrs s.machine);
  Machine.set_safepoint s.machine
    (Some (fun () -> Core.Runtime.safepoint s.runtime))

let commit_safe ?policy s = Core.Runtime.commit_safe ?policy s.runtime
let revert_safe ?policy s = Core.Runtime.revert_safe ?policy s.runtime

(* The OSR accessor record over one machine: direct register/pc access,
   8-byte stack words through the image, and top-frame replacement so the
   stack profiler follows the transferred activation. *)
let osr_hart_of_machine (m : Machine.t) : Core.Runtime.osr_hart =
  let img = m.Machine.image in
  {
    Core.Runtime.oh_hart = Machine.hart_id m;
    oh_pc = (fun () -> m.Machine.pc);
    oh_set_pc = (fun pc -> m.Machine.pc <- pc);
    oh_reg = (fun r -> m.Machine.regs.(r));
    oh_set_reg = (fun r v -> m.Machine.regs.(r) <- v);
    oh_mem = (fun addr -> Image.read img addr 8);
    oh_set_mem = (fun addr v -> Image.write img addr v 8);
    oh_set_top_frame =
      (fun addr ->
        m.Machine.frames <-
          (match m.Machine.frames with
          | _ :: rest -> addr :: rest
          | [] -> [ addr ]));
  }

(* Arm on-stack replacement: the runtime gains accessors to the machine's
   registers, stack words, and frame list, so a safepoint can transfer a
   live activation into the newly selected body instead of waiting for
   the frame to unwind.  Compose with enable_safe_commit. *)
let enable_osr s =
  let ctx = osr_hart_of_machine s.machine in
  Core.Runtime.set_osr s.runtime (Some (fun () -> ctx))

(* ------------------------------------------------------------------ *)
(* Observability: tracing, profiling, metrics                          *)
(* ------------------------------------------------------------------ *)

let machine_clock s () = s.machine.Machine.perf.Perf.cycles

(* One sink serves both emitters (runtime + machine); the always-on
   flight recorder is in every chain, the ring and the metrics bridge
   tee in front of it when armed.  Re-run after any enable_* so the
   installed chain always reflects the session's current state. *)
let install_tracers s =
  let sinks =
    List.filter_map Fun.id
      [
        Option.map Trace.sink s.trace;
        s.metrics_sink;
        Option.map (fun h -> Heat.sink h ~clock:(machine_clock s)) s.heat;
        Some (Flight.sink s.flight);
      ]
  in
  let sink =
    match sinks with
    | [ f ] -> Some f
    | fs -> Some (fun ev -> List.iter (fun f -> f ev) fs)
  in
  Core.Runtime.set_tracer s.runtime sink;
  Machine.set_tracer s.machine sink

(* Same for the machine's single per-instruction observer slot: the flat
   profiler and the stack profiler can be armed together. *)
let install_samplers s =
  let fns =
    List.filter_map Fun.id
      [
        Option.map (fun p -> Profile.sample p) s.profile;
        Option.map (fun sp -> Stackprof.sample sp) s.stackprof;
      ]
  in
  let hook =
    match fns with
    | [] -> None
    | [ f ] -> Some f
    | fs -> Some (fun pc -> List.iter (fun f -> f pc) fs)
  in
  Machine.set_sampler s.machine hook

(* Wire the structured-event recorder: one ring, clocked by the machine's
   cycle counter, receiving both the runtime's patching events and the
   machine's icache flushes.  Idempotent; the second call replaces the
   ring (useful to re-arm with a different capacity). *)
let enable_tracing ?capacity s =
  let ring = Trace.ring ?capacity ~clock:(machine_clock s) () in
  s.trace <- Some ring;
  install_tracers s

(* Arm the metrics registry: a second consumer of the same event stream
   (Metrics.trace_sink), clocked like the ring so the latency histograms
   are in simulated cycles.  Composes with enable_tracing in either
   order. *)
let enable_metrics s =
  let m = Metrics.create () in
  s.metrics <- Some m;
  s.metrics_sink <- Some (Metrics.trace_sink m ~clock:(machine_clock s) ());
  install_tracers s

(* Arm code-heat telemetry: the machine gains block-entry hit counters
   (host-side, zero simulated cycles), the runtime's body census becomes
   the region registry, and the residency sink joins the event chain so
   variant lifecycles are tracked from the same trace stream everything
   else consumes.  Composes with the other enable_* in any order. *)
let enable_heat ?decay s =
  let h = Heat.create ?decay () in
  List.iter (Heat.register h) (Core.Runtime.heat_regions s.runtime);
  s.heat <- Some h;
  Machine.enable_heat s.machine;
  install_tracers s

(* Fold the machine's cumulative block counters into the accumulator
   (delta-safe: calling it repeatedly never double-counts).  Under lazy
   materialization the body census changes as variants come and go, so
   re-register the runtime's current regions first — Heat.register
   replaces extents by name, keeping registration order for survivors. *)
let heat_sync s =
  match s.heat with
  | None -> ()
  | Some h ->
      if Core.Runtime.lazy_enabled s.runtime then
        List.iter (Heat.register h) (Core.Runtime.heat_regions s.runtime);
      Heat.observe ~source:(Machine.hart_id s.machine) h
        (Machine.heat_blocks s.machine)

(** The heat accumulator armed by {!enable_heat}, if any (synced first). *)
let heat s =
  heat_sync s;
  s.heat

(** Close a decay epoch: sync the machine counters, then apply the decay
    step to every region's hotness score. *)
let heat_epoch s =
  heat_sync s;
  Option.iter Heat.epoch s.heat

(** Per-region heat accounting ([[]] until {!enable_heat}), synced. *)
let heat_report s =
  heat_sync s;
  match s.heat with None -> [] | Some h -> Heat.region_stats h

(** The [mv-heat/1] document for this session, synced; [budget] adds the
    eviction advisor's plan.  [Json.Null] until {!enable_heat}. *)
let heat_json ?budget s =
  heat_sync s;
  match s.heat with
  | None -> Json.Null
  | Some h ->
      Heat.to_json ?budget
        ~exclude:(Core.Runtime.pending_variants s.runtime)
        ~now:(machine_clock s ()) h

(** Wire the byte-budget eviction advisor into the runtime: when the lazy
    materializer needs room, it asks the heat accumulator's
    {!Heat.evict_plan} (freshly synced) which resident variants to shed
    first — coldest heat-per-byte first — excluding any a
    journaled-but-undrained bind still needs.  [budget] is the advisor's
    keep-budget: variants whose cumulative (densest-first) size fits are
    never advised away; the default 0 makes every resident variant
    eligible, ranked.  Requires {!enable_heat}; composes with
    {!lazy_session}. *)
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

(* Symbol names of all generated variants, for profiler classification. *)
let variant_names s =
  let img = s.program.Core.Compiler.p_image in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (f : Core.Descriptor.function_record) ->
      List.iter
        (fun (v : Core.Descriptor.variant_record) ->
          match Image.symbol_at img v.Core.Descriptor.va_addr with
          | Some name -> Hashtbl.replace tbl name ()
          | None -> ())
        f.Core.Descriptor.fd_variants)
    (Core.Descriptor.parse_functions img);
  tbl

(* Variant classifier for the profilers.  The descriptor-derived table is
   complete for eager builds but empty under lazy ones (variants do not
   exist at link time), so fall back to asking the runtime about bodies
   it has materialized since. *)
let is_variant_sym s tbl name =
  Hashtbl.mem tbl name
  || (Core.Runtime.lazy_enabled s.runtime
     && List.exists
          (fun (sym, _, _) -> sym = name)
          (Core.Runtime.materialized_variants s.runtime))

(* Attach the sampling profiler to the machine's step loop.  Resolution
   goes through the image symbol map, so generic bodies and installed
   variants (whose symbols carry the assignment suffix) are attributed
   separately. *)
let enable_profiling ?interval s =
  let img = s.program.Core.Compiler.p_image in
  let variants = variant_names s in
  let prof =
    Profile.create ?interval
      ~is_variant:(fun name -> is_variant_sym s variants name)
      ~resolve:(fun pc -> Image.symbol_at img pc)
      ~now:(machine_clock s) ()
  in
  s.profile <- Some prof;
  install_samplers s

(* Attach the stack-aware sampler: the same interval sampling, but each
   sample symbolizes the whole call stack (Machine.call_frames plus the
   pc as the leaf) and aggregates by collapsed stack — folded-stack
   output for flamegraph.pl/speedscope.  Composes with enable_profiling:
   both can observe the same run. *)
let enable_stack_profiling ?interval s =
  let img = s.program.Core.Compiler.p_image in
  let variants = variant_names s in
  let sp =
    Stackprof.create ?interval
      ~is_variant:(fun name -> is_variant_sym s variants name)
      ~resolve:(fun pc -> Image.symbol_at img pc)
      ~frames:(fun () -> Machine.call_frames s.machine)
      ~now:(machine_clock s) ()
  in
  s.stackprof <- Some sp;
  install_samplers s

let trace_events s = match s.trace with None -> [] | Some ring -> Trace.events ring

let trace_dump s = Mv_obs.Export.chrome_trace_string (trace_events s)

(** The session's always-on flight recorder. *)
let flight s = s.flight

(** The flight recorder's surviving window, decoded (oldest first). *)
let flight_events s = Flight.events s.flight

(** Dump the session's flight recorder with full postmortem context
    (runtime stats, hart pc/stack) — what the trap hook writes, callable
    on demand. *)
let flight_dump ?(reason = "manual") s =
  Flight.dump_string s.flight ~reason
    ~extra:(trap_extra ~msg:"" ~runtime:s.runtime ~machines:[ s.machine ])
    ()

let profile_report s = match s.profile with None -> [] | Some p -> Profile.report p

let stack_report s = match s.stackprof with None -> [] | Some sp -> Stackprof.report sp

(** The folded-stack dump ([""] until {!enable_stack_profiling}). *)
let folded_dump s = match s.stackprof with None -> "" | Some sp -> Stackprof.folded sp

let metrics s = s.metrics

(* The unified metrics snapshot: runtime patching counters, machine perf
   counters (with derived metrics), static program statistics, and — when
   enabled — the profiler's hot-function table and the trace recorder's
   accounting. *)
let metrics_json s : Json.t =
  let extra =
    (match s.profile with
    | Some p -> [ ("profile", Mv_obs.Export.profile_json (Profile.report p)) ]
    | None -> [])
    @ (match s.stackprof with
      | Some sp -> [ ("stacks", Mv_obs.Export.stack_profile_json (Stackprof.report sp)) ]
      | None -> [])
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
    @
    match s.trace with
    | Some ring ->
        [
          ( "trace",
            Json.Obj
              [
                ("recorded", Json.Int (Trace.recorded ring));
                ("dropped", Json.Int (Trace.dropped ring));
              ] );
        ]
    | None -> []
  in
  Mv_obs.Export.metrics ~extra
    ~runtime:(Core.Runtime.stats_json (Core.Runtime.stats s.runtime))
    ~perf:(Perf.snapshot_json (Perf.snapshot s.machine.Machine.perf))
    ~program:(Core.Stats.program_stats_json (Core.Stats.of_program s.program))
    ()

let call s fn args = Machine.call s.machine fn args

(** Cycles consumed by one invocation [fn args]. *)
let cycles_of_call s fn args =
  let before = s.machine.Machine.perf.Perf.cycles in
  let (_ : int) = Machine.call s.machine fn args in
  s.machine.Machine.perf.Perf.cycles -. before

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
    function under test in a tight loop.  Returns mean cycles per call.

    [jitter] (a seed) makes a small fraction of samples absorb a simulated
    interrupt, as in the paper's measurements on real hardware. *)
let measure ?(samples = 200) ?(calls = 100) ?(warmup = 3) ?jitter (s : session)
    ~(loop_fn : string) : measurement =
  for _ = 1 to warmup do
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

let pp_measurement fmt m =
  Format.fprintf fmt
    "%.2f ± %.2f cycles (min=%.2f p50=%.2f p95=%.2f max=%.2f, n=%d, excluded=%d)"
    m.m_mean m.m_stddev m.m_min m.m_p50 m.m_p95 m.m_max m.m_samples m.m_excluded

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
(* SMP sessions                                                        *)
(* ------------------------------------------------------------------ *)

module Smp = Mv_vm.Smp

(** A built program on an N-hart container, with the runtime wired for
    cross-modifying code: flushes reach every hart, live-activation scans
    aggregate every hart's stack, every patching operation runs inside a
    [stop_machine] rendezvous, and text mutations go through the
    breakpoint-first [text_poke]. *)
type smp_session = {
  sm_program : Core.Compiler.program;
  smp : Smp.t;
  sm_runtime : Core.Runtime.t;
  sm_flight : Flight.t;  (** always-on flight recorder, armed at creation *)
  mutable sm_trace : Trace.ring option;
  mutable sm_metrics : Metrics.t option;  (** set by {!enable_smp_metrics} *)
  mutable sm_metrics_sink : Trace.sink option;
  mutable sm_stackprofs : Stackprof.t array;  (** one per hart once enabled *)
  mutable sm_heat : Heat.t option;  (** set by {!enable_smp_heat} *)
}

(* The container-wide sink chain: ring and metrics bridge (when armed)
   tee in front of the always-on flight recorder, installed on both
   emitters (runtime + container). *)
let install_smp_tracers s =
  let sinks =
    List.filter_map Fun.id
      [
        Option.map Trace.sink s.sm_trace;
        s.sm_metrics_sink;
        Option.map
          (fun h -> Heat.sink h ~clock:(fun () -> Smp.clock s.smp))
          s.sm_heat;
        Some (Flight.sink s.sm_flight);
      ]
  in
  let sink =
    match sinks with
    | [ f ] -> Some f
    | fs -> Some (fun ev -> List.iter (fun f -> f ev) fs)
  in
  Core.Runtime.set_tracer s.sm_runtime sink;
  Smp.set_tracer s.smp sink

let smp_session ?(n_harts = 2) ?policy ?seed ?platform ?cost
    ?(flight_capacity = 512) ?(lazy_variants = false) ?vtext_size ?budget
    (sources : (string * string) list) : smp_session =
  let program = Core.Compiler.build ~lazy_variants ?vtext_size sources in
  let image = program.Core.Compiler.p_image in
  let smp = Smp.create ?policy ?seed ?cost ?platform ~n_harts image in
  let runtime =
    Core.Runtime.create image ~flush:(fun ~addr ~len ->
        Smp.flush_icache smp ~addr ~len)
  in
  if lazy_variants then
    Core.Runtime.enable_lazy ?budget runtime
      ~recipes:(Core.Compiler.recipes program)
      ~call_pad:(Core.Compiler.call_pad program);
  Core.Runtime.set_live_scanner runtime (fun () -> Smp.live_code_addrs smp);
  Core.Runtime.set_patch_barrier runtime (Some (fun f -> Smp.stop_machine smp f));
  Core.Runtime.set_text_writer runtime
    (Some (fun ~addr b -> Smp.text_poke smp ~addr b));
  Smp.set_safepoint smp (Some (fun () -> Core.Runtime.safepoint runtime));
  (* causal attribution: commit-chain events carry the hart the runtime
     is currently driven from *)
  Core.Runtime.set_hart_source runtime (Some (fun () -> Smp.current_hart smp));
  let flight =
    Flight.create ~capacity:flight_capacity
      ~clock:(fun () -> Smp.clock smp)
      ~hart:(fun () -> Smp.current_hart smp)
      ()
  in
  let machines = List.init n_harts (fun i -> Smp.machine smp i) in
  List.iter
    (fun m ->
      Machine.set_trap_hook m
        (Some
           (fun msg ->
             let n = Atomic.fetch_and_add trap_counter 1 in
             ignore
               (Flight.write_artifact flight ~reason:"vm-trap"
                  ~name:(Printf.sprintf "trap-%d" n)
                  ~extra:(trap_extra ~msg ~runtime ~machines)
                  ()))))
    machines;
  let s =
    { sm_program = program; smp; sm_runtime = runtime; sm_flight = flight;
      sm_trace = None; sm_metrics = None; sm_metrics_sink = None;
      sm_stackprofs = [||]; sm_heat = None }
  in
  install_smp_tracers s;
  s

let smp_session1 ?n_harts ?policy ?seed ?platform ?cost source =
  smp_session ?n_harts ?policy ?seed ?platform ?cost [ ("main", source) ]

(** An N-hart container in lazy-materialization mode: first commit of an
    unseen valuation specializes inside the [stop_machine] rendezvous and
    writes the body through [text_poke]. *)
let lazy_smp_session ?n_harts ?policy ?seed ?platform ?cost ?flight_capacity
    ?vtext_size ?budget sources =
  smp_session ?n_harts ?policy ?seed ?platform ?cost ?flight_capacity
    ~lazy_variants:true ?vtext_size ?budget sources

let lazy_smp_session1 ?n_harts ?policy ?seed ?platform ?cost ?vtext_size
    ?budget source =
  lazy_smp_session ?n_harts ?policy ?seed ?platform ?cost ?vtext_size ?budget
    [ ("main", source) ]

let smp_set s name v = Smp.write_global s.smp name v ~width:8
let smp_get s name = Smp.read_global s.smp name ~width:8
let smp_commit s = Core.Runtime.commit s.sm_runtime
let smp_revert s = Core.Runtime.revert s.sm_runtime
let smp_commit_safe ?policy s = Core.Runtime.commit_safe ?policy s.sm_runtime
let smp_revert_safe ?policy s = Core.Runtime.revert_safe ?policy s.sm_runtime

(** Arm on-stack replacement on the container: the runtime resolves the
    accessors of whichever hart is currently polling, so each hart's
    safepoint can transfer that hart's own activation. *)
let enable_smp_osr s =
  let ctxs =
    Array.init (Smp.n_harts s.smp) (fun i ->
        osr_hart_of_machine (Smp.machine s.smp i))
  in
  Core.Runtime.set_osr s.sm_runtime
    (Some (fun () -> ctxs.(Smp.current_hart s.smp)))
let smp_start s ~hart fn args = Smp.start_call s.smp ~hart fn args
let smp_step s = Smp.step s.smp
let smp_run s = Smp.run s.smp
let smp_result s ~hart = Smp.result s.smp ~hart

(** Arm the structured-event recorder on the container: one ring, clocked
    by the SMP clock (total cycles across harts), receiving the runtime's
    patching events, every hart's icache flushes, and the IPI/rendezvous
    lifecycle. *)
let enable_smp_tracing ?capacity s =
  let ring =
    Trace.ring ?capacity
      ~clock:(fun () -> Smp.clock s.smp)
      ~hart:(fun () -> Smp.current_hart s.smp)
      ()
  in
  s.sm_trace <- Some ring;
  install_smp_tracers s

(** Arm the metrics registry on the container: the same trace bridge as
    {!enable_metrics}, with the hart source wired so patch/drain latency
    histograms carry a [hart] label.  Composes with
    {!enable_smp_tracing} in either order. *)
let enable_smp_metrics s =
  let m = Metrics.create () in
  s.sm_metrics <- Some m;
  s.sm_metrics_sink <-
    Some
      (Metrics.trace_sink m
         ~clock:(fun () -> Smp.clock s.smp)
         ~hart:(fun () -> Smp.current_hart s.smp)
         ());
  install_smp_tracers s

(** The registry armed by {!enable_smp_metrics}, if any. *)
let smp_metrics s = s.sm_metrics

(** Arm code-heat telemetry on the container: every hart's machine gains
    block counters, one shared accumulator holds the per-region heat
    (per-hart deltas are folded by source, so harts sharing text offsets
    never collide), and the residency sink is clocked by the SMP
    clock. *)
let enable_smp_heat ?decay s =
  let h = Heat.create ?decay () in
  List.iter (Heat.register h) (Core.Runtime.heat_regions s.sm_runtime);
  s.sm_heat <- Some h;
  for i = 0 to Smp.n_harts s.smp - 1 do
    Machine.enable_heat (Smp.machine s.smp i)
  done;
  install_smp_tracers s

(* Fold every hart's cumulative block counters into the accumulator,
   keyed by hart id so cumulative deltas stay per-hart. *)
let smp_heat_sync s =
  match s.sm_heat with
  | None -> ()
  | Some h ->
      if Core.Runtime.lazy_enabled s.sm_runtime then
        List.iter (Heat.register h) (Core.Runtime.heat_regions s.sm_runtime);
      for i = 0 to Smp.n_harts s.smp - 1 do
        Heat.observe ~source:i h (Machine.heat_blocks (Smp.machine s.smp i))
      done

(** The SMP analogue of {!enable_evict_advisor}: the advisor syncs every
    hart's counters before ranking, and still excludes variants a pending
    bind needs. *)
let enable_smp_evict_advisor ?(budget = 0) s =
  Core.Runtime.set_evict_advisor s.sm_runtime
    (Some
       (fun () ->
         smp_heat_sync s;
         match s.sm_heat with
         | None -> []
         | Some h ->
             Heat.evict_plan
               ~exclude:(Core.Runtime.pending_variants s.sm_runtime)
               h ~budget
             |> List.filter_map (fun (a : Heat.advice) ->
                    if a.Heat.ad_verdict = Heat.Evict then
                      Some a.Heat.ad_region.Heat.r_name
                    else None)
             |> List.rev))

(** The container's heat accumulator, if any (synced first). *)
let smp_heat s =
  smp_heat_sync s;
  s.sm_heat

(** Per-region heat across all harts ([[]] until {!enable_smp_heat}). *)
let smp_heat_report s =
  smp_heat_sync s;
  match s.sm_heat with None -> [] | Some h -> Heat.region_stats h

let smp_trace_events s =
  match s.sm_trace with None -> [] | Some ring -> Trace.events ring

let smp_trace_dump s = Mv_obs.Export.chrome_trace_string (smp_trace_events s)

(** The container's always-on flight recorder. *)
let smp_flight s = s.sm_flight

(** The container flight recorder's surviving window, decoded. *)
let smp_flight_events s = Flight.events s.sm_flight

(** Dump the container's flight recorder with per-hart postmortem
    context — what the trap hooks write, callable on demand. *)
let smp_flight_dump ?(reason = "manual") s =
  let machines = List.init (Smp.n_harts s.smp) (fun i -> Smp.machine s.smp i) in
  Flight.dump_string s.sm_flight ~reason
    ~extra:(trap_extra ~msg:"" ~runtime:s.sm_runtime ~machines)
    ()

(** Attach a stack profiler to every hart, each rooted at a synthetic
    ["hartN"] frame so the merged folded dump keeps per-hart attribution.
    Each hart's sampler is clocked by its own cycle counter. *)
let enable_smp_stack_profiling ?interval s =
  let img = s.sm_program.Core.Compiler.p_image in
  let variants = Hashtbl.create 32 in
  List.iter
    (fun (f : Core.Descriptor.function_record) ->
      List.iter
        (fun (v : Core.Descriptor.variant_record) ->
          match Image.symbol_at img v.Core.Descriptor.va_addr with
          | Some name -> Hashtbl.replace variants name ()
          | None -> ())
        f.Core.Descriptor.fd_variants)
    (Core.Descriptor.parse_functions img);
  s.sm_stackprofs <-
    Array.init (Smp.n_harts s.smp) (fun i ->
        let m = Smp.machine s.smp i in
        let is_variant name =
          Hashtbl.mem variants name
          || (Core.Runtime.lazy_enabled s.sm_runtime
             && List.exists
                  (fun (sym, _, _) -> sym = name)
                  (Core.Runtime.materialized_variants s.sm_runtime))
        in
        let sp =
          Stackprof.create ?interval
            ~is_variant
            ~root:(Printf.sprintf "hart%d" i)
            ~resolve:(fun pc -> Image.symbol_at img pc)
            ~frames:(fun () -> Machine.call_frames m)
            ~now:(fun () -> m.Machine.perf.Perf.cycles)
            ()
        in
        Machine.set_sampler m (Some (fun pc -> Stackprof.sample sp pc));
        sp)

(** Per-hart stack reports (empty until {!enable_smp_stack_profiling}). *)
let smp_stack_reports s = Array.map Stackprof.report s.sm_stackprofs

(** The merged folded dump: every hart's folded stacks concatenated; each
    line starts with its hart's root frame. *)
let smp_folded_dump s =
  Array.to_list s.sm_stackprofs |> List.map Stackprof.folded |> String.concat ""
