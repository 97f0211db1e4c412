module Ast = Minic.Ast
module Interp = Mv_ir.Interp
module Lower = Mv_ir.Lower
module Machine = Mv_vm.Machine
module Smp = Mv_vm.Smp
module Image = Mv_link.Image
module Runtime = Core.Runtime
module Compiler = Core.Compiler
module Harness = Mv_workloads.Harness

type chaos =
  | No_chaos
  | Skip_flush
  | Lost_flush
  | Drop_ack
  | Corrupt_framemap
  | Stale_cache

type divergence = { d_oracle : string; d_detail : string }

let pp_divergence fmt d =
  Format.fprintf fmt "[%s] %s" d.d_oracle d.d_detail

let oracle_names =
  [
    "interp-vs-vm";
    "opt-vs-unopt";
    "commit-soundness";
    "commit-idempotent";
    "schedule-equiv";
    "osr-state-equiv";
    "smp-schedule-equiv";
    "lazy-eager-equiv";
  ]

(* ------------------------------------------------------------------ *)
(* Engine plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* Generated programs are trap-free, so a fault in either engine is a
   reportable outcome of its own, not noise to be matched up. *)
type outcome = Ret of int | Fault of string

let pp_outcome = function
  | Ret v -> string_of_int v
  | Fault m -> "fault:" ^ m

let interp_step_limit = 10_000_000

let run_interp it entry arg : outcome =
  match Interp.run it entry [ arg ] with
  | v -> Ret v
  | exception Interp.Fault m -> Fault m
  | exception Interp.Step_limit_exceeded -> Fault "step-limit"

let run_machine m entry arg : outcome =
  match Machine.call m entry [ arg ] with
  | v -> Ret v
  | exception Machine.Fault m' -> Fault m'

(* Observable state: every non-pointer global (arrays element-wise).
   Pointer and fnptr globals are excluded — their values depend on the
   engine's address-space layout, not on program semantics. *)
type obs = Scalar of string * int | Arr of string * int * int

let observables (case : Gen.case) : obs list =
  List.filter_map
    (function
      | Ast.Dglobal g
        when (not g.Ast.g_extern)
             && g.Ast.g_ty <> Ast.Tptr
             && g.Ast.g_ty <> Ast.Tfnptr -> (
          let w = Ast.ty_width g.Ast.g_ty in
          match g.Ast.g_array with
          | Some n -> Some (Arr (g.Ast.g_name, n, w))
          | None -> Some (Scalar (g.Ast.g_name, w)))
      | _ -> None)
    case.Gen.c_tu

let read_obs_machine img obs =
  List.concat_map
    (function
      | Scalar (name, w) -> [ (name, Image.read img (Image.symbol img name) w) ]
      | Arr (name, n, w) ->
          let base = Image.symbol img name in
          List.init n (fun i ->
              (Printf.sprintf "%s[%d]" name i, Image.read img (base + (i * w)) w)))
    obs

let read_obs_interp it obs =
  List.concat_map
    (function
      | Scalar (name, w) -> [ (name, Interp.load it (Interp.global_addr it name) w) ]
      | Arr (name, n, w) ->
          let base = Interp.global_addr it name in
          List.init n (fun i ->
              (Printf.sprintf "%s[%d]" name i, Interp.load it (base + (i * w)) w)))
    obs

let diff_states a b =
  List.find_map
    (fun ((name, va), (name', vb)) ->
      assert (name = name');
      if va <> vb then Some (Printf.sprintf "%s: %d vs %d" name va vb) else None)
    (List.combine a b)

(* Switch assignments, written width-aware so sub-word switches do not
   clobber their neighbours. *)
let switch_width (case : Gen.case) name =
  match List.find_opt (fun sw -> sw.Gen.sw_name = name) case.Gen.c_switches with
  | Some sw -> Ast.ty_width sw.Gen.sw_ty
  | None -> 8

let apply_machine case img (a : Gen.assignment) =
  List.iter
    (fun (name, v) ->
      Image.write img (Image.symbol img name) v (switch_width case name))
    a.Gen.a_ints;
  List.iter
    (fun (name, target) ->
      Image.write img (Image.symbol img name) (Image.symbol img target) 8)
    a.Gen.a_ptrs

let apply_interp it (a : Gen.assignment) =
  List.iter (fun (name, v) -> Interp.write_global it name v) a.Gen.a_ints;
  List.iter
    (fun (name, target) ->
      Interp.store it (Interp.global_addr it name) (Interp.symbol_addr it target) 8)
    a.Gen.a_ptrs

(* [Corrupt_framemap]: bump the low bits of the first live entry's
   location word at every safepoint of [fn_addr]'s frame map.  The map
   still parses and the vreg sets still line up, so the transfer goes
   through — but it reads that value from the wrong register or spill
   slot and reconstructs a wrong frame, which the oracle must catch. *)
let corrupt_framemap img fn_addr =
  let module D = Core.Descriptor in
  match Image.section_range img Mv_codegen.Objfile.Mv_framemaps with
  | None -> ()
  | Some { Image.sr_base; sr_size } ->
      let limit = sr_base + sr_size in
      let rec maps off =
        if off + D.framemap_header_size <= limit then begin
          let addr = Image.read img off 8 in
          if addr <> 0 then begin
            let n_sp = Image.read img (off + 8) 4 in
            let n_saves = Image.read img (off + 16) 4 in
            let off' =
              off + D.framemap_header_size + ((n_saves + 1) / 2 * 2 * 4)
            in
            let rec sps n off =
              if n = 0 then off
              else begin
                let n_live = Image.read img (off + 8) 4 in
                let off_e = off + D.framemap_safepoint_header_size in
                if addr = fn_addr && n_live > 0 then begin
                  let loc = Image.read img (off_e + 4) 4 in
                  let loc' = loc land 0x10000 lor ((loc + 1) land 0xFFFF) in
                  Image.write img (off_e + 4) loc' 4
                end;
                sps (n - 1) (off_e + (n_live * D.framemap_live_entry_size))
              end
            in
            maps (sps n_sp off')
          end
        end
      in
      maps sr_base

(* Every oracle session is a Harness session over [src], with the chaos
   mode applied where it bites.  The modes exist so the fuzzer can prove
   it would catch a pipeline that forgets to invalidate the decode
   cache, loses a hart in the rendezvous, misreads a frame map, or links
   a stale variant body:
   - [Skip_flush]/[Lost_flush] replace the text writer of a session
     that writes text directly: the bytes land under a write window, as
     the runtime's own write path stores them, and the icache flush
     that should follow is dropped always or every other time.  [smp]
     sessions poke text through [Smp.text_poke], which never calls the
     runtime's flush, so these modes stay inert there;
   - [Drop_ack] severs the last hart's IPI channel of a multi-hart
     session: commits neither stop nor re-flush it;
   - [Corrupt_framemap] corrupts [__osr_spin]'s frame map before the
     runtime parses it at attach;
   - [Stale_cache] makes a lazy session's eviction skip the dedup-table
     invalidation.
   [smp] = (harts, seed, policy) arms the cross-modifying-code wiring at
   any hart count; [lazy_budget] builds in lazy-materialization mode
   with that resident byte budget. *)
let session ?(chaos = No_chaos) ?lazy_budget ?smp src : Harness.session =
  let lazy_variants = lazy_budget <> None in
  let program = Compiler.build_string ~lazy_variants src in
  let img = program.Compiler.p_image in
  if chaos = Corrupt_framemap then
    Option.iter (corrupt_framemap img) (Image.symbol_opt img "__osr_spin");
  let s =
    match smp with
    | None -> Harness.attach ?budget:lazy_budget program
    | Some (n_harts, seed, policy) ->
        let s = Harness.attach ~n_harts ~seed ~policy program in
        Harness.enable_stop_machine s;
        s
  in
  let harts = Smp.n_harts s.Harness.smp in
  (match chaos with
  | (Skip_flush | Lost_flush) when smp = None ->
      let lost = ref false in
      Runtime.set_text_writer s.Harness.runtime
        (Some
           (fun ~addr b ->
             let len = Bytes.length b in
             let restore_to = Image.prot_at img addr in
             Image.mprotect img ~addr ~len Image.prot_rwx;
             Fun.protect
               ~finally:(fun () -> Image.mprotect img ~addr ~len restore_to)
               (fun () -> Image.write_bytes img addr b);
             lost := not !lost;
             if chaos = Lost_flush && not !lost then
               Smp.flush_icache s.Harness.smp ~addr ~len))
  | Drop_ack when harts > 1 -> Smp.set_drop_ack s.Harness.smp (Some (harts - 1))
  | Stale_cache when Runtime.lazy_enabled s.Harness.runtime ->
      Runtime.set_stale_cache_chaos s.Harness.runtime true
  | _ -> ());
  s

let image (s : Harness.session) = s.Harness.program.Compiler.p_image

let text_snapshot img =
  let t = img.Image.text in
  Image.read_bytes img t.Image.sr_base t.Image.sr_size

let diff_text ~pristine img =
  let now = text_snapshot img in
  if Bytes.equal pristine now then None
  else begin
    let n = Bytes.length pristine in
    let rec first i =
      if i >= n then n
      else if Bytes.get pristine i <> Bytes.get now i then i
      else first (i + 1)
    in
    Some (Printf.sprintf "text differs from pristine at offset +0x%x" (first 0))
  end

let make_interp src =
  let prog, _warnings = Lower.lower_string src in
  Interp.create ~step_limit:interp_step_limit [ prog ]

(* ------------------------------------------------------------------ *)
(* The lockstep loop                                                   *)
(* ------------------------------------------------------------------ *)

(* One side of a paired comparison: the case's driver on one argument,
   and the observable state it leaves behind. *)
type engine = { run : int -> outcome; state : unit -> (string * int) list }

let interp_engine (case : Gen.case) it =
  let obs = observables case in
  { run = run_interp it case.Gen.c_entry; state = (fun () -> read_obs_interp it obs) }

let machine_engine (case : Gen.case) s =
  let obs = observables case in
  {
    run = run_machine s.Harness.machine case.Gen.c_entry;
    state = (fun () -> read_obs_machine (image s) obs);
  }

(* The paired oracles' one loop: each step's [prepare] brings both
   engines into its configuration, then every driver argument runs on
   [a], then on [b].  The first differing outcome, else the first
   differing observable global, is the divergence, prefixed with the
   step's label; state persists across runs in both engines
   identically. *)
let lockstep ~oracle ~names:(na, nb) (case : Gen.case) a b steps =
  List.find_map
    (fun (label, prepare) ->
      prepare ();
      List.find_map
        (fun arg ->
          let ra = a.run arg in
          let rb = b.run arg in
          if ra <> rb then
            Some
              (Printf.sprintf "%sdriver(%d): %s=%s %s=%s" label arg na
                 (pp_outcome ra) nb (pp_outcome rb))
          else
            Option.map
              (fun d ->
                Printf.sprintf "%sdriver(%d): global %s (%s vs %s)" label arg d na nb)
              (diff_states (a.state ()) (b.state ())))
        case.Gen.c_args)
    steps
  |> Option.map (fun d -> { d_oracle = oracle; d_detail = d })

(* One step per switch assignment, labelled with its index and text. *)
let assignment_steps ?(text = false) (case : Gen.case) prepare =
  List.mapi
    (fun i a ->
      ( (if text then Format.asprintf "assignment #%d (%a), " i Gen.pp_assignment a
         else Printf.sprintf "assignment #%d, " i),
        fun () -> prepare a ))
    case.Gen.c_assignments

(* The initializer defaults first, then every assignment. *)
let config_steps (case : Gen.case) apply =
  ("", ignore) :: List.map (fun a -> ("", fun () -> apply a)) case.Gen.c_assignments

(* ------------------------------------------------------------------ *)
(* Oracle: reference interpreter vs full-pipeline machine              *)
(* ------------------------------------------------------------------ *)

let interp_vs_vm (case : Gen.case) (_sched : Schedule.t) : divergence option =
  let it = make_interp case.Gen.c_src in
  let s = session case.Gen.c_src in
  lockstep ~oracle:"interp-vs-vm" ~names:("interp", "vm") case
    (interp_engine case it) (machine_engine case s)
    (config_steps case (fun a ->
         apply_interp it a;
         apply_machine case (image s) a))

(* ------------------------------------------------------------------ *)
(* Oracle: unoptimized IR vs optimized IR                              *)
(* ------------------------------------------------------------------ *)

let opt_vs_unopt (case : Gen.case) (_sched : Schedule.t) : divergence option =
  let plain = make_interp case.Gen.c_src in
  let opt =
    let prog, _warnings = Lower.lower_string case.Gen.c_src in
    Mv_opt.Pass.optimize_prog prog;
    Interp.create ~step_limit:interp_step_limit [ prog ]
  in
  lockstep ~oracle:"opt-vs-unopt" ~names:("-O0", "opt") case
    (interp_engine case plain) (interp_engine case opt)
    (config_steps case (fun a ->
         apply_interp plain a;
         apply_interp opt a))

(* ------------------------------------------------------------------ *)
(* Oracle: generic (dynamic) image vs committed image                  *)
(* ------------------------------------------------------------------ *)

(* Each assignment is committed from the pristine text: the step reverts
   the previous assignment's commit first (a no-op before the first),
   and the last one is reverted before the text is compared. *)
let commit_soundness ?chaos (case : Gen.case) (_sched : Schedule.t) :
    divergence option =
  let dyn = session case.Gen.c_src in
  let com = session ?chaos case.Gen.c_src in
  let pristine = text_snapshot (image com) in
  let steps =
    assignment_steps ~text:true case (fun a ->
        ignore (Harness.revert com);
        apply_machine case (image dyn) a;
        apply_machine case (image com) a;
        ignore (Harness.commit com))
  in
  match
    lockstep ~oracle:"commit-soundness" ~names:("generic", "committed") case
      (machine_engine case dyn) (machine_engine case com) steps
  with
  | Some _ as d -> d
  | None -> (
      ignore (Harness.revert com);
      match diff_text ~pristine (image com) with
      | Some d ->
          Some { d_oracle = "commit-soundness"; d_detail = "after final revert: " ^ d }
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Oracle: committing twice is a no-op                                 *)
(* ------------------------------------------------------------------ *)

let commit_idempotent ?chaos (case : Gen.case) (_sched : Schedule.t) :
    divergence option =
  let s = session ?chaos case.Gen.c_src in
  let img = image s in
  let pristine = text_snapshot img in
  let fail fmt =
    Printf.ksprintf (fun d -> Some { d_oracle = "commit-idempotent"; d_detail = d }) fmt
  in
  match case.Gen.c_assignments with
  | [] -> None
  | a :: _ -> (
      apply_machine case img a;
      ignore (Harness.commit s);
      let snap1 = text_snapshot img in
      ignore (Harness.commit s);
      let snap2 = text_snapshot img in
      if not (Bytes.equal snap1 snap2) then
        fail "second commit changed the text segment"
      else begin
        ignore (Harness.revert s);
        match diff_text ~pristine img with
        | Some d -> fail "after revert: %s" d
        | None -> None
      end)

(* ------------------------------------------------------------------ *)
(* Oracle: scheduled commit/revert/safe-commit vs value-writes only    *)
(* ------------------------------------------------------------------ *)

(* The baseline machine receives only the schedule's value writes and
   stays generic for the whole schedule; the subject executes every
   operation, including safe ops injected at mid-run safepoint polls.
   Well-formed schedules (see schedule.mli) keep the two observationally
   equivalent. *)
let run_rounds ~subject case s (sched : Schedule.t) : outcome list =
  let img = image s and rt = s.Harness.runtime in
  if subject then Harness.enable_safe_commit s;
  let returns =
    List.map
      (fun (round : Schedule.round) ->
        List.iter
          (fun (op : Schedule.top_op) ->
            match op with
            | Schedule.Tset a -> apply_machine case img a
            | _ when not subject -> ()
            | Schedule.Tcommit -> ignore (Runtime.commit rt)
            | Schedule.Trevert -> ignore (Runtime.revert rt)
            | Schedule.Tcommit_safe -> ignore (Runtime.commit_safe rt)
            | Schedule.Trevert_safe -> ignore (Runtime.revert_safe rt)
            | Schedule.Tdrain -> Runtime.safepoint rt)
          round.Schedule.r_top;
        if subject then begin
          let polls = ref 0 in
          let todo = ref round.Schedule.r_mid in
          Smp.set_safepoint s.Harness.smp
            (Some
               (fun () ->
                 let i = !polls in
                 incr polls;
                 let now, later = List.partition (fun (ix, _) -> ix = i) !todo in
                 todo := later;
                 List.iter
                   (fun ((_, op) : int * Schedule.mid_op) ->
                     let policy d = if d then Runtime.Defer else Runtime.Deny in
                     match op with
                     | Schedule.Mcommit_safe d ->
                         ignore (Runtime.commit_safe ~policy:(policy d) rt)
                     | Schedule.Mrevert_safe d ->
                         ignore (Runtime.revert_safe ~policy:(policy d) rt)
                     | Schedule.Mdrain -> ())
                   now;
                 Runtime.safepoint rt))
        end;
        run_machine s.Harness.machine case.Gen.c_entry round.Schedule.r_arg)
      sched
  in
  if subject then begin
    Smp.set_safepoint s.Harness.smp None;
    ignore (Runtime.revert rt);
    Runtime.safepoint rt
  end;
  returns

let schedule_equiv ?chaos (case : Gen.case) (sched : Schedule.t) :
    divergence option =
  if sched = [] then None
  else begin
    let base = session case.Gen.c_src in
    let subj = session ?chaos case.Gen.c_src in
    let pristine = text_snapshot (image subj) in
    let obs = observables case in
    let fail fmt =
      Printf.ksprintf (fun d -> Some { d_oracle = "schedule-equiv"; d_detail = d }) fmt
    in
    let base_returns = run_rounds ~subject:false case base sched in
    let subj_returns = run_rounds ~subject:true case subj sched in
    let per_round =
      List.find_map
        (fun (i, (rb, rs)) ->
          if rb <> rs then
            fail "round %d (arg %d): generic=%s scheduled=%s" i
              (List.nth sched i).Schedule.r_arg (pp_outcome rb) (pp_outcome rs)
          else None)
        (List.mapi (fun i p -> (i, p)) (List.combine base_returns subj_returns))
    in
    match per_round with
    | Some _ -> per_round
    | None -> (
        match
          diff_states (read_obs_machine (image base) obs) (read_obs_machine (image subj) obs)
        with
        | Some d -> fail "final global %s (generic vs scheduled)" d
        | None -> (
            match diff_text ~pristine (image subj) with
            | Some d -> fail "after final revert+drain: %s" d
            | None -> None))
  end

(* ------------------------------------------------------------------ *)
(* Oracle: multi-hart schedule equivalence + icache coherence probe    *)
(* ------------------------------------------------------------------ *)

(* Auxiliary SMP workload appended to every generated case.  The [__smp_]
   prefix cannot collide with generated identifiers, and the workload
   touches only its own globals: the case's driver (pinned to hart 0) and
   the worker (pinned to the last hart) share text, the patch runtime and
   the rendezvous machinery, but no data — so driver outcomes and case
   observables must be identical under every scheduler configuration.
   Generated code never writes its switches (see gen.mli), so the mid-run
   [commit_safe] below re-stages exactly the initial case bindings; the
   only text that actually changes is [__smp_tick]'s binding. *)
let smp_aux_src =
  {|
    multiverse int __smp_mode;
    int __smp_acc;
    multiverse void __smp_tick() {
      if (__smp_mode) {
        __smp_acc = __smp_acc + 2;
      } else {
        __smp_acc = __smp_acc + 1;
      }
    }
    void __smp_worker(int n) {
      for (int i = 0; i < n; i = i + 1) {
        __smp_tick();
      }
    }
  |}

let smp_worker_iters = 48
let smp_probe_iters = 8

(* Global scheduler steps before the mode flip is injected mid-run. *)
let smp_flip_step = 40
let smp_step_budget = 5_000_000

(* Configurations whose observable behavior is compared: two seeded
   2-hart interleavings and the 1-hart degenerate container. *)
let smp_configs =
  [
    (2, 11, Smp.Weighted_random [| 2; 1 |]);
    (2, 47, Smp.Round_robin);
    (1, 1, Smp.Round_robin);
  ]

type smp_summary = {
  ss_outcomes : outcome list;
  ss_finals : (string * int) list;
}

let smp_schedule_equiv ?chaos (case : Gen.case) (_sched : Schedule.t) :
    divergence option =
  let fail fmt =
    Printf.ksprintf
      (fun d -> Some { d_oracle = "smp-schedule-equiv"; d_detail = d })
      fmt
  in
  let src = case.Gen.c_src ^ smp_aux_src in
  let obs = observables case in
  let run_config (n_harts, seed, policy) : (smp_summary, string) result =
    let cfail fmt =
      Printf.ksprintf
        (fun d -> Error (Printf.sprintf "[%d harts, seed %d] %s" n_harts seed d))
        fmt
    in
    let s = session ?chaos ~smp:(n_harts, seed, policy) src in
    let img = image s and smp = s.Harness.smp and rt = s.Harness.runtime in
    let mode_addr = Image.symbol img "__smp_mode" in
    let acc_addr = Image.symbol img "__smp_acc" in
    (match case.Gen.c_assignments with
    | [] -> ()
    | a :: _ -> apply_machine case img a);
    ignore (Runtime.commit rt);
    (* phase A: the driver runs its args on hart 0 while the worker grinds
       [__smp_tick] on the last hart; after [smp_flip_step] global steps a
       safe commit flips the tick binding under the live workload *)
    let worker_hart = n_harts - 1 in
    if worker_hart > 0 then
      Smp.start_call smp ~hart:worker_hart "__smp_worker" [ smp_worker_iters ];
    let steps = ref 0 in
    let flipped = ref false in
    let flip () =
      flipped := true;
      Image.write img mode_addr 1 8;
      ignore (Runtime.commit_safe rt)
    in
    let drive stop : string option =
      try
        while not (stop ()) do
          if (not !flipped) && !steps >= smp_flip_step then flip ();
          if !steps > smp_step_budget then
            raise (Machine.Fault "smp step budget exceeded");
          ignore (Smp.step smp);
          incr steps
        done;
        None
      with Machine.Fault m -> Some m
    in
    let outcomes =
      List.map
        (fun arg ->
          Smp.start_call smp ~hart:0 case.Gen.c_entry [ arg ];
          match drive (fun () -> not (Smp.running smp 0)) with
          | Some m -> Fault m
          | None -> Ret (Smp.result smp ~hart:0))
        case.Gen.c_args
    in
    let any_running () =
      let r = ref false in
      for h = 0 to n_harts - 1 do
        if Smp.running smp h then r := true
      done;
      !r
    in
    match drive (fun () -> not (any_running ())) with
    | Some m -> cfail "worker drain faulted: %s" m
    | None -> (
        if not !flipped then flip ();
        if Runtime.pending rt <> [] then
          cfail "safe-commit journal not drained at quiescence"
        else begin
          let acc = Image.read img acc_addr 8 in
          if
            worker_hart > 0
            && (acc < smp_worker_iters || acc > 2 * smp_worker_iters)
          then
            cfail "worker accumulator %d outside [%d, %d]" acc smp_worker_iters
              (2 * smp_worker_iters)
          else begin
            (* phase B, the coherence probe: with the flip committed and
               every hart quiescent, [smp_probe_iters] ticks on any hart
               must add exactly 2 per call — a hart still decoding the
               stale binding (a dropped flush or severed IPI channel)
               adds 1 and is caught here *)
            let probe hart =
              let before = Image.read img acc_addr 8 in
              Smp.start_call smp ~hart "__smp_worker" [ smp_probe_iters ];
              while Smp.running smp hart do
                ignore (Smp.step_hart smp hart)
              done;
              Image.read img acc_addr 8 - before
            in
            let rec check hart =
              if hart < 0 then
                Ok { ss_outcomes = outcomes; ss_finals = read_obs_machine img obs }
              else
                let delta = probe hart in
                if delta <> 2 * smp_probe_iters then
                  cfail
                    "hart %d ran a stale __smp_tick after commit: probe delta \
                     %d, expected %d"
                    hart delta (2 * smp_probe_iters)
                else check (hart - 1)
            in
            check (n_harts - 1)
          end
        end)
  in
  let results = List.map run_config smp_configs in
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> fail "%s" e
  | None -> (
      let oks =
        List.filter_map (function Ok s -> Some s | Error _ -> None) results
      in
      match (smp_configs, oks) with
      | (rn, rs, _) :: rest_cfg, reference :: rest ->
          List.fold_left
            (fun acc ((n_harts, seed, _), s) ->
              match acc with
              | Some _ -> acc
              | None -> (
                  let mism =
                    List.find_map
                      (fun (i, (a, b)) ->
                        if a <> b then
                          Some
                            (Printf.sprintf
                               "driver(%d): %s under [%d harts, seed %d] vs %s \
                                under [%d harts, seed %d]"
                               (List.nth case.Gen.c_args i) (pp_outcome a) rn
                               rs (pp_outcome b) n_harts seed)
                        else None)
                      (List.mapi
                         (fun i p -> (i, p))
                         (List.combine reference.ss_outcomes s.ss_outcomes))
                  in
                  match mism with
                  | Some d -> fail "%s" d
                  | None -> (
                      match diff_states reference.ss_finals s.ss_finals with
                      | Some d ->
                          fail
                            "final global %s ([%d harts, seed %d] vs [%d \
                             harts, seed %d])"
                            d rn rs n_harts seed
                      | None -> None)))
            None
            (List.combine rest_cfg rest)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Oracle: OSR-transferred state vs run-from-scratch                   *)
(* ------------------------------------------------------------------ *)

(* Auxiliary OSR workload appended to the case: [__osr_spin] is a
   multiversed outer loop that never quiesces while it runs — every
   iteration polls a safepoint (the [__osr_tick] return) and calls the
   case's driver.  The subject parks an activation k machine steps into
   the loop and issues a safe commit, which must defer (the loop is
   live); the only way the journal drains mid-run is an on-stack
   transfer of the parked frame into the bound variant.  The baseline
   commits the identical switch state while idle and runs from scratch.
   [__osr_mode] stays 1 in memory on both sides, so the generic body and
   the bound variant are semantically identical: any divergence in the
   return value, the case's observable globals, or the tick counter is a
   broken frame transfer, not program semantics. *)
let osr_aux_src =
  {|
    multiverse int __osr_mode;
    int __osr_sink;
    void __osr_tick() { __osr_sink = __osr_sink + 1; }
    multiverse int __osr_spin(int n, int a) {
      int acc = 0;
      for (int i = 0; i < n; i = i + 1) {
        __osr_tick();
        if (__osr_mode) { acc = acc + 2; } else { acc = acc + 1; }
        acc = acc + driver(a);
      }
      return acc;
    }
  |}

let osr_spin_iters = 6

(* Two park offsets: just past the prologue and deep inside an
   iteration, so the commit lands at different distances from the next
   safepoint. *)
let osr_park_steps = [ 3; 31 ]

let osr_state_equiv ?chaos (case : Gen.case) (_sched : Schedule.t) :
    divergence option =
  let fail fmt =
    Printf.ksprintf (fun d -> Some { d_oracle = "osr-state-equiv"; d_detail = d }) fmt
  in
  let src = case.Gen.c_src ^ osr_aux_src in
  let obs = observables case in
  let arg = match case.Gen.c_args with a :: _ -> a | [] -> 0 in
  let prep s =
    let img = image s in
    (match case.Gen.c_assignments with
    | [] -> ()
    | a :: _ -> apply_machine case img a);
    Image.write img (Image.symbol img "__osr_mode") 1 8
  in
  let final s =
    let img = image s in
    (read_obs_machine img obs, Image.read img (Image.symbol img "__osr_sink") 8)
  in
  (* the baseline is always healthy: chaos is injected into the subject *)
  let run_baseline () =
    let s = session src in
    prep s;
    ignore (Harness.commit s);
    let out =
      match Machine.call s.Harness.machine "__osr_spin" [ osr_spin_iters; arg ] with
      | v -> Ret v
      | exception Machine.Fault m -> Fault m
    in
    (out, final s)
  in
  let run_subject k =
    let s = session ?chaos src in
    Harness.enable_safe_commit s;
    Harness.enable_osr s;
    prep s;
    let machine = s.Harness.machine in
    Machine.start_call machine "__osr_spin" [ osr_spin_iters; arg ];
    let out =
      try
        for _ = 1 to k do
          ignore (Machine.step machine)
        done;
        ignore (Harness.commit_safe s);
        Ret (Machine.finish machine)
      with Machine.Fault m -> Fault m
    in
    (out, final s, (Runtime.stats s.Harness.runtime).Runtime.st_osr_transfers)
  in
  let b_out, (b_obs, b_sink) = run_baseline () in
  List.find_map
    (fun k ->
      let s_out, (s_obs, s_sink), transfers = run_subject k in
      if s_out <> b_out then
        fail "park %d: transferred=%s from-scratch=%s (%d transfers)" k
          (pp_outcome s_out) (pp_outcome b_out) transfers
      else if s_sink <> b_sink then
        fail "park %d: __osr_sink %d vs %d (%d transfers)" k s_sink b_sink
          transfers
      else
        match diff_states s_obs b_obs with
        | Some d -> fail "park %d: global %s (OSR vs from-scratch)" k d
        | None -> None)
    osr_park_steps


(* ------------------------------------------------------------------ *)
(* Oracle: eager pre-expansion vs demand-driven materialization        *)
(* ------------------------------------------------------------------ *)

(* Auxiliary workload appended to the case: a multiversed tick whose two
   bodies are the same size but semantically distinct.  Under the
   one-block budget below, flipping [__lz_mode] back and forth forces
   the variant cache to evict the resident body and recycle its block
   for the other valuation on every commit — exactly the traffic a
   stale dedup entry ([Stale_cache]) turns into a wrong-code link. *)
let lazy_aux_src =
  {|
    multiverse int __lz_mode;
    int __lz_acc;
    multiverse void __lz_tick() {
      if (__lz_mode) {
        __lz_acc = __lz_acc + 2;
      } else {
        __lz_acc = __lz_acc + 1;
      }
    }
    void __lz_probe(int n) {
      for (int i = 0; i < n; i = i + 1) {
        __lz_tick();
      }
    }
  |}

(* One 32-byte allocation — just enough for a single [__lz_tick] body
   (23 bytes) — so every distinct valuation evicts its predecessor and
   first-fit hands the freed block straight to the next materialization.
   Case variants that do not fit are denied and fall back to the generic
   body, which is observationally equivalent. *)
let lazy_budget = 32
let lazy_probe_iters = 6

let lazy_eager_equiv ?chaos (case : Gen.case) (_sched : Schedule.t) :
    divergence option =
  let fail fmt =
    Printf.ksprintf
      (fun d -> Some { d_oracle = "lazy-eager-equiv"; d_detail = d })
      fmt
  in
  let src = case.Gen.c_src ^ lazy_aux_src in
  let eager = session src in
  let lazy_ = session ?chaos ~lazy_budget src in
  (* phase A: the case's own switch assignments and drivers — every
     committed valuation must behave identically whether its variant was
     pre-expanded, materialized on demand, or denied for budget *)
  let main =
    lockstep ~oracle:"lazy-eager-equiv" ~names:("eager", "lazy") case
      (machine_engine case eager) (machine_engine case lazy_)
      (assignment_steps case (fun a ->
           apply_machine case (image eager) a;
           apply_machine case (image lazy_) a;
           ignore (Harness.commit eager);
           ignore (Harness.commit lazy_)))
  in
  match main with
  | Some _ -> main
  | None ->
      (* phase B, the churn probe: flip the aux mode so each commit
         evicts the resident tick body and recycles its block; a stale
         dedup entry links the recycled bytes on the second mode=1
         commit and the probe delta (2 per tick vs 1) exposes it *)
      let probe s : (int, string) result =
        let img = image s in
        let acc_addr = Image.symbol img "__lz_acc" in
        let before = Image.read img acc_addr 8 in
        match run_machine s.Harness.machine "__lz_probe" lazy_probe_iters with
        | Fault m -> Error m
        | Ret _ -> Ok (Image.read img acc_addr 8 - before)
      in
      List.find_map
        (fun mode ->
          List.iter
            (fun s ->
              let img = image s in
              Image.write img (Image.symbol img "__lz_mode") mode 8)
            [ eager; lazy_ ];
          ignore (Harness.commit eager);
          ignore (Harness.commit lazy_);
          match (probe eager, probe lazy_) with
          | Ok de, Ok dl when de <> dl ->
              fail
                "mode %d: probe delta eager=%d lazy=%d (stale variant body \
                 linked)"
                mode de dl
          | Ok _, Ok _ -> None
          | Error m, _ -> fail "mode %d: eager probe faulted: %s" mode m
          | _, Error m -> fail "mode %d: lazy probe faulted: %s" mode m)
        [ 1; 0; 1; 0; 1 ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_named ?chaos name case sched =
  match name with
  | "interp-vs-vm" -> interp_vs_vm case sched
  | "opt-vs-unopt" -> opt_vs_unopt case sched
  | "commit-soundness" -> commit_soundness ?chaos case sched
  | "commit-idempotent" -> commit_idempotent ?chaos case sched
  | "schedule-equiv" -> schedule_equiv ?chaos case sched
  | "osr-state-equiv" -> osr_state_equiv ?chaos case sched
  | "smp-schedule-equiv" -> smp_schedule_equiv ?chaos case sched
  | "lazy-eager-equiv" -> lazy_eager_equiv ?chaos case sched
  | _ -> invalid_arg ("Oracle.run_named: unknown oracle " ^ name)

let run_all ?chaos ?(only = []) case sched =
  let names =
    if only = [] then oracle_names
    else List.filter (fun n -> List.mem n only) oracle_names
  in
  List.fold_left
    (fun acc name ->
      match acc with Some _ -> acc | None -> run_named ?chaos name case sched)
    None names
