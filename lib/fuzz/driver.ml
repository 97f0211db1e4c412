type report = {
  rp_seed : int;
  rp_original : Oracle.divergence;
  rp_shrunk : Shrink.result;
  rp_entry : Corpus.entry;
  rp_path : string option;
  rp_flight : string option;
}

type summary = { s_tested : int; s_reports : report list }

let schedule_for case seed = Schedule.gen (Rng.split (Rng.create seed) 3) case

(* Postmortem artifact for a diverged seed: a [mv-flight/1] document
   whose extra sections carry the oracle verdict and the shrunk
   reproducer.  Each oracle's Harness sessions record into rings of
   their own, gone by the time the verdict is in, so the recorder window
   itself is empty here — the artifact's value is the machine-readable
   failure context, in the same schema the VM trap and bench-gate dumps
   use.  Gated on MV_SMP_ARTIFACT_DIR like every other failure dump. *)
let write_flight_artifact ~log seed (div : Oracle.divergence)
    (shrunk : Shrink.result) : string option =
  let module Json = Mv_obs.Json in
  let ring = Mv_obs.Trace.ring ~capacity:1 ~clock:(fun () -> 0.0) () in
  let extra =
    [
      ("seed", Json.Int seed);
      ("oracle", Json.String div.Oracle.d_oracle);
      ("detail", Json.String div.Oracle.d_detail);
      ( "reproducer",
        Json.Obj
          [
            ("src", Json.String shrunk.Shrink.sh_case.Gen.c_src);
            ("shrink_evals", Json.Int shrunk.Shrink.sh_evals);
          ] );
    ]
  in
  match
    Mv_obs.Flight.write_artifact ring ~reason:"fuzz-oracle"
      ~name:(Printf.sprintf "fuzz-seed-%d" seed)
      ~extra ()
  with
  | Some p ->
      log ("flight dump saved: " ^ p);
      Some p
  | None -> None

let handle_divergence ?chaos ?corpus_dir ?(shrink_budget = 300) ~log seed case
    sched (div : Oracle.divergence) : report =
  log (Format.asprintf "seed %d DIVERGED: %a" seed Oracle.pp_divergence div);
  let shrunk = Shrink.shrink ~budget:shrink_budget ?chaos ~log case sched div in
  let lines = List.length (String.split_on_char '\n' shrunk.Shrink.sh_case.Gen.c_src) in
  log
    (Printf.sprintf "shrunk to %d source lines in %d evaluations" lines
       shrunk.Shrink.sh_evals);
  let entry = Corpus.of_shrunk shrunk in
  let path =
    match corpus_dir with
    | None -> None
    | Some dir ->
        let p = Corpus.save ~dir entry in
        log ("reproducer saved: " ^ p);
        Some p
  in
  let flight = write_flight_artifact ~log seed div shrunk in
  { rp_seed = seed; rp_original = div; rp_shrunk = shrunk; rp_entry = entry;
    rp_path = path; rp_flight = flight }

(* One stripe of a campaign: cases [first], [first + step], ... below
   [iters], case [i] under seed [seed + i], polling [stop] before each
   (without [keep_going] a divergence sets it).  [tested] and [reports]
   grow as it goes, so a caller that catches an escaping exception keeps
   them; a single stripe logs progress every 100 cases. *)
let stripe ?cfg ?chaos ?only ?corpus_dir ?shrink_budget ~keep_going ~log ~stop ~seed
    ~iters ~first ~step ~tested ~reports () =
  let i = ref first in
  while !i < iters && not (Atomic.get stop) do
    let s = seed + !i in
    let case = Gen.case ?cfg s in
    let sched = schedule_for case s in
    incr tested;
    (match Oracle.run_all ?chaos ?only case sched with
    | None -> ()
    | Some div ->
        reports :=
          handle_divergence ?chaos ?corpus_dir ?shrink_budget ~log s case sched div
          :: !reports;
        if not keep_going then Atomic.set stop true);
    i := !i + step;
    if step = 1 && !i mod 100 = 0 && not (Atomic.get stop) then
      log (Printf.sprintf "%d/%d cases clean" !i iters)
  done

let run ?cfg ?chaos ?only ?corpus_dir ?(keep_going = false) ?shrink_budget
    ?(log = ignore) ~seed ~iters () : summary =
  let tested = ref 0 and reports = ref [] in
  stripe ?cfg ?chaos ?only ?corpus_dir ?shrink_budget ~keep_going ~log
    ~stop:(Atomic.make false) ~seed ~iters ~first:0 ~step:1 ~tested ~reports ();
  { s_tested = !tested; s_reports = List.rev !reports }

(* Domain-parallel campaign.  The case-seed schedule is the single-domain
   one — case i always runs under seed + i — and domain d owns the stripe
   {d, d + domains, d + 2*domains, ...} of the iteration space (campaign
   seed -> domain stripe -> case seed).  Because the tested seed set, the
   generator, the oracles, and the shrinker are all deterministic
   per-case, the merged corpus is byte-for-byte the corpus a single-domain
   run with the same budget writes; only host wall-clock changes. *)
let run_parallel ?cfg ?chaos ?only ?corpus_dir ?(keep_going = false)
    ?shrink_budget ?(log = ignore) ~domains ~seed ~iters () : summary =
  if domains < 1 then invalid_arg "Driver.run_parallel: domains must be >= 1";
  if domains = 1 then
    run ?cfg ?chaos ?only ?corpus_dir ~keep_going ?shrink_budget ~log ~seed
      ~iters ()
  else begin
    let log_mutex = Mutex.create () in
    let log_sync m =
      Mutex.lock log_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock log_mutex) (fun () -> log m)
    in
    (* With [keep_going] every stripe runs to the end of the budget and the
       seed set is exactly the single-domain one.  Without it, the flag
       asks every stripe to wind down once any domain has found a
       divergence — like the single-domain early exit, but the first
       finding is whichever domain got there first on the host clock. *)
    let stop = Atomic.make false in
    let worker d () =
      let tested = ref 0 and reports = ref [] in
      (try
         stripe ?cfg ?chaos ?only ?corpus_dir ?shrink_budget ~keep_going ~log:log_sync
           ~stop ~seed ~iters ~first:d ~step:domains ~tested ~reports ()
       with exn ->
         log_sync
           (Printf.sprintf "domain %d died: %s" d (Printexc.to_string exn)));
      (!tested, !reports)
    in
    let handles = List.init domains (fun d -> Domain.spawn (worker d)) in
    let results = List.map Domain.join handles in
    let tested = List.fold_left (fun acc (n, _) -> acc + n) 0 results in
    let reports =
      List.concat_map snd results
      |> List.sort (fun a b -> compare a.rp_seed b.rp_seed)
    in
    log
      (Printf.sprintf "%d/%d cases across %d domains, %d divergence(s)" tested
         iters domains (List.length reports));
    { s_tested = tested; s_reports = reports }
  end

let replay ?cfg ?chaos ?only ?(log = ignore) ~seed () : summary =
  let case = Gen.case ?cfg seed in
  let sched = schedule_for case seed in
  log (Printf.sprintf "seed %d: program (%d bytes):" seed (String.length case.Gen.c_src));
  log case.Gen.c_src;
  log
    (Format.asprintf "switches: %s"
       (String.concat ", "
          (List.map
             (fun sw ->
               Printf.sprintf "%s:%s" sw.Gen.sw_name
                 (Format.asprintf "%a" Minic.Ast.pp_ty sw.Gen.sw_ty))
             case.Gen.c_switches)));
  log
    (Format.asprintf "assignments:@.%s"
       (String.concat "\n"
          (List.map
             (fun a -> "  " ^ Format.asprintf "%a" Gen.pp_assignment a)
             case.Gen.c_assignments)));
  log (Format.asprintf "schedule:@.%a" Schedule.pp sched);
  let names = match only with Some o when o <> [] -> o | _ -> Oracle.oracle_names in
  let reports = ref [] in
  List.iter
    (fun name ->
      match Oracle.run_named ?chaos name case sched with
      | None -> log (Printf.sprintf "oracle %-18s ok" name)
      | Some div ->
          log (Format.asprintf "oracle %-18s %a" name Oracle.pp_divergence div);
          if !reports = [] then
            reports := [ handle_divergence ?chaos ~log seed case sched div ])
    names;
  { s_tested = 1; s_reports = !reports }

let check_corpus ?chaos ?(log = ignore) ~dir () : summary =
  let entries = Corpus.load_dir dir in
  let tested = ref 0 in
  let reports = ref [] in
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error m -> log (Printf.sprintf "%s: unreadable (%s)" path m)
      | Ok entry -> (
          incr tested;
          match Corpus.to_case entry with
          | exception exn ->
              log
                (Printf.sprintf "%s: stored source no longer builds (%s)" path
                   (Printexc.to_string exn))
          | case -> (
              match Oracle.run_named ?chaos entry.Corpus.e_oracle case entry.Corpus.e_schedule with
              | None -> log (Printf.sprintf "%s: ok (bug stays fixed)" path)
              | Some div ->
                  log (Format.asprintf "%s: STILL DIVERGES: %a" path Oracle.pp_divergence div);
                  reports :=
                    {
                      rp_seed = entry.Corpus.e_seed;
                      rp_original = div;
                      rp_shrunk =
                        {
                          Shrink.sh_case = case;
                          sh_sched = entry.Corpus.e_schedule;
                          sh_divergence = div;
                          sh_evals = 0;
                        };
                      rp_entry = entry;
                      rp_path = Some path;
                      rp_flight = None;
                    }
                    :: !reports)))
    entries;
  { s_tested = !tested; s_reports = List.rev !reports }
