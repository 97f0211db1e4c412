(* mvfuzz — differential fuzzer for the multiverse pipeline.

   Generates random Mini-C programs covering the whole language surface,
   runs them through every oracle pairing (reference interpreter vs VM,
   -O0 vs optimized, generic vs committed, randomized patching schedules
   with mid-run safe commits), and on divergence shrinks the case to a
   small reproducer.

     mvfuzz --iters 2000 --seed 1
     mvfuzz --iters 2000 --seed 1 --domains 4       # same corpus, 4 cores
     mvfuzz --seed 137 --replay
     mvfuzz --iters 500 --corpus fuzz-corpus
     mvfuzz --check-corpus fuzz-corpus
     mvfuzz --iters 50 --chaos skip-flush --corpus /tmp/chaos   # must diverge
     mvfuzz --iters 5 --chaos drop-ack --oracle smp-schedule-equiv  # must diverge

   Exit codes: 0 clean, 1 divergence found, 2 usage error (including
   unknown flags), 125 internal error. *)

module Driver = Mv_fuzz.Driver
module Oracle = Mv_fuzz.Oracle

open Cmdliner

let iters_arg =
  Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc:"Number of cases to fuzz")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Base seed; case $(i,i) uses seed N+i, so any failure names its seed")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Fan the campaign out over $(docv) OCaml domains.  Case $(i,i) \
           still runs under seed N+i (domain $(i,d) owns the stripe \
           $(i,d), $(i,d)+D, ...), so the tested seed set — and, with \
           $(b,--keep-going), the saved corpus — is byte-for-byte \
           identical to a single-domain run with the same budget; only \
           wall-clock changes.  Fuzzing mode only")

let replay_arg =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:"Replay a single seed verbosely: print the program, the schedule, and \
              every oracle verdict")

let corpus_arg =
  Arg.(
    value & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Save shrunk reproducers to $(docv)")

let check_corpus_arg =
  Arg.(
    value & opt (some string) None
    & info [ "check-corpus" ] ~docv:"DIR"
        ~doc:"Re-run every stored reproducer in $(docv) instead of fuzzing")

let chaos_arg =
  let chaos_conv =
    Arg.enum
      [
        ("none", Oracle.No_chaos);
        ("skip-flush", Oracle.Skip_flush);
        ("lost-flush", Oracle.Lost_flush);
        ("drop-ack", Oracle.Drop_ack);
        ("corrupt-framemap", Oracle.Corrupt_framemap);
        ("stale-cache", Oracle.Stale_cache);
      ]
  in
  Arg.(
    value & opt chaos_conv Oracle.No_chaos
    & info [ "chaos" ] ~docv:"MODE"
        ~doc:
          "Inject a fault into the patching machinery \
           (none|skip-flush|lost-flush|drop-ack|corrupt-framemap|stale-cache); see \
           $(b,CHAOS MODES).  Used to validate that the oracles catch \
           real patching bugs")

let oracle_arg =
  Arg.(
    value & opt_all string []
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:
          ("Restrict to the named oracle(s); repeatable.  Known: "
          ^ String.concat ", " Oracle.oracle_names))

let small_arg =
  Arg.(value & flag & info [ "small" ] ~doc:"Generate smaller programs (quick smokes)")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going" ] ~doc:"Continue fuzzing after a divergence (collect all)")

let shrink_budget_arg =
  Arg.(
    value & opt int 300
    & info [ "shrink-budget" ] ~docv:"N" ~doc:"Max oracle evaluations while shrinking")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress output")

let emit_snippet (r : Driver.report) =
  Format.printf "@.--- shrunk reproducer (%d source lines) ---@."
    (List.length (String.split_on_char '\n' r.Driver.rp_entry.Mv_fuzz.Corpus.e_src));
  print_string r.Driver.rp_entry.Mv_fuzz.Corpus.e_src;
  Format.printf "@.--- ready-to-paste test case ---@.";
  print_string (Mv_fuzz.Corpus.ocaml_snippet r.Driver.rp_entry)

let main iters seed domains replay corpus check_corpus chaos only small
    keep_going shrink_budget quiet =
  let log = if quiet then ignore else print_endline in
  let cfg = if small then Mv_fuzz.Gen.small_cfg else Mv_fuzz.Gen.default_cfg in
  let bad_oracles = List.filter (fun o -> not (List.mem o Oracle.oracle_names)) only in
  if bad_oracles <> [] then begin
    Format.eprintf "mvfuzz: unknown oracle(s): %s (known: %s)@."
      (String.concat ", " bad_oracles)
      (String.concat ", " Oracle.oracle_names);
    2
  end
  else if domains < 1 then begin
    Format.eprintf "mvfuzz: --domains must be >= 1 (got %d)@." domains;
    2
  end
  else if domains > 1 && (replay || check_corpus <> None) then begin
    Format.eprintf
      "mvfuzz: --domains only applies to fuzzing mode (not --replay / \
       --check-corpus)@.";
    2
  end
  else
    try
      let summary =
        match check_corpus with
        | Some dir -> Driver.check_corpus ~chaos ~log ~dir ()
        | None ->
            if replay then Driver.replay ~cfg ~chaos ~only ~log ~seed ()
            else
              Driver.run_parallel ~cfg ~chaos ~only ?corpus_dir:corpus
                ~keep_going ~shrink_budget ~log ~domains ~seed ~iters ()
      in
      match summary.Driver.s_reports with
      | [] ->
          if not quiet then
            Format.printf "mvfuzz: %d case(s), no divergence@." summary.Driver.s_tested;
          0
      | reports ->
          List.iter emit_snippet reports;
          Format.printf "mvfuzz: %d divergence(s) in %d case(s)@."
            (List.length reports) summary.Driver.s_tested;
          1
    with
    | Failure m ->
        Format.eprintf "mvfuzz: %s@." m;
        2
    | exn ->
        Format.eprintf "mvfuzz: uncaught %s@." (Printexc.to_string exn);
        2

let cmd =
  let doc = "Differential fuzzer for the multiverse compiler and runtime" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "$(tname) generates random Mini-C programs over the full language \
         surface and checks every build/patching pairing for divergence.  \
         It has three modes, selected by flags (there are no positional \
         arguments; any unknown flag or stray argument is a usage error \
         and exits 2):";
      `I
        ( "$(b,fuzz) (default)",
          "Run $(b,--iters) cases starting at $(b,--seed); case $(i,i) \
           uses seed N+i.  $(b,--domains) parallelizes the campaign \
           without changing the tested seed set.  On divergence the case \
           is shrunk, printed as a ready-to-paste test, optionally saved \
           to $(b,--corpus), and the exit code is 1." );
      `I
        ( "$(b,--replay)",
          "Re-run a single seed verbosely: print the generated program, \
           the switch assignments, the patching schedule, and every \
           oracle verdict." );
      `I
        ( "$(b,--check-corpus) $(i,DIR)",
          "Re-run every stored reproducer in $(i,DIR); a reproducer \
           passes when its oracle no longer diverges (the bug stays \
           fixed)." );
      `S "ORACLES";
      `P
        "Each oracle compares two executions that must agree.  \
         $(b,interp-vs-vm): reference IR interpreter vs the machine \
         simulator.  $(b,opt-vs-unopt): -O0 vs optimized build.  \
         $(b,commit-soundness): generic vs committed multiverse code \
         under every reachable switch assignment.  \
         $(b,commit-idempotent): repeated commit/revert cycles leave \
         behavior and text bytes unchanged.  $(b,schedule-equiv): a \
         randomized patching schedule with mid-run safe commits vs the \
         unpatched baseline.  $(b,osr-state-equiv): an activation parked \
         inside a non-returning multiversed loop and moved into the \
         committed variant by on-stack replacement vs the same program \
         run from scratch in the committed world — return value, \
         observable globals, and the loop's progress counter must all \
         match.  $(b,smp-schedule-equiv): the same program \
         on a multi-hart container with cross-modifying-code patching \
         (stop_machine + text_poke) vs single-hart execution.";
      `S "CHAOS MODES";
      `P
        "$(b,--chaos) injects a known bug into the patching machinery to \
         prove the oracles have teeth; chaos runs are expected to exit 1.  \
         $(b,none): no fault (default).  $(b,skip-flush): the runtime \
         skips the icache flush after patching, so stale pre-decoded \
         instructions keep executing.  $(b,lost-flush): flushes are \
         dropped at the machine boundary (the flush request never reaches \
         the decode cache).  $(b,drop-ack): severs one hart's IPI channel \
         in the multi-hart oracle — it is never posted a stop request and \
         text flushes skip its icache (pair with \
         $(b,--oracle smp-schedule-equiv)).  $(b,corrupt-framemap): bumps \
         one live-entry location per safepoint in the OSR frame map, so \
         the on-stack transfer rebuilds the parked frame from the wrong \
         register or spill slot (pair with \
         $(b,--oracle osr-state-equiv)).";
      `S Manpage.s_exit_status;
      `P
        "0 on a clean run; 1 when a divergence was found (or, with \
         $(b,--check-corpus), a stored reproducer still diverges); 2 on \
         usage errors, including unknown flags and unknown oracle names; \
         125 on internal errors.";
    ]
  in
  Cmd.v
    (Cmd.info "mvfuzz" ~doc ~man
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"on a clean run.";
           Cmd.Exit.info 1 ~doc:"when a divergence was found.";
           Cmd.Exit.info 2 ~doc:"on usage errors (unknown flags, bad values).";
           Cmd.Exit.info 125 ~doc:"on internal errors.";
         ])
    Term.(
      const main $ iters_arg $ seed_arg $ domains_arg $ replay_arg $ corpus_arg
      $ check_corpus_arg $ chaos_arg $ oracle_arg $ small_arg $ keep_going_arg
      $ shrink_budget_arg $ quiet_arg)

(* ~term_err:2 maps cmdliner's CLI-parse failures (unknown flags, stray
   positional arguments, malformed values) onto the documented usage-error
   exit code instead of the cmdliner default 124. *)
let () = exit (Cmd.eval' ~term_err:2 cmd)
