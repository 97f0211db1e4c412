(* Safe-commit tests: stack-quiescence detection, deferral, exactly-once
   application at safepoints, transactional rollback, policy handling, and
   the invariant that the unsafe Table 1 paths are unchanged. *)

open Util
module Runtime = Core.Runtime
module Machine = Mv_vm.Machine
module Image = Mv_link.Image
module Insn = Mv_isa.Insn

(* The deferral workload: the generic [f] adds 100 only when [m] is set at
   run time; the m=1 variant adds 100 unconditionally.  The spacers give
   the machine quiescent safepoints between the two calls to [f]. *)
let defer_src =
  {|
  multiverse bool m;
  int w;
  multiverse void f() { if (m) { w = w + 100; } }
  void spacer() { w = w + 1; }
  int driver() { w = 0; f(); spacer(); spacer(); f(); return w; }
|}

let test_commit_inside_live_fn_is_deferred () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "f";
  let bound = Runtime.commit_safe s.runtime in
  check_int "live function not bound now" 0 bound;
  check_bool "f still generic" true (Runtime.installed_variant s.runtime "f" = None);
  check_bool "f journaled" true (Runtime.pending s.runtime = [ "f" ]);
  let st = Runtime.stats s.runtime in
  check_int "one action deferred" 1 st.Runtime.st_safe_deferred;
  check_int "nothing applied yet" 0 st.Runtime.st_safe_applied

let test_deferred_set_applied_at_safepoint_mid_run () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "f";
  ignore (Runtime.commit_safe s.runtime);
  (* the binding decision is journaled: flipping the switch now must not
     change which variant gets applied *)
  set_global s "m" 0;
  let w = Machine.finish s.machine in
  (* first f(): still generic, reads m=0, adds nothing; the set drains at a
     quiescent safepoint after f returns; second f(): the m=1 variant *)
  check_int "applied between the two calls" 102 w;
  check_bool "variant installed" true (Runtime.installed_variant s.runtime "f" <> None);
  check_bool "journal drained" true (Runtime.pending s.runtime = []);
  let st = Runtime.stats s.runtime in
  check_int "applied exactly once" 1 st.Runtime.st_safe_applied;
  check_int "no rollback" 0 st.Runtime.st_safe_rolled_back;
  check_int "journal empty" 0 st.Runtime.st_pending;
  check_bool "safepoints polled" true (st.Runtime.st_safepoint_polls > 0);
  (* a second run re-applies nothing: the patches are in the image *)
  check_int "bound code persists" 202 (run s "driver" []);
  let st = Runtime.stats s.runtime in
  check_int "still applied exactly once" 1 st.Runtime.st_safe_applied

let test_deny_policy_refuses_live_patch () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "f";
  let bound = Runtime.commit_safe ~policy:Runtime.Deny s.runtime in
  check_int "nothing bound" 0 bound;
  check_bool "nothing journaled" true (Runtime.pending s.runtime = []);
  let w = Machine.finish s.machine in
  (* never patched: both calls run the generic body with m=1 *)
  check_int "generic throughout" 202 w;
  check_bool "still generic" true (Runtime.installed_variant s.runtime "f" = None);
  check_int "denial counted" 1 (Runtime.stats s.runtime).Runtime.st_safe_denied

let test_new_commit_supersedes_pending () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "f";
  ignore (Runtime.commit_safe s.runtime);
  ignore (Runtime.commit_safe s.runtime);
  check_bool "one pending set, not two" true (Runtime.pending s.runtime = [ "f" ]);
  check_int "stale action superseded" 1
    (Runtime.stats s.runtime).Runtime.st_safe_superseded;
  ignore (Machine.finish s.machine)

let test_revert_safe_defers_while_live () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  check_int "idle commit binds immediately" 1 (Runtime.commit_safe s.runtime);
  Machine.start_call s.machine "driver" [];
  (* park inside the bound variant: f's call sites are patched, so step
     until the pc leaves the driver's text... the variant body runs in
     place of the site or behind the prologue jump; parking on the first
     spacer entry guarantees at least one f activation has come and gone
     while the *sites* stay live only during the call.  Simpler and
     airtight: park at driver entry and ask while its frame is live. *)
  Test_osr.park s "spacer";
  let n = Runtime.revert_safe s.runtime in
  (* the pc sits inside spacer; f's sites in driver hold no live
     activation unless a stack word lands in them — the return address
     into driver sits past the call sites, so the revert may apply
     immediately or defer depending on layout; either way the journal
     drains and the image ends pristine. *)
  ignore n;
  ignore (Machine.finish s.machine);
  check_bool "journal drained" true (Runtime.pending s.runtime = []);
  check_bool "back to generic" true (Runtime.installed_variant s.runtime "f" = None);
  (* pristine generic behavior *)
  set_global s "m" 0;
  check_int "generic again" 2 (run s "driver" [])

(* Rollback workload: driver -> f -> g, both multiversed.  Parking inside g
   keeps both live (g via the pc, f via the return address inside its
   body), so one commit journals a two-action set. *)
let rollback_src =
  {|
  multiverse bool m;
  int w;
  multiverse void g() { if (m) { w = w + 7; } }
  multiverse void f() { if (m) { w = w + 1; } g(); }
  int driver() { w = 0; f(); return w; }
|}

let test_mid_set_failure_rolls_back () =
  let s = session rollback_src in
  let img = s.program.Core.Compiler.p_image in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "g";
  let bound = Runtime.commit_safe s.runtime in
  check_int "both live, none bound" 0 bound;
  check_int "two actions journaled" 2 (Runtime.stats s.runtime).Runtime.st_pending;
  (* a foreign mechanism rewrites f's (already executed) call site in the
     driver before the set drains; g stages first, f's strict site check
     then fails, and the whole set must roll back *)
  let f_addr = Image.symbol img "f" in
  let site =
    (List.find
       (fun (cs : Core.Descriptor.callsite) -> cs.Core.Descriptor.cs_target = f_addr)
       (Core.Descriptor.parse_callsites img))
      .Core.Descriptor.cs_site
  in
  Image.mprotect img ~addr:site ~len:5 Image.prot_rwx;
  Image.write_bytes img site (Mv_isa.Encode.encode (Insn.Jmp 0));
  Image.mprotect img ~addr:site ~len:5 Image.prot_rx;
  let w = Machine.finish s.machine in
  check_int "run unaffected" 8 w;
  let st = Runtime.stats s.runtime in
  check_int "set rolled back" 1 st.Runtime.st_safe_rolled_back;
  check_int "nothing counted applied" 0 st.Runtime.st_safe_applied;
  check_bool "g rolled back to generic" true
    (Runtime.installed_variant s.runtime "g" = None);
  check_bool "f never bound" true (Runtime.installed_variant s.runtime "f" = None);
  check_bool "set dropped, not retried" true (Runtime.pending s.runtime = [])

(* A writer that raises on its [k]-th call and otherwise writes as the
   default path does: a protected store, then the icache flush. *)
let failing_writer (s : Harness.session) k =
  let img = s.program.Core.Compiler.p_image and calls = ref 0 in
  fun ~addr b ->
    incr calls;
    if !calls = k then raise (Core.Patch.Patch_error "injected write failure");
    let len = Bytes.length b in
    let prot = Image.prot_at img addr in
    Image.mprotect img ~addr ~len Image.prot_rwx;
    Image.write_bytes img addr b;
    Image.mprotect img ~addr ~len prot;
    Machine.flush_icache s.machine ~addr ~len

(* Journal the rollback source's two-action set: from pristine, parked
   at [g], or as a rebind from m=1 to m=0, parked at [g.m=1]. *)
let journal_two_actions ~rebind =
  let s = session rollback_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  if rebind then ignore (Runtime.commit s.runtime);
  Machine.start_call s.machine "driver" [];
  Test_osr.park s (if rebind then "g.m=1" else "g");
  if rebind then set_global s "m" 0;
  check_int "both live, none bound now" 0 (Runtime.commit_safe s.runtime);
  check_int "two actions journaled" 2 (Runtime.stats s.runtime).Runtime.st_pending;
  s

let text_of (s : Harness.session) =
  let img = s.program.Core.Compiler.p_image in
  Image.read_bytes img img.Image.text.Image.sr_base img.Image.text.Image.sr_size

(* Rollback at every write: make the [k]-th text write of the drain fail,
   for k = 1, 2, ... until the set applies.  Every rolled-back drain must
   leave the text and both bindings as they were before it, and close
   every selection it opened: replaying its [Variant_selected] and
   [Variant_unbound] events over the bindings it started from (the
   residency a heat sink keeps) must end at those bindings again.
   Returns the first k at which the set applies: one more than the
   writes a full application makes. *)
let drain_fails_at_every_write ~rebind =
  let bindings (s : Harness.session) = List.map (Runtime.installed_variant s.runtime) [ "f"; "g" ] in
  let rec attempt k =
    let s = journal_two_actions ~rebind in
    let text0 = text_of s and bound0 = bindings s in
    let events = ref [] in
    Runtime.set_tracer s.runtime (Some (fun ev -> events := ev :: !events));
    Runtime.set_text_writer s.runtime (Some (failing_writer s k));
    ignore (Machine.finish s.machine);
    let st = Runtime.stats s.runtime in
    if st.Runtime.st_safe_applied > 0 then k
    else begin
      let label = Printf.sprintf "%s, write %d fails"
          (if rebind then "rebind" else "from pristine") k in
      check_int (label ^ ": rolled back") 1 st.Runtime.st_safe_rolled_back;
      check_bool (label ^ ": text as before") true (Bytes.equal text0 (text_of s));
      check_bool (label ^ ": bindings as before") true (bindings s = bound0);
      let resident =
        List.fold_left
          (fun acc ev ->
            match ev with
            | Mv_obs.Trace.Variant_selected { fn; variant } ->
                (fn, Some variant) :: List.remove_assoc fn acc
            | Mv_obs.Trace.Variant_unbound { fn; _ } -> (fn, None) :: List.remove_assoc fn acc
            | _ -> acc)
          (List.combine [ "f"; "g" ] bound0)
          (List.rev !events)
      in
      check_bool (label ^ ": every selection closed") true
        (List.map (fun fn -> List.assoc fn resident) [ "f"; "g" ] = bound0);
      attempt (k + 1)
    end
  in
  attempt 1

let test_rollback_at_every_write () =
  let fresh = drain_fails_at_every_write ~rebind:false in
  let rebind = drain_fails_at_every_write ~rebind:true in
  check_bool "a fresh drain writes something" true (fresh > 1);
  check_int "a rebind writes each location once, as a fresh bind does" fresh rebind

(* A rebind over a call site some other mechanism rewrote skips it and
   reports it once. *)
let test_rebind_reports_foreign_site_once () =
  let s = session rollback_src in
  let img = s.program.Core.Compiler.p_image in
  set_global s "m" 1;
  ignore (Runtime.commit s.runtime);
  let f_addr = Image.symbol img "f" in
  let site =
    (List.find
       (fun (cs : Core.Descriptor.callsite) -> cs.Core.Descriptor.cs_target = f_addr)
       (Core.Descriptor.parse_callsites img))
      .Core.Descriptor.cs_site
  in
  Image.mprotect img ~addr:site ~len:5 Image.prot_rwx;
  Image.write_bytes img site (Mv_isa.Encode.encode (Insn.Jmp 0));
  Image.mprotect img ~addr:site ~len:5 Image.prot_rx;
  set_global s "m" 0;
  ignore (Runtime.commit s.runtime);
  check_int "the foreign site is reported once" 1
    (List.length (List.filter (fun (a, _) -> a = site) (Runtime.skipped_sites s.runtime)));
  check_bool "f rebound" true (Runtime.installed_variant s.runtime "f" = Some "f.m=0")

(* The same switch sequence through commit/revert and, on a twin, through
   commit_safe/revert_safe with nothing live: fn-pointer switches
   (bound, rebound, nulled), an out-of-domain fallback, reverts — eager
   and lazy.  Both paths make one decision per entity and stage it through
   one stager, so every return value, text byte, fallback, skipped site
   and trace event (up to the span's op name) must agree. *)
let twin_src =
  Mv_workloads.Pvops.functional_source Mv_workloads.Pvops.Multiverse
  ^ {|
    multiverse values(0, 1, 2) int mode;
    int acc;
    multiverse void tick() {
      if (mode == 1) { acc = acc + 1; }
      if (mode == 2) { acc = acc + 10; }
    }
    int drive(int n) {
      acc = 0;
      for (int i = 0; i < n; i = i + 1) { tick(); irq_disable(); irq_enable(); }
      return acc;
    }
  |}

let twin_sessions_agree ~lazy_variants =
  let module H = Mv_workloads.Harness in
  let module Trace = Mv_obs.Trace in
  let twin ~safe =
    let s = H.session1 ~lazy_variants twin_src in
    H.enable_tracing s;
    if safe then H.enable_safe_commit s;
    let commit () = if safe then H.commit_safe s else H.commit s in
    let revert () = if safe then H.revert_safe s else H.revert s in
    (s, commit, revert)
  in
  let ((s1, commit1, revert1) as a) = twin ~safe:false in
  let ((s2, commit2, revert2) as b) = twin ~safe:true in
  let text (s, _, _) =
    let img = s.H.program.Core.Compiler.p_image in
    let bytes (r : Image.section_range) =
      Bytes.to_string (Image.read_bytes img r.Image.sr_base r.Image.sr_size)
    in
    bytes img.Image.text ^ bytes img.Image.vtext
  in
  let events (s, _, _) =
    List.map
      (fun (st : Trace.stamped) ->
        match st.Trace.ev with
        | Trace.Commit_begin e -> Trace.Commit_begin { e with op = "" }
        | Trace.Commit_end e -> Trace.Commit_end { e with op = "" }
        | ev -> ev)
      (H.trace_events s)
  in
  let both f = List.iter f [ a; b ] in
  let set name v = both (fun (s, _, _) -> H.set s name v) in
  let ptr name target = both (fun (s, _, _) -> H.set_fnptr s name target) in
  let step label op1 op2 =
    check_int (label ^ ": same count") (op1 ()) (op2 ());
    check_bool (label ^ ": same text") true (text a = text b);
    check_bool (label ^ ": same fallbacks") true
      (Runtime.fallbacks s1.H.runtime = Runtime.fallbacks s2.H.runtime);
    check_bool (label ^ ": same skipped sites") true
      (Runtime.skipped_sites s1.H.runtime = Runtime.skipped_sites s2.H.runtime);
    check_bool (label ^ ": nothing journaled") true (Runtime.pending s2.H.runtime = []);
    check_int (label ^ ": same result") (H.call s1 "drive" [ 3 ]) (H.call s2 "drive" [ 3 ])
  in
  set "mode" 1;
  ptr "pv_irq_disable" "native_cli";
  ptr "pv_irq_enable" "native_sti";
  step "bind all" commit1 commit2;
  set "mode" 2;
  ptr "pv_irq_disable" "xen_cli";
  step "rebind" commit1 commit2;
  set "mode" 7;
  set "pv_irq_enable" 0;
  ptr "pv_irq_disable" "native_cli";
  step "out of domain, null pointer" commit1 commit2;
  check_bool "fallbacks reported" true (Runtime.fallbacks s1.H.runtime <> []);
  set "mode" 0;
  ptr "pv_irq_enable" "xen_sti";
  step "back in domain" commit1 commit2;
  check_bool "fallbacks cleared" true (Runtime.fallbacks s1.H.runtime = []);
  step "revert" revert1 revert2;
  set "mode" 2;
  step "bind after revert" commit1 commit2;
  step "revert again" revert1 revert2;
  let e1 = events a and e2 = events b in
  check_int "same number of events" (List.length e1) (List.length e2);
  check_bool "same events, up to the span op" true (e1 = e2)

(* A rebind equals a fresh bind.  Twelve valuations of the twin source —
   mode in {0, 1, 2, 7} (7 is out of domain) times pv_irq_disable in
   {native_cli, xen_cli, null} — and, under both strategies, for every
   ordered pair (a, b): [commit a; commit b] leaves the text,
   tick's binding, the fallbacks and drive's result that a fresh
   [commit b] leaves.  One session per strategy runs the pairs, reverting
   to the pristine text between them. *)
let test_rebind_equals_fresh_bind () =
  let module H = Mv_workloads.Harness in
  let valuations =
    List.concat_map
      (fun mode -> List.map (fun ptr -> (mode, ptr)) [ Some "native_cli"; Some "xen_cli"; None ])
      [ 0; 1; 2; 7 ]
  in
  let session strategy =
    let s = H.session1 twin_src in
    Runtime.set_strategy s.H.runtime strategy;
    s
  in
  let commit s (mode, ptr) =
    H.set s "mode" mode;
    (match ptr with
    | Some target -> H.set_fnptr s "pv_irq_disable" target
    | None -> H.set s "pv_irq_disable" 0);
    ignore (H.commit s)
  in
  let text s =
    let img = s.H.program.Core.Compiler.p_image in
    let bytes (r : Image.section_range) =
      Bytes.to_string (Image.read_bytes img r.Image.sr_base r.Image.sr_size)
    in
    bytes img.Image.text ^ bytes img.Image.vtext
  in
  let outcome s =
    ( text s,
      Runtime.installed_variant s.H.runtime "tick",
      Runtime.fallbacks s.H.runtime,
      H.call s "drive" [ 3 ] )
  in
  let pairs = ref 0 in
  List.iter
    (fun (strategy, name) ->
      let fresh =
        List.map
          (fun b ->
            let s = session strategy in
            commit s b;
            outcome s)
          valuations
      in
      let s = session strategy in
      let pristine = text s in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              ignore (H.revert s);
              check_bool "revert restores the pristine text" true (text s = pristine);
              commit s a;
              commit s b;
              incr pairs;
              check_bool
                (Printf.sprintf "%s: valuation %d then %d equals a fresh %d" name i j j)
                true
                (outcome s = List.nth fresh j))
            valuations)
        valuations)
    [ (Runtime.Call_site_patching, "call-site"); (Runtime.Body_patching, "body") ];
  check_int "every ordered pair under both strategies" 288 !pairs

let test_idle_commit_safe_acts_like_commit () =
  let s = session defer_src in
  Harness.enable_safe_commit s;
  set_global s "m" 1;
  check_int "binds immediately when idle" 1 (Runtime.commit_safe s.runtime);
  check_bool "no journal" true (Runtime.pending s.runtime = []);
  check_bool "installed" true (Runtime.installed_variant s.runtime "f" <> None);
  set_global s "m" 0;
  check_int "bound code executes" 202 (run s "driver" []);
  check_int "reverts immediately when idle" 1 (Runtime.revert_safe s.runtime);
  check_int "generic again" 2 (run s "driver" []);
  twin_sessions_agree ~lazy_variants:false;
  twin_sessions_agree ~lazy_variants:true

let test_commit_safe_requires_scanner () =
  let s = session defer_src in
  set_global s "m" 1;
  match Runtime.commit_safe s.runtime with
  | exception Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "commit_safe without a live scanner must fail"

let test_unsafe_commit_path_unchanged () =
  (* the paper's commit performs no synchronization: parked inside f, the
     unsafe path still patches immediately, and with no safepoint hook the
     machine never polls *)
  let s = session defer_src in
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [];
  Test_osr.park s "f";
  check_int "unsafe commit binds the live function" 1 (Runtime.commit s.runtime);
  check_bool "installed while live" true (Runtime.installed_variant s.runtime "f" <> None);
  ignore (Machine.finish s.machine);
  check_int "no safepoint polls without a hook" 0
    (Runtime.stats s.runtime).Runtime.st_safepoint_polls

(* Drain-latency pinning for a never-returning body (approximated by a
   loop far longer than the budget): without OSR the deferred set's drain
   latency is unbounded — a 10x step budget leaves it journaled, because
   the only drain opportunity is the frame unwinding.  With OSR it
   collapses to about one safepoint interval: the steps from the parked
   entry to the loop's first call return. *)
let test_never_returning_drain_latency () =
  let steps_to_drain ~osr ~budget =
    let s = session Test_osr.spin_src in
    if osr then Test_osr.enable s else Harness.enable_safe_commit s;
    set_global s "m" 1;
    Machine.start_call s.machine "driver" [ 1_000_000 ];
    Test_osr.park s "spin";
    ignore (Runtime.commit_safe s.runtime);
    let steps = ref 0 in
    while Runtime.pending s.runtime <> [] && !steps < budget do
      incr steps;
      ignore (Machine.step s.machine)
    done;
    if Runtime.pending s.runtime = [] then Some !steps else None
  in
  (* one safepoint interval = one loop iteration's worth of steps; 60 is
     a generous bound on entry -> first tick return *)
  (match steps_to_drain ~osr:true ~budget:60 with
  | Some n ->
      check_bool
        (Printf.sprintf "drains within one safepoint interval (%d steps)" n)
        true (n <= 60)
  | None -> Alcotest.fail "with OSR the set must drain within one interval");
  match steps_to_drain ~osr:false ~budget:600 with
  | Some n ->
      Alcotest.failf "without OSR the set drained mid-run after %d steps" n
  | None -> ()

let suite =
  [
    tc "commit inside live fn is deferred" test_commit_inside_live_fn_is_deferred;
    tc "deferred set applied at safepoint mid-run"
      test_deferred_set_applied_at_safepoint_mid_run;
    tc "deny policy refuses live patch" test_deny_policy_refuses_live_patch;
    tc "new commit supersedes pending" test_new_commit_supersedes_pending;
    tc "revert_safe drains cleanly" test_revert_safe_defers_while_live;
    tc "mid-set failure rolls back" test_mid_set_failure_rolls_back;
    tc "rollback at every write" test_rollback_at_every_write;
    tc "a rebind reports a foreign site once" test_rebind_reports_foreign_site_once;
    tc "a rebind equals a fresh bind" test_rebind_equals_fresh_bind;
    tc "idle commit_safe acts like commit" test_idle_commit_safe_acts_like_commit;
    tc "commit_safe requires a scanner" test_commit_safe_requires_scanner;
    tc "unsafe commit path unchanged" test_unsafe_commit_path_unchanged;
    tc "never-returning drain latency bounded only by OSR"
      test_never_returning_drain_latency;
  ]
