(* Shared helpers for the test suites. *)

module Image = Mv_link.Image

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(** Parse + typecheck, expecting success. *)
let check_ok src =
  let tu, env, warnings = Minic.Typecheck.check_string src in
  (tu, env, warnings)

(** Expect a typecheck (or parse/lex) failure; returns the message. *)
let check_fails src =
  match Minic.Typecheck.check_string src with
  | exception Minic.Typecheck.Error (m, _) -> m
  | exception Minic.Parser.Error (m, _) -> m
  | exception Minic.Lexer.Error (m, _) -> m
  | _ -> Alcotest.failf "expected a front-end error for:\n%s" src

(** Lower source to IR (typechecked). *)
let lower src =
  let prog, _warnings = Mv_ir.Lower.lower_string src in
  prog

(** Run a function in the reference IR interpreter. *)
let interp_run ?(optimize = false) src fn args =
  let prog = lower src in
  if optimize then Mv_opt.Pass.optimize_prog prog;
  let t = Mv_ir.Interp.create [ prog ] in
  Mv_ir.Interp.run t fn args

(** Full pipeline: build a program from one source. *)
let build src = Core.Compiler.build_string src

let build_units sources = Core.Compiler.build sources

module Harness = Mv_workloads.Harness

(** A Harness session over one source, or over several units. *)
let session = Harness.session1

let session_units = Harness.session
let run = Harness.call
let set_global = Harness.set
let get_global = Harness.get

(** Machine result must equal the IR interpreter result (differential). *)
let check_differential ?(args = []) name src fn =
  let expected = interp_run src fn args in
  let s = session src in
  let actual = run s fn args in
  check_int name expected actual

(** Detach a harness session's sink chain, its always-on ring included,
    so that no observer sees its events: the baseline against which the
    zero-simulated-cost tests compare an armed observer. *)
let detach_sinks (s : Harness.session) =
  Core.Runtime.set_tracer s.Harness.runtime None;
  Mv_vm.Smp.set_tracer s.Harness.smp None
