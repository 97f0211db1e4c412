(* Pass manager: runs the optimization pipeline to a fixpoint.  Variant
   generation calls [optimize_fn] on every clone after constant substitution,
   mirroring the paper's "value replacement before the compiler's
   optimization passes" (Section 3). *)

module Ir = Mv_ir.Ir

type pass = { name : string; run : Ir.fn -> bool }

let default_pipeline =
  [
    { name = "const_prop"; run = Const_prop.run };
    { name = "branch_fold"; run = Branch_fold.run };
    { name = "simplify_cfg"; run = Simplify_cfg.run };
    { name = "dce"; run = Dce.run };
  ]

(** Run the pipeline until no pass reports a change (at most 32 rounds, as
    a safety net against oscillating rewrites). *)
let optimize_fn (fn : Ir.fn) : unit =
  let rec go round =
    if round < 32 then begin
      let changed =
        List.fold_left (fun acc p -> p.run fn || acc) false default_pipeline
      in
      if changed then go (round + 1)
    end
  in
  go 0

let optimize_prog (p : Ir.prog) : unit = List.iter optimize_fn p.Ir.p_fns
