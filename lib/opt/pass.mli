(** Pass manager: runs the optimization pipeline to a fixpoint.

    Variant generation calls {!optimize_fn} on every clone after constant
    substitution — the paper's "value replacement before the compiler's
    optimization passes" (Section 3), which is what specializes variants
    perfectly. *)

type pass = { name : string; run : Mv_ir.Ir.fn -> bool }

(** Constant propagation, branch folding, CFG simplification, DCE. *)
val default_pipeline : pass list

(** Iterate the pipeline until no pass reports a change (at most 32
    rounds, as a safety net). *)
val optimize_fn : Mv_ir.Ir.fn -> unit

val optimize_prog : Mv_ir.Ir.prog -> unit
