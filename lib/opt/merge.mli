(** Structural equality of function bodies up to block order and register
    naming — the merge step of multiverse variant generation: clones that
    become identical after optimization are deduplicated, as in the paper's
    [multi.A=0.B=01] example (Figure 2). *)

(** Canonical printable form: blocks in reverse postorder, block ids
    replaced by RPO indices, registers renamed in first-occurrence order
    (parameters first). *)
val canonical_form : Mv_ir.Ir.fn -> string

val equal_bodies : Mv_ir.Ir.fn -> Mv_ir.Ir.fn -> bool
