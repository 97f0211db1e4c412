(* Structural equality of function bodies up to block order and register
   naming.  The variant generator uses this to merge clones that became
   identical after optimization — in Figure 2 of the paper, the bodies for
   A=0,B=0 and A=0,B=1 merge into the single variant "multi.A=0.B=01". *)

module Ir = Mv_ir.Ir

(** Canonical printable form of a function body: blocks in reverse-postorder
    from the entry, block ids replaced by their RPO index, and registers
    renamed in order of first occurrence (parameters first). *)
let canonical_form (fn : Ir.fn) : string =
  let blocks = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace blocks b.Ir.b_id b) fn.fn_blocks;
  (* reverse postorder *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      (match Hashtbl.find_opt blocks id with
      | Some b -> List.iter dfs (Ir.successors b.b_term)
      | None -> ());
      post := id :: !post
    end
  in
  (match fn.fn_blocks with b :: _ -> dfs b.b_id | [] -> ());
  let rpo = !post in
  let block_index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace block_index id i) rpo;
  (* register renaming *)
  let reg_index = Hashtbl.create 16 in
  let next = ref 0 in
  let canon_reg r =
    match Hashtbl.find_opt reg_index r with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.replace reg_index r i;
        i
  in
  List.iter (fun r -> ignore (canon_reg r)) fn.fn_params;
  let buf = Buffer.create 256 in
  let operand = function
    | Ir.Reg r -> Printf.sprintf "r%d" (canon_reg r)
    | Ir.Imm n -> Printf.sprintf "$%d" n
  in
  let block_ref id =
    match Hashtbl.find_opt block_index id with
    | Some i -> Printf.sprintf "L%d" i
    | None -> Printf.sprintf "L?%d" id
  in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun id ->
      match Hashtbl.find_opt blocks id with
      | None -> ()
      | Some b ->
          add "%s:\n" (block_ref id);
          List.iter
            (fun i ->
              (match i with
              | Ir.Imov (d, s) -> add " mov r%d,%s" (canon_reg d) (operand s)
              | Ir.Iun (op, d, a) ->
                  add " %s r%d,%s" (Ir.unop_name op) (canon_reg d) (operand a)
              | Ir.Ibin (op, d, a, b') ->
                  add " %s r%d,%s,%s" (Ir.binop_name op) (canon_reg d) (operand a)
                    (operand b')
              | Ir.Iload (d, a, w) -> add " ld%d r%d,%s" w (canon_reg d) (operand a)
              | Ir.Istore (a, v, w) -> add " st%d %s,%s" w (operand a) (operand v)
              | Ir.Iloadg (d, s, w) -> add " ldg%d r%d,@%s" w (canon_reg d) s
              | Ir.Istoreg (s, v, w) -> add " stg%d @%s,%s" w s (operand v)
              | Ir.Iaddr (d, s) -> add " addr r%d,@%s" (canon_reg d) s
              | Ir.Icall (d, s, args) ->
                  add " call%s @%s(%s)"
                    (match d with Some d -> Printf.sprintf " r%d" (canon_reg d) | None -> "")
                    s
                    (String.concat "," (List.map operand args))
              | Ir.Icallp (d, s, args) ->
                  add " callp%s [@%s](%s)"
                    (match d with Some d -> Printf.sprintf " r%d" (canon_reg d) | None -> "")
                    s
                    (String.concat "," (List.map operand args))
              | Ir.Iintr (d, intr, args) ->
                  add " intr%s %s(%s)"
                    (match d with Some d -> Printf.sprintf " r%d" (canon_reg d) | None -> "")
                    (Minic.Ast.intrinsic_name intr)
                    (String.concat "," (List.map operand args))
              (* ids are inserted before cloning, so structurally equal
                 clones carry identical ids and still merge *)
              | Ir.Isafepoint id -> add " safept %d" id);
              Buffer.add_char buf '\n')
            b.b_instrs;
          (match b.b_term with
          | Ir.Tjmp t -> add " jmp %s\n" (block_ref t)
          | Ir.Tbr (c, t, f) -> add " br %s,%s,%s\n" (operand c) (block_ref t) (block_ref f)
          | Ir.Tret None -> add " ret\n"
          | Ir.Tret (Some v) -> add " ret %s\n" (operand v)))
    rpo;
  Buffer.contents buf

let equal_bodies a b = String.equal (canonical_form a) (canonical_form b)
