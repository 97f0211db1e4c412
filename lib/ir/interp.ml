(* Reference interpreter for the IR.  It defines the semantics against which
   the whole back end (code generator, linker, machine) and the multiverse
   transformation (specialized variants must behave like the generic
   function) are differentially tested. *)

exception Halted
exception Fault of string
exception Step_limit_exceeded

(** Truncate an integer to [width] bytes, interpreting it as signed or
    unsigned.  Shared with the machine simulator via copy of semantics. *)
let truncate ~width ~signed v =
  if width >= 8 then v
  else begin
    let bits = width * 8 in
    let mask = (1 lsl bits) - 1 in
    let v = v land mask in
    if signed && v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v
  end

type layout = { l_addr : (string, int) Hashtbl.t; l_end : int }

(** Assign data addresses to globals, mirroring the linker's layout rules
    (8-byte alignment per global). *)
let layout_globals ?(base = 0x10000) (globals : Ir.global list) : layout =
  let tbl = Hashtbl.create 64 in
  let cursor = ref base in
  List.iter
    (fun (g : Ir.global) ->
      let size = max 8 (g.gl_width * g.gl_count) in
      let size = (size + 7) / 8 * 8 in
      Hashtbl.replace tbl g.gl_name !cursor;
      cursor := !cursor + size)
    globals;
  { l_addr = tbl; l_end = !cursor }

type t = {
  mem : Bytes.t;
  globals : (string, Ir.global * int) Hashtbl.t;  (** name -> (info, address) *)
  fns : (string, Ir.fn) Hashtbl.t;
  fn_addr : (string, int) Hashtbl.t;
  addr_fn : (int, string) Hashtbl.t;
  mutable irq_enabled : bool;
  mutable hypercalls : int;
  mutable steps : int;
  mutable step_limit : int;
  heap_base : int;
  stack_base : int;
}

let fn_addr_base = 0x1000

(** Build an interpreter for a set of translation units.  Extern references
    must be resolved by a definition in some unit. *)
let create ?(mem_size = 1 lsl 21) ?(step_limit = 100_000_000) (progs : Ir.prog list) : t =
  let all_globals =
    List.concat_map (fun (p : Ir.prog) -> p.p_globals) progs
  in
  let all_fns = List.concat_map (fun (p : Ir.prog) -> p.p_fns) progs in
  let layout = layout_globals all_globals in
  let t =
    {
      mem = Bytes.make mem_size '\000';
      globals = Hashtbl.create 64;
      fns = Hashtbl.create 64;
      fn_addr = Hashtbl.create 64;
      addr_fn = Hashtbl.create 64;
      irq_enabled = true;
      hypercalls = 0;
      steps = 0;
      step_limit;
      heap_base = (layout.l_end + 4095) / 4096 * 4096;
      stack_base = mem_size - 8;
    }
  in
  List.iter
    (fun (g : Ir.global) ->
      Hashtbl.replace t.globals g.gl_name (g, Hashtbl.find layout.l_addr g.gl_name))
    all_globals;
  List.iteri
    (fun i (fn : Ir.fn) ->
      let addr = fn_addr_base + (i * 16) in
      Hashtbl.replace t.fns fn.fn_name fn;
      Hashtbl.replace t.fn_addr fn.fn_name addr;
      Hashtbl.replace t.addr_fn addr fn.fn_name)
    all_fns;
  (* check extern resolution *)
  List.iter
    (fun (p : Ir.prog) ->
      List.iter
        (fun (name, _mv) ->
          if not (Hashtbl.mem t.fns name) then
            raise (Fault (Printf.sprintf "unresolved extern function %s" name)))
        p.p_extern_fns;
      List.iter
        (fun (g : Ir.global) ->
          if not (Hashtbl.mem t.globals g.gl_name) then
            raise (Fault (Printf.sprintf "unresolved extern global %s" g.gl_name)))
        p.p_extern_globals)
    progs;
  (* initialize globals *)
  List.iter
    (fun (g : Ir.global) ->
      let _, addr = Hashtbl.find t.globals g.gl_name in
      (match g.gl_init with
      | Some v -> Bytes.set_int64_le t.mem addr (Int64.of_int v)
      | None -> ());
      match g.gl_fn_init with
      | Some f ->
          let faddr =
            match Hashtbl.find_opt t.fn_addr f with
            | Some a -> a
            | None -> raise (Fault (Printf.sprintf "fnptr init: unknown function %s" f))
          in
          Bytes.set_int64_le t.mem addr (Int64.of_int faddr)
      | None -> ())
    all_globals;
  t

let load t addr width =
  if addr < 0 || addr + width > Bytes.length t.mem then
    raise (Fault (Printf.sprintf "load out of bounds: 0x%x" addr));
  match width with
  | 1 -> Char.code (Bytes.get t.mem addr)
  | 2 -> Bytes.get_uint16_le t.mem addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le t.mem addr)
  | w -> raise (Fault (Printf.sprintf "bad load width %d" w))

let store t addr v width =
  if addr < 0 || addr + width > Bytes.length t.mem then
    raise (Fault (Printf.sprintf "store out of bounds: 0x%x" addr));
  match width with
  | 1 -> Bytes.set t.mem addr (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le t.mem addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le t.mem addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.mem addr (Int64.of_int v)
  | w -> raise (Fault (Printf.sprintf "bad store width %d" w))

let global_addr t name =
  match Hashtbl.find_opt t.globals name with
  | Some (_, addr) -> addr
  | None -> raise (Fault (Printf.sprintf "unknown global %s" name))

(* Sub-word globals are zero-extended on load, matching the machine's
   [Loadg] (the ISA has no sign-extending loads); full-width (8-byte)
   globals carry negative values unchanged. *)
let read_global t name =
  match Hashtbl.find_opt t.globals name with
  | Some (g, addr) ->
      truncate ~width:g.gl_width ~signed:false (load t addr g.gl_width)
  | None -> raise (Fault (Printf.sprintf "unknown global %s" name))

let write_global t name v =
  match Hashtbl.find_opt t.globals name with
  | Some (g, addr) -> store t addr v g.gl_width
  | None -> raise (Fault (Printf.sprintf "unknown global %s" name))

let symbol_addr t name =
  match Hashtbl.find_opt t.fn_addr name with
  | Some a -> a
  | None -> global_addr t name

let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Ir.Mod -> if b = 0 then raise (Fault "modulo by zero") else a mod b
  | Ir.Band -> a land b
  | Ir.Bor -> a lor b
  | Ir.Bxor -> a lxor b
  | Ir.Shl -> a lsl (b land 63)
  | Ir.Shr -> a asr (b land 63)
  | Ir.Eq -> if a = b then 1 else 0
  | Ir.Ne -> if a <> b then 1 else 0
  | Ir.Lt -> if a < b then 1 else 0
  | Ir.Le -> if a <= b then 1 else 0
  | Ir.Gt -> if a > b then 1 else 0
  | Ir.Ge -> if a >= b then 1 else 0

let eval_unop op a =
  match op with
  | Ir.Neg -> -a
  | Ir.Lnot -> if a = 0 then 1 else 0
  | Ir.Bnot -> lnot a

let rec call t name (args : int list) : int =
  let fn =
    match Hashtbl.find_opt t.fns name with
    | Some fn -> fn
    | None -> raise (Fault (Printf.sprintf "call to unknown function %s" name))
  in
  let regs = Array.make (max 1 fn.fn_nregs) 0 in
  List.iteri
    (fun i r -> if i < List.length args then regs.(r) <- List.nth args i)
    fn.fn_params;
  let operand = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let rec run_block (b : Ir.block) : int =
    (* block entry counts as a step so empty loops still hit the limit *)
    t.steps <- t.steps + 1;
    if t.steps > t.step_limit then raise Step_limit_exceeded;
    List.iter
      (fun i ->
        t.steps <- t.steps + 1;
        if t.steps > t.step_limit then raise Step_limit_exceeded;
        match i with
        | Ir.Imov (d, s) -> regs.(d) <- operand s
        | Ir.Iun (op, d, a) -> regs.(d) <- eval_unop op (operand a)
        | Ir.Ibin (op, d, a, b) -> regs.(d) <- eval_binop op (operand a) (operand b)
        | Ir.Iload (d, a, w) -> regs.(d) <- truncate ~width:w ~signed:false (load t (operand a) w)
        | Ir.Istore (a, v, w) -> store t (operand a) (operand v) w
        | Ir.Iloadg (d, s, _) -> regs.(d) <- read_global t s
        | Ir.Istoreg (s, v, _) -> write_global t s (operand v)
        | Ir.Iaddr (d, s) -> regs.(d) <- symbol_addr t s
        | Ir.Icall (d, callee, args) ->
            let v = call t callee (List.map operand args) in
            Option.iter (fun d -> regs.(d) <- v) d
        | Ir.Icallp (d, sym, args) ->
            let target_addr = read_global t sym in
            let callee =
              match Hashtbl.find_opt t.addr_fn target_addr with
              | Some f -> f
              | None ->
                  raise
                    (Fault (Printf.sprintf "indirect call through %s to bad address 0x%x" sym target_addr))
            in
            let v = call t callee (List.map operand args) in
            Option.iter (fun d -> regs.(d) <- v) d
        | Ir.Iintr (d, intr, args) ->
            let v = intrinsic t intr (List.map operand args) in
            Option.iter (fun d -> regs.(d) <- v) d
        | Ir.Isafepoint _ -> ())
      b.b_instrs;
    match b.b_term with
    | Ir.Tjmp id -> run_block (Ir.find_block fn id)
    | Ir.Tbr (c, bt, bf) ->
        run_block (Ir.find_block fn (if operand c <> 0 then bt else bf))
    | Ir.Tret None -> 0
    | Ir.Tret (Some v) -> operand v
  in
  run_block (Ir.entry_block fn)

and intrinsic t (i : Minic.Ast.intrinsic) args =
  match i, args with
  | Minic.Ast.Icli, [] ->
      t.irq_enabled <- false;
      0
  | Minic.Ast.Isti, [] ->
      t.irq_enabled <- true;
      0
  | Minic.Ast.Ipause, [] | Minic.Ast.Ifence, [] -> 0
  | Minic.Ast.Iatomic_xchg, [ addr; v ] ->
      let old = load t addr 8 in
      store t addr v 8;
      old
  | Minic.Ast.Ihypercall, [ _n ] ->
      t.hypercalls <- t.hypercalls + 1;
      0
  | Minic.Ast.Irdtsc, [] -> t.steps
  | Minic.Ast.Ihalt, [] -> raise Halted
  | _ -> raise (Fault "bad intrinsic arity")

(** Run [name] with [args]; returns its result.  [Halted] from [__halt] is
    converted into a normal 0 return. *)
let run t name args = try call t name args with Halted -> 0
