(** Reference interpreter for the IR.

    This defines the language semantics that the whole back end (code
    generator, linker, machine) and the multiverse transformation
    (specialized variants must behave like the generic function) are
    differentially tested against. *)

exception Halted
exception Fault of string
exception Step_limit_exceeded

(** Truncate to [width] bytes with the given signedness interpretation. *)
val truncate : width:int -> signed:bool -> int -> int

type layout = { l_addr : (string, int) Hashtbl.t; l_end : int }

(** Assign data addresses to globals (8-byte aligned slots, mirroring the
    linker's layout rules). *)
val layout_globals : ?base:int -> Ir.global list -> layout

type t = {
  mem : Bytes.t;
  globals : (string, Ir.global * int) Hashtbl.t;
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

val fn_addr_base : int

(** Build an interpreter for a set of translation units; extern references
    must resolve to a definition in some unit.  Globals are initialized. *)
val create : ?mem_size:int -> ?step_limit:int -> Ir.prog list -> t

val load : t -> int -> int -> int
val store : t -> int -> int -> int -> unit
val global_addr : t -> string -> int

(** Read a global; sub-word values are zero-extended, matching the
    machine's [Loadg]. *)
val read_global : t -> string -> int

val write_global : t -> string -> int -> unit
val symbol_addr : t -> string -> int

(** Shared binary/unary operator semantics (also used by constant
    folding). *)
val eval_binop : Ir.binop -> int -> int -> int

val eval_unop : Ir.unop -> int -> int

(** Call a function by name; raises on faults or the step limit. *)
val call : t -> string -> int list -> int

(** Like {!call} but converts a [__halt] into a normal 0 return. *)
val run : t -> string -> int list -> int
