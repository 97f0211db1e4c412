(** The process image: flat memory with per-page protection flags, the
    symbol table, and the section map.

    The text segment is mapped read+execute.  Any write to a protected page
    raises {!Segfault} — the multiverse runtime must open a window with
    {!mprotect} around each patch and restore protection afterwards, as the
    paper requires (Section 7.2). *)

module Objfile = Mv_codegen.Objfile

exception Segfault of string

type protection = { p_read : bool; p_write : bool; p_exec : bool }

val prot_rw : protection
val prot_rx : protection
val prot_rwx : protection
val prot_none : protection

val page_size : int  (** 4096 *)

type section_range = { sr_base : int; sr_size : int }

type t = {
  mem : Bytes.t;
  prot : protection array;  (** one entry per page *)
  symbols : (string, int) Hashtbl.t;
      (** after the link, [symbols] and [symbol_sizes] are written only
          through {!add_symbol} and {!remove_symbol}: they are the only
          writers, and they clear [symbol_at_memo] *)
  symbol_sizes : (string, int) Hashtbl.t;
  symbol_at_memo : (int, string option) Hashtbl.t;
      (** {!symbol_at}'s answers by address.  {!symbol_at} writes it, so
          one image must not be symbolized from two domains at once *)
  sections : (Objfile.section * section_range) list;
  text : section_range;
  vtext : section_range;
      (** reserved, initially empty variant-text region the runtime may
          fill with materialized variant bodies after load; pages are
          mapped r-x like the static text segment *)
  heap_base : int;  (** first page after all sections *)
  stack_base : int;  (** initial stack pointer (grows down) *)
}

val size : t -> int

(** {1 Protection-checked access} *)

val read : t -> int -> int -> int
(** [read t addr width] *)

val write : t -> int -> int -> int -> unit
(** [write t addr v width] *)

val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

(** Fail unless the range is executable. *)
val check_exec : t -> int -> int -> unit

val prot_at : t -> int -> protection
val mprotect : t -> addr:int -> len:int -> protection -> unit

(** {1 Symbols and sections} *)

(** Absolute address of a symbol; raises {!Segfault} when undefined. *)
val symbol : t -> string -> int

val symbol_opt : t -> string -> int option
val symbol_size : t -> string -> int

(** Symbol whose [base, base+size) range contains the address.  A fold
    over the whole symbol table, memoized per address until the next
    {!add_symbol} or {!remove_symbol}. *)
val symbol_at : t -> int -> string option

(** [add_symbol t name ~addr ~size] registers (or moves) a symbol after
    load — how a lazily materialized variant body joins the symbol
    table so profilers and {!symbol_at} can attribute its addresses. *)
val add_symbol : t -> string -> addr:int -> size:int -> unit

(** Remove a runtime-registered symbol (used when a materialized variant
    is evicted from the variant-text region). *)
val remove_symbol : t -> string -> unit

val section_range : t -> Objfile.section -> section_range option

(** Is the address inside executable code — the static text segment or
    the runtime-growable variant-text region ({!t.vtext})?  Live
    activation scanners use this, so activations inside materialized
    variants are visible to the safe-commit machinery. *)
val in_text : t -> int -> bool
