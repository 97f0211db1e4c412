(* The process image: flat memory with per-page protection flags.

   The text segment is mapped read+execute; the multiverse runtime must use
   [mprotect] to open a write window around a patch — writing to a protected
   page raises [Segfault], and the test suite checks that the runtime
   restores protection afterwards (Section 7.2 of the paper: "multiverse
   makes the required memory locations writable only during the patching
   process"). *)

module Objfile = Mv_codegen.Objfile

exception Segfault of string

type protection = { p_read : bool; p_write : bool; p_exec : bool }

let prot_rw = { p_read = true; p_write = true; p_exec = false }
let prot_rx = { p_read = true; p_write = false; p_exec = true }
let prot_rwx = { p_read = true; p_write = true; p_exec = true }
let prot_none = { p_read = false; p_write = false; p_exec = false }

let page_size = 4096

type section_range = { sr_base : int; sr_size : int }

type t = {
  mem : Bytes.t;
  prot : protection array;
  symbols : (string, int) Hashtbl.t;  (** symbol name -> absolute address *)
  symbol_sizes : (string, int) Hashtbl.t;
  symbol_at_memo : (int, string option) Hashtbl.t;
      (** [symbol_at]'s answers by address, cleared by every symbol write *)
  sections : (Objfile.section * section_range) list;
  text : section_range;
  vtext : section_range;
      (** reserved variant-text region: code the image can gain after load *)
  heap_base : int;
  stack_base : int;  (** initial stack pointer (grows down) *)
}

let size t = Bytes.length t.mem

let page_of addr = addr / page_size

let in_bounds t addr len = addr >= 0 && len >= 0 && addr + len <= Bytes.length t.mem

let fault fmt = Printf.ksprintf (fun m -> raise (Segfault m)) fmt

let check t addr len access =
  if not (in_bounds t addr len) then
    fault "%s out of bounds at 0x%x (+%d)" access addr len

let prot_at t addr = t.prot.(page_of addr)

(** Check that every page covering [addr, addr+len) satisfies [p]. *)
let check_prot t addr len p access =
  check t addr len access;
  let first = page_of addr and last = page_of (addr + max 0 (len - 1)) in
  for page = first to last do
    let cur = t.prot.(page) in
    let ok =
      ((not p.p_read) || cur.p_read)
      && ((not p.p_write) || cur.p_write)
      && ((not p.p_exec) || cur.p_exec)
    in
    if not ok then fault "%s violation at 0x%x (page 0x%x)" access addr (page * page_size)
  done

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)
(* ------------------------------------------------------------------ *)

let read t addr width =
  check_prot t addr width { prot_none with p_read = true } "read";
  match width with
  | 1 -> Char.code (Bytes.get t.mem addr)
  | 2 -> Bytes.get_uint16_le t.mem addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le t.mem addr)
  | w -> fault "bad read width %d" w

let write t addr v width =
  check_prot t addr width { prot_none with p_write = true } "write";
  match width with
  | 1 -> Bytes.set t.mem addr (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le t.mem addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le t.mem addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.mem addr (Int64.of_int v)
  | w -> fault "bad write width %d" w

(** Raw byte-range accessors for the runtime library (still protection
    checked; the runtime must mprotect first, like a real process would). *)
let read_bytes t addr len =
  check_prot t addr len { prot_none with p_read = true } "read";
  Bytes.sub t.mem addr len

let write_bytes t addr (b : bytes) =
  check_prot t addr (Bytes.length b) { prot_none with p_write = true } "write";
  Bytes.blit b 0 t.mem addr (Bytes.length b)

(** Fetch for execution: requires exec permission. *)
let check_exec t addr len = check_prot t addr len { prot_none with p_exec = true } "exec"

(* ------------------------------------------------------------------ *)
(* Protection management                                               *)
(* ------------------------------------------------------------------ *)

let mprotect t ~addr ~len p =
  check t addr len "mprotect";
  let first = page_of addr and last = page_of (addr + max 0 (len - 1)) in
  for page = first to last do
    t.prot.(page) <- p
  done

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some addr -> addr
  | None -> fault "undefined symbol %s" name

let symbol_opt t name = Hashtbl.find_opt t.symbols name

let symbol_size t name = Option.value ~default:0 (Hashtbl.find_opt t.symbol_sizes name)

(** Reverse lookup: the symbol whose [addr, addr+size) range contains the
    address, preferring the closest preceding symbol.  The fold runs once
    per address until the next symbol write: its answer is memoized as
    is, since of two symbols at one base the fold keeps the one the
    table yields first, which no sorted index reproduces. *)
let symbol_at t addr =
  match Hashtbl.find_opt t.symbol_at_memo addr with
  | Some answer -> answer
  | None ->
      let answer =
        Hashtbl.fold
          (fun name base best ->
            let size = symbol_size t name in
            if addr >= base && (size = 0 || addr < base + size) then
              match best with
              | Some (_, best_base) when best_base >= base -> best
              | _ -> Some (name, base)
            else best)
          t.symbols None
        |> Option.map fst
      in
      Hashtbl.replace t.symbol_at_memo addr answer;
      answer

(** Register (or move) a symbol at runtime — how materialized variant
    bodies join the symbol table after load. *)
let add_symbol t name ~addr ~size =
  Hashtbl.replace t.symbols name addr;
  Hashtbl.replace t.symbol_sizes name size;
  Hashtbl.clear t.symbol_at_memo

(** Drop a runtime-registered symbol (variant eviction). *)
let remove_symbol t name =
  Hashtbl.remove t.symbols name;
  Hashtbl.remove t.symbol_sizes name;
  Hashtbl.clear t.symbol_at_memo

let section_range t sec = List.assoc_opt sec t.sections

let in_range (r : section_range) addr = addr >= r.sr_base && addr < r.sr_base + r.sr_size

(* The variant-text region counts as text: live-activation scanners must
   see activations inside materialized variants. *)
let in_text t addr = in_range t.text addr || in_range t.vtext addr
