(** The static linker.

    Same-named sections of all input objects are concatenated — this is how
    the multiverse descriptor arrays from separate translation units become
    one contiguous array in the image (paper Section 5).  Relocations are
    ELF-style: absolute fields receive [S + A], pc-relative fields
    [S + A - P]. *)

module Objfile = Mv_codegen.Objfile

exception Link_error of string

(** Base address of the text segment (0x1000). *)
val text_base : int

val align_up : int -> int -> int

(** Default capacity of the variant-text region (512 KiB). *)
val default_vtext_size : int

(** [patch_reloc buf ~off ~p ~s r] stores relocation [r] into [buf] at
    byte [off]: [s + addend] for absolute fields, [s + addend - p] for
    pc-relative ones ([s] the resolved symbol address, [p] the field's
    absolute address).  Raises {!Link_error} when the value overflows a
    32-bit field.  The runtime links materialized variant bodies with
    it. *)
val patch_reloc : bytes -> off:int -> p:int -> s:int -> Objfile.reloc -> unit

(** Link the objects into a runnable image of [mem_size] bytes (default
    4 MiB): place sections, build the global symbol table, apply
    relocations, and set page protections (text r-x, the rest rw-).
    [vtext_size] bytes (default {!default_vtext_size}, rounded up to a
    page) are reserved after the static sections as the r-x variant-text
    region lazily materialized variant bodies are linked into. *)
val link : ?mem_size:int -> ?vtext_size:int -> Objfile.t list -> Image.t
