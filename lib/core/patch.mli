(** Low-level binary-patching primitives (paper Section 4).

    Every mutation follows the protocol the paper mandates: open a write
    window with mprotect, write, restore the original protection, flush the
    instruction cache for the patched range.  The architecture-dependent
    knowledge (what a call looks like, how large it is, which instructions
    may be copied) lives in {!Mv_isa}; this module is the platform layer. *)

exception Patch_error of string

type t = {
  image : Mv_link.Image.t;
  flush : addr:int -> len:int -> unit;
      (** icache maintenance callback, invoked after every text write *)
  mutable bytes_patched : int;  (** accounting for the patch-cost tables *)
  mutable patches : int;
  mutable writer : (addr:int -> bytes -> unit) option;
      (** replacement write path; install via {!set_writer} *)
}

(** Attach the patching layer to a linked image; [flush] is the icache
    callback invoked after every text write. *)
val create : Mv_link.Image.t -> flush:(addr:int -> len:int -> unit) -> t

(** Install (or remove, with [None]) a replacement text writer.  When set,
    {!write_text} hands the raw bytes to it instead of performing the
    default protected-write-plus-flush; the writer owns page protection,
    the byte store and icache maintenance.  The SMP layer installs its
    breakpoint-first [text_poke] protocol here so every runtime patch
    becomes a proper cross-modifying-code sequence. *)
val set_writer : t -> (addr:int -> bytes -> unit) option -> unit

(** Protected write + icache flush: the single funnel for text mutation. *)
val write_text : t -> addr:int -> bytes -> unit

(** Read [len] text bytes at [addr] (no write window needed). *)
val read_text : t -> addr:int -> len:int -> bytes

(** Encode a direct call at [site] transferring to [target]. *)
val encode_call : site:int -> target:int -> bytes

(** Encode an unconditional jump at [site] to [target]: the runtime writes
    one over the generic prologue so that pointer calls and foreign code
    land in the bound variant too (completeness, Section 7.4). *)
val encode_jmp : site:int -> target:int -> bytes

(** If the body at [fn_addr] is a straight line of position-independent
    instructions ending in [ret], with total encoded size at most [budget],
    return those bytes (possibly empty: Figure 3c's nop-able case). *)
val inlineable_body : t -> fn_addr:int -> fn_size:int -> budget:int -> bytes option

(** Produce the body at [src] relocated for execution at [dst]:
    pc-relative transfers leaving the copied range are re-biased,
    intra-body branches keep their displacement.  This is the relocation
    work that makes body patching costly (Section 7.1). *)
val relocate_body : t -> src:int -> len:int -> dst:int -> bytes
