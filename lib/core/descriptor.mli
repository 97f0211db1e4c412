(** Binary descriptor records (paper Sections 3 and 5).

    Descriptors live in dedicated sections — [multiverse.variables],
    [multiverse.functions], [multiverse.callsites] — which the linker
    concatenates across translation units into contiguous arrays.  Record
    sizes match the paper exactly: 32 bytes per configuration switch, 16
    bytes per call site, and [48 + #variants * (32 + #guards * 16)] bytes
    per multiversed function.  Address fields are filled by Abs64
    relocations, so position-independent placement comes for free.

    Our on-stack-replacement extension adds a fourth section,
    [multiverse.framemaps]: per body of a multiversed function (generic or
    variant), the frame geometry plus one record per safepoint naming where
    every live IR virtual register resides at that program point.  The
    runtime uses these to transfer a live activation between bodies instead
    of waiting for the frame to unwind. *)

val variable_record_size : int  (** 32 *)

val callsite_record_size : int  (** 16 *)

val function_header_size : int  (** 48 *)

val variant_record_size : int  (** 32 *)

val guard_record_size : int  (** 16 *)

(** The paper's per-function formula, with [guards] the total guard count
    across all variant records. *)
val function_record_size : variants:int -> guards:int -> int

val framemap_header_size : int  (** 24 *)

val framemap_safepoint_header_size : int  (** 16 *)

val framemap_live_entry_size : int  (** 8 *)

(** {1 Serialization into an object file} *)

(** Emit a 32-byte variable record (address, width, signedness, fnptr flag)
    for the switch [g]. *)
val emit_variable : Mv_codegen.Objfile.t -> Mv_ir.Ir.global -> unit

(** Emit a 16-byte call-site record: the callee's address (the generic
    function for direct sites, the fn-pointer variable for indirect ones)
    and the call instruction's address ([caller] + [site_offset]). *)
val emit_callsite :
  Mv_codegen.Objfile.t -> caller:string -> site_offset:int -> callee:string -> unit

(** Emit the function record for [mf]: a 48-byte header followed by one
    32-byte record per guard box, each followed by its 16-byte guard
    records.  [size_of] maps a symbol to its emitted body size. *)
val emit_function :
  Mv_codegen.Objfile.t -> Variantgen.mv_function -> size_of:(string -> int) -> unit

(** Emit the [multiverse.framemaps] record for one emitted fragment: its
    {!framemap_of_fragment} map, serialized with body-relative pcs. *)
val emit_framemap : Mv_codegen.Objfile.t -> Mv_codegen.Emit.fragment -> unit

(** {1 Parsing from a linked image} *)

type variable = {
  vr_addr : int;  (** absolute address of the switch *)
  vr_width : int;  (** width in bytes *)
  vr_signed : bool;
  vr_fnptr : bool;  (** function-pointer switch (Section 4 extension) *)
}

type callsite = {
  cs_target : int;  (** generic function or fn-pointer variable address *)
  cs_site : int;  (** absolute address of the call instruction *)
}

type guard_record = { gr_var : int; gr_lo : int; gr_hi : int }

type variant_record = {
  va_addr : int;  (** absolute address of the variant body *)
  va_size : int;  (** encoded body size in bytes *)
  va_guards : guard_record list;
}

type function_record = {
  fd_generic : int;
  fd_generic_size : int;
  fd_variants : variant_record list;
}

(** A malformed section: a record size that does not divide the
    section, or a count whose records would run past the section's end.
    Every count is checked before anything is read or allocated for it. *)
exception Parse_error of string

(** Parse the [multiverse.variables] section of a linked image. *)
val parse_variables : Mv_link.Image.t -> variable list

(** Parse the [multiverse.callsites] section of a linked image. *)
val parse_callsites : Mv_link.Image.t -> callsite list

(** Parse the [multiverse.functions] section of a linked image. *)
val parse_functions : Mv_link.Image.t -> function_record list

(** Where a live virtual register's value resides at a safepoint. *)
type frame_loc =
  | Loc_reg of int  (** machine register number *)
  | Loc_slot of int  (** sp-relative spill slot index; byte offset is 8×slot *)

type safepoint_record = {
  fs_id : int;  (** stable id shared by the generic body and every variant *)
  fs_pc : int;  (** absolute poll pc: body address + recorded offset *)
  fs_live : (int * frame_loc) list;  (** (IR vreg, location), sorted by vreg *)
}

type framemap_record = {
  fm_addr : int;  (** absolute address of the body this map describes *)
  fm_frame_bytes : int;  (** spill-area size: the prologue's [sub sp] amount *)
  fm_saves : int list;
      (** machine registers pushed in the prologue, in push order — entry
          [i] lives at [sp_entry - 8*(i+1)] *)
  fm_safepoints : safepoint_record list;
}

(** The frame map of an emitted fragment placed at address [addr]: the
    frame geometry (spill-area size, saved registers in push order) and
    the per-safepoint live locations its emitter recorded. *)
val framemap_of_fragment : addr:int -> Mv_codegen.Emit.fragment -> framemap_record

(** Parse the [multiverse.framemaps] section of a linked image. *)
val parse_framemaps : Mv_link.Image.t -> framemap_record list
