(** On-stack replacement: moving a live activation between two bodies of
    one multiversed function.

    A deferred patch waits for quiescence, and a body that never returns
    never quiesces.  OSR creates quiescence instead: at a safepoint, the
    polling hart's frame is rebuilt in the target body's layout and its pc
    moved to the equivalent program point.  The equivalence is the
    [multiverse.framemaps] descriptors ({!Descriptor.framemap_record}):
    one map per body, one stable id per safepoint, and the location of
    every live IR variable there.  A transfer is attempted only when it
    can be proven equivalent; otherwise it is abandoned and counted. *)

(** Accessors for the hart currently parked at a safepoint.  The module
    stays VM-agnostic: a harness builds these closures over
    [Mv_vm.Machine] ([Harness.enable_osr]).  Stack words are read and
    written through the image given to {!create}, which holds every
    hart's stack. *)
type hart = {
  oh_hart : int;  (** hart id, for event attribution *)
  oh_pc : unit -> int;
  oh_set_pc : int -> unit;
  oh_reg : int -> int;
  oh_set_reg : int -> int -> unit;
  oh_set_top_frame : int -> unit;
      (** replace the entry address of the innermost activation record, so
          stack symbolization follows the transferred frame *)
  oh_stack : int * int;
      (** the hart's stack as [\[lo, hi)]: every word a transfer writes
          lies inside it *)
}

(** The frame maps of one image, indexed by body address, and the
    transfer counters. *)
type t

(** Index the image's [multiverse.framemaps] records.  Raises
    {!Descriptor.Parse_error} on a malformed section. *)
val create : Mv_link.Image.t -> t

(** Register the frame map of a body linked after {!create} (a lazily
    materialized variant).  Of two maps at one address, the first
    registered wins. *)
val add : t -> Descriptor.framemap_record -> unit

(** Forget the frame map of the body at this address (its bytes were
    freed). *)
val remove : t -> int -> unit

(** [transfer t hart ~emit ~cid ~fn ~generic ~installed ~into] moves the
    hart's activation of function [fn] into the body at [into], out of
    its [generic] body or, failing that, out of its [installed] variant
    (bodies as (address, size); a body never transfers into itself).  A
    transfer needs the hart parked exactly at a safepoint of the source
    map, and the target map to keep the same stable id with a source value
    for every variable it needs live; a lost id, a missing value, a map
    naming a register that does not exist or a live spill slot outside
    its body's spill area, or a rebuilt frame that would not lie inside
    the hart's stack ([oh_stack]) is an abort, and an abort reads no
    stack word and writes nothing.  Each transfer emits an [Osr_transfer] event carrying [cid]. *)
val transfer :
  t ->
  hart ->
  emit:(Mv_obs.Trace.event -> unit) ->
  cid:int ->
  fn:string ->
  generic:int * int ->
  installed:(int * int) option ->
  into:int ->
  unit

(** Activations moved so far. *)
val transfers : t -> int

(** Transfers abandoned because the frame maps did not line up. *)
val aborts : t -> int
