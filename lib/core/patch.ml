(* Low-level binary patching primitives (Section 4 of the paper).

   Every mutation follows the protocol: open a write window with mprotect,
   write, restore the original protection, flush the instruction cache for
   the patched range.  The [flush] callback is provided by the execution
   environment (the machine simulator in this repository; a real kernel
   would issue the architecture's icache maintenance operations). *)

module Insn = Mv_isa.Insn
module Image = Mv_link.Image

exception Patch_error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Patch_error m)) fmt

type t = {
  image : Image.t;
  flush : addr:int -> len:int -> unit;
  mutable bytes_patched : int;
  mutable patches : int;
  mutable writer : (addr:int -> bytes -> unit) option;
      (** when set, replaces the default write+flush path of {!write_text}
          — the SMP layer routes text mutations through its breakpoint-
          first [text_poke] protocol here.  The writer owns protection,
          the byte store and the flushes; the patch counters still run. *)
}

let create image ~flush =
  { image; flush; bytes_patched = 0; patches = 0; writer = None }

(** Install (or remove) the replacement text writer (see [writer]). *)
let set_writer t w = t.writer <- w

(** Execute [f] with the pages covering [addr, addr+len) writable, restoring
    their previous protection afterwards (even on exceptions). *)
let with_writable t ~addr ~len f =
  let img = t.image in
  let restore_to = Image.prot_at img addr in
  Image.mprotect img ~addr ~len Image.prot_rwx;
  Fun.protect ~finally:(fun () -> Image.mprotect img ~addr ~len restore_to) f

(** Protected raw write + icache flush; the single funnel for every text
    mutation. *)
let write_text t ~addr (b : bytes) =
  (match t.writer with
  | Some write -> write ~addr b
  | None ->
      with_writable t ~addr ~len:(Bytes.length b) (fun () ->
          Image.write_bytes t.image addr b);
      t.flush ~addr ~len:(Bytes.length b));
  t.patches <- t.patches + 1;
  t.bytes_patched <- t.bytes_patched + Bytes.length b

let read_text t ~addr ~len = Image.read_bytes t.image addr len

(* ------------------------------------------------------------------ *)
(* Decoding helpers                                                    *)
(* ------------------------------------------------------------------ *)

let decode_at t ~addr =
  try Mv_isa.Decode.decode t.image.Image.mem ~off:addr
  with Mv_isa.Decode.Decode_error (m, off) -> errf "decode at 0x%x: %s" off m

(* ------------------------------------------------------------------ *)
(* Call-site patching                                                  *)
(* ------------------------------------------------------------------ *)

let encode_call ~site ~target =
  let rel = target - (site + Insn.call_size) in
  Mv_isa.Encode.encode (Insn.Call rel)

let encode_jmp ~site ~target =
  let rel = target - (site + Insn.jmp_size) in
  Mv_isa.Encode.encode (Insn.Jmp rel)

(* ------------------------------------------------------------------ *)
(* Body inlining (Figure 3 b/c)                                        *)
(* ------------------------------------------------------------------ *)

(** If the function body at [fn_addr] consists of position-independent
    instructions followed by [ret], with a total encoded size of at most
    [budget] bytes, return those instruction bytes (possibly empty).  Such a
    body can replace a call instruction in place, removing all call
    overhead; an empty body turns the call site into pure nops. *)
let inlineable_body t ~fn_addr ~fn_size ~budget : bytes option =
  let limit = fn_addr + fn_size in
  let rec scan addr acc_len =
    if addr >= limit then None (* ran off the body without finding ret *)
    else
      match decode_at t ~addr with
      | Insn.Ret, _ -> Some acc_len
      | insn, size ->
          if Insn.position_independent insn && acc_len + size <= budget then
            scan (addr + size) (acc_len + size)
          else None
  in
  match scan fn_addr 0 with
  | Some len -> Some (read_text t ~addr:fn_addr ~len)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Body relocation (the Section 7.1 alternative)                       *)
(* ------------------------------------------------------------------ *)

(** Produce the bytes of the body at [src] (of [len] bytes) relocated so it
    can execute at [dst]: pc-relative transfers to targets *outside* the
    copied range are re-biased for the new position, while intra-body
    branches move with the code and keep their displacement.

    This is the "relocate variant bodies" work the paper cites as the
    complexity cost of body patching (Section 7.1): the call-site approach
    needs none of it. *)
let relocate_body t ~src ~len ~dst : bytes =
  let out = Bytes.create len in
  let rec go pos =
    if pos < src + len then begin
      let insn, size = decode_at t ~addr:pos in
      if pos - src + size > len then
        errf "body at 0x%x does not tile %d bytes" src len;
      let new_pos = dst + (pos - src) in
      let rebias rel =
        let target = pos + size + rel in
        if target >= src && target < src + len then rel  (* moves with the body *)
        else begin
          let rel' = target - (new_pos + size) in
          if rel' < Int32.to_int Int32.min_int || rel' > Int32.to_int Int32.max_int then
            errf "relocated displacement overflow at 0x%x" pos;
          rel'
        end
      in
      let insn' =
        match insn with
        | Insn.Call rel -> Insn.Call (rebias rel)
        | Insn.Jmp rel -> Insn.Jmp (rebias rel)
        | Insn.Jnz (r, rel) -> Insn.Jnz (r, rebias rel)
        | Insn.Jz (r, rel) -> Insn.Jz (r, rebias rel)
        | i -> i
      in
      Bytes.blit (Mv_isa.Encode.encode insn') 0 out (pos - src) size;
      go (pos + size)
    end
  in
  go src;
  out
