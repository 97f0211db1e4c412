(* On-stack replacement: bounded drain latency for live activations.

   A never-returning activation (event loop, scheduler) keeps its function's
   body live forever, so a deferred patch for it would never drain.  With
   frame maps ([multiverse.framemaps]) the safepoint can instead *move* the
   activation: read every live virtual register out of the source frame,
   rebuild the frame in the target body's layout, and resume at the
   equivalent program point of the target — a mapping between program
   points of two code versions.  The module stays VM-agnostic: it moves
   the hart's registers through a closure record the harness wires to
   [Mv_vm.Machine], and its stack words through the image. *)

module Image = Mv_link.Image
module Insn = Mv_isa.Insn
module Trace = Mv_obs.Trace

type hart = {
  oh_hart : int;
  oh_pc : unit -> int;
  oh_set_pc : int -> unit;
  oh_reg : int -> int;
  oh_set_reg : int -> int -> unit;
  oh_set_top_frame : int -> unit;
}

type t = {
  image : Image.t;  (** the stacks of every hart live in it *)
  maps : (int, Descriptor.framemap_record) Hashtbl.t;
      (** frame maps by body address: the parsed [multiverse.framemaps]
          records, plus one per materialized body *)
  mutable transfers : int;  (** live activations moved between bodies *)
  mutable aborts : int;
      (** transfers abandoned because the frame maps did not line up *)
}

(* Of two records at one address, the first registered wins. *)
let add t (fm : Descriptor.framemap_record) =
  if not (Hashtbl.mem t.maps fm.fm_addr) then Hashtbl.add t.maps fm.fm_addr fm

let remove t addr = Hashtbl.remove t.maps addr

let create image =
  let parsed = Descriptor.parse_framemaps image in
  let t = { image; maps = Hashtbl.create (List.length parsed); transfers = 0; aborts = 0 } in
  List.iter (add t) parsed;
  t

let transfers t = t.transfers
let aborts t = t.aborts

(* 8-byte stack words, read and written through the image. *)
let mem t addr = Image.read t.image addr 8
let set_mem t addr v = Image.write t.image addr v 8

(* Transfer the hart's activation from the body at [src] (address, size)
   to the equivalent program point of the body at [dst].  Succeeds only
   when the hart is parked exactly at a safepoint the source frame map
   records AND the target body kept a safepoint with the same stable id
   (specialization can delete program points; a lost id means there is no
   equivalent place to resume, and the set simply stays deferred).

   Frame reconstruction: with [sp_entry] the stack pointer at function
   entry, a body with [n] saved callee-saved registers and [frame_bytes] of
   spill area runs with [sp = sp_entry - 8n - frame_bytes]; save slot [i]
   (push order) lives at [sp_entry - 8(i+1)] and spill slot [s] at
   [sp + 8s].  The caller's value of a callee-saved register is in the
   source save area if the source pushed it, and still in the register
   itself if it did not (an untouched register is never clobbered).  The
   target spill area is zeroed before the live slots land so stale code
   addresses cannot keep the conservative stack scanner believing the old
   frame is still live. *)
let try_transfer t (h : hart) ~emit ~cid ~fn ~src:(src_addr, src_size) ~(dst : int) : bool =
  let pc = h.oh_pc () in
  if src_addr = dst || pc < src_addr || pc >= src_addr + src_size then false
  else
    match (Hashtbl.find_opt t.maps src_addr, Hashtbl.find_opt t.maps dst) with
    | Some fm_s, Some fm_d -> (
        match
          List.find_opt
            (fun (s : Descriptor.safepoint_record) -> s.fs_pc = pc)
            fm_s.fm_safepoints
        with
        | None -> false (* live in the body, but not parked at a known point *)
        | Some sp_s -> (
            match
              List.find_opt
                (fun (s : Descriptor.safepoint_record) -> s.fs_id = sp_s.fs_id)
                fm_d.fm_safepoints
            with
            | None ->
                (* the target body lost this program point to specialization *)
                t.aborts <- t.aborts + 1;
                false
            | Some sp_d ->
                let sp_cur = h.oh_reg Insn.sp in
                let n_saves_s = List.length fm_s.fm_saves in
                let sp_entry = sp_cur + fm_s.fm_frame_bytes + (8 * n_saves_s) in
                let read_loc = function
                  | Descriptor.Loc_reg r -> h.oh_reg r
                  | Descriptor.Loc_slot s -> mem t (sp_cur + (8 * s))
                in
                let src_vals = List.map (fun (v, loc) -> (v, read_loc loc)) sp_s.fs_live in
                if List.exists (fun (v, _) -> not (List.mem_assoc v src_vals)) sp_d.fs_live
                then begin
                  (* a target-live vreg has no source value: maps disagree *)
                  t.aborts <- t.aborts + 1;
                  false
                end
                else begin
                  let src_save_idx r =
                    let rec go i = function
                      | [] -> None
                      | r' :: _ when r' = r -> Some i
                      | _ :: rest -> go (i + 1) rest
                    in
                    go 0 fm_s.fm_saves
                  in
                  let caller_val r =
                    match src_save_idx r with
                    | Some i -> mem t (sp_entry - (8 * (i + 1)))
                    | None -> h.oh_reg r
                  in
                  let caller_vals =
                    List.map
                      (fun r -> (r, caller_val r))
                      (List.sort_uniq compare (fm_s.fm_saves @ fm_d.fm_saves))
                  in
                  let n_saves_d = List.length fm_d.fm_saves in
                  let sp_new = sp_entry - (8 * n_saves_d) - fm_d.fm_frame_bytes in
                  List.iteri
                    (fun i r -> set_mem t (sp_entry - (8 * (i + 1))) (List.assoc r caller_vals))
                    fm_d.fm_saves;
                  for s = 0 to (fm_d.fm_frame_bytes / 8) - 1 do
                    set_mem t (sp_new + (8 * s)) 0
                  done;
                  List.iter
                    (fun (v, loc) ->
                      let value = List.assoc v src_vals in
                      match loc with
                      | Descriptor.Loc_reg r -> h.oh_set_reg r value
                      | Descriptor.Loc_slot s -> set_mem t (sp_new + (8 * s)) value)
                    sp_d.fs_live;
                  (* registers only the source saved: the target epilogue
                     will not restore them, so the caller's value goes back
                     into the register now *)
                  List.iter
                    (fun r ->
                      if not (List.mem r fm_d.fm_saves) then
                        h.oh_set_reg r (List.assoc r caller_vals))
                    fm_s.fm_saves;
                  h.oh_set_reg Insn.sp sp_new;
                  h.oh_set_pc sp_d.fs_pc;
                  h.oh_set_top_frame dst;
                  t.transfers <- t.transfers + 1;
                  emit
                    (Trace.Osr_transfer
                       {
                         cid;
                         hart = h.oh_hart;
                         fn;
                         sp_id = sp_s.fs_id;
                         from_pc = pc;
                         to_pc = sp_d.fs_pc;
                         slots = List.length sp_d.fs_live;
                       });
                  true
                end))
    | _ -> false

(* The (source, target) pairs of one journaled action: the activation
   moves into [into] out of the generic body or, failing that, out of the
   installed variant.  A bind targets its new variant, so both sources
   apply; an unbind targets the generic, whose own pair is empty (a body
   never transfers into itself). *)
let transfer t h ~emit ~cid ~fn ~generic ~installed ~into =
  let move src = try_transfer t h ~emit ~cid ~fn ~src ~dst:into in
  if not (move generic) then Option.iter (fun src -> ignore (move src)) installed
