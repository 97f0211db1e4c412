(* On-stack replacement tests: a deferred patch blocked by a live
   activation is unblocked by *moving* the activation — frame and pc — into
   the target body at the next safepoint, instead of waiting for the frame
   to unwind.  The battery covers transfer at every safepoint of a loop
   body, transfer between two variants, the transfer-then-revert round
   trip, the never-returning-body drain guarantee, and an SMP transfer
   under the rendezvous barrier. *)

open Util
module Runtime = Core.Runtime
module Machine = Mv_vm.Machine
module Image = Mv_link.Image
module Trace = Mv_obs.Trace
module Harness = Mv_workloads.Harness
module Smp = Mv_vm.Smp

(* Wire scanner + safepoint hook (as Harness.enable_safe_commit) and the
   OSR hart accessors (as Harness.enable_osr) over a Util.session. *)
let enable s =
  Runtime.set_live_scanner s.runtime (fun () -> Machine.live_code_addrs s.machine);
  Machine.set_safepoint s.machine (Some (fun () -> Runtime.safepoint s.runtime));
  let m = s.machine in
  Runtime.set_osr s.runtime
    (Some
       (fun () ->
         {
           Core.Osr.oh_hart = Machine.hart_id m;
           oh_pc = (fun () -> m.Machine.pc);
           oh_set_pc = (fun pc -> m.Machine.pc <- pc);
           oh_reg = (fun r -> m.Machine.regs.(r));
           oh_set_reg = (fun r v -> m.Machine.regs.(r) <- v);
           oh_set_top_frame = Machine.set_top_frame m;
           oh_stack = (m.Machine.stack_base - Smp.hart_stack_bytes, m.Machine.stack_base);
         }))

(* Collect every trace event the runtime emits (no ring, no clock: the
   tests only care about the event payloads). *)
let collect_events s =
  let events = ref [] in
  Runtime.set_tracer s.runtime (Some (fun ev -> events := ev :: !events));
  fun () -> List.rev !events

(* The Osr_transfer payload is an inline record; project the fields the
   assertions care about. *)
type xfer = { x_cid : int; x_fn : string; x_sp_id : int }

let osr_xfers evs =
  List.filter_map
    (function
      | Trace.Osr_transfer { cid; fn; sp_id; _ } ->
          Some { x_cid = cid; x_fn = fn; x_sp_id = sp_id }
      | _ -> None)
    evs

(* Step until the pc sits at [fn]'s entry (the call has transferred
   control, no body instruction has run). *)
let park s fn =
  let img = s.program.Core.Compiler.p_image in
  let addr = Image.symbol img fn in
  let guard = ref 1_000_000 in
  while s.machine.Machine.pc <> addr && !guard > 0 do
    decr guard;
    ignore (Machine.step s.machine)
  done;
  check_bool ("parked at " ^ fn) true (s.machine.Machine.pc = addr)

(* The OSR workload: [spin] loops [n] times; each iteration calls [tick]
   (whose return is the loop body's safepoint) and then adds 1 (generic,
   with m=0 in memory) or 2 (the m=1 variant) to the accumulator.  The
   commit decision is journaled with m=1, then memory flips to m=0: every
   iteration executed in the generic body contributes 1, every iteration
   executed in the variant contributes 2 — the result counts exactly how
   early the activation moved. *)
let spin_src =
  {|
  multiverse bool m;
  int w;
  void tick() { w = w + 1; }
  multiverse int spin(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
      tick();
      if (m) { acc = acc + 2; } else { acc = acc + 1; }
      i = i + 1;
    }
    return acc;
  }
  int driver(int n) { w = 0; return spin(n); }
|}

let test_transfer_unblocks_live_loop () =
  let s = session spin_src in
  enable s;
  let events = collect_events s in
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [ 10 ];
  park s "spin";
  let bound = Runtime.commit_safe s.runtime in
  check_int "live function not bound now" 0 bound;
  check_bool "spin journaled" true (Runtime.pending s.runtime = [ "spin" ]);
  (* the journaled decision binds the m=1 variant; the generic reads m=0
     from here on, so generic iterations add 1 and variant iterations 2 *)
  set_global s "m" 0;
  let acc = Machine.finish s.machine in
  (* the first safepoint fires when iteration 1's tick returns, before the
     iteration's accumulate: the transfer moves the activation there, so
     all 10 iterations take the variant path *)
  check_int "every iteration ran in the variant" 20 acc;
  let st = Runtime.stats s.runtime in
  check_int "one transfer" 1 st.Runtime.st_osr_transfers;
  check_int "no aborts" 0 st.Runtime.st_osr_aborts;
  check_int "set drained" 0 st.Runtime.st_pending;
  check_bool "variant installed" true
    (Runtime.installed_variant s.runtime "spin" <> None);
  (* the transfer event correlates with the deferring commit's cid *)
  match osr_xfers (events ()) with
  | [ x ] ->
      check_string "transfer names the function" "spin" x.x_fn;
      let defer_cid =
        List.find_map
          (function Trace.Safe_defer { cid; _ } -> Some cid | _ -> None)
          (events ())
      in
      check_bool "cid matches the deferring commit" true (Some x.x_cid = defer_cid)
  | xs -> Alcotest.failf "expected exactly one Osr_transfer event, got %d" (List.length xs)

(* Variant to variant: the activation runs in the installed m=0 variant
   when a safe commit binds the m=1 variant.  The generic body holds no
   activation, so only the second pair — installed variant to the new
   one — can move it; the first safepoint does, before any iteration
   accumulates, so every iteration adds 2. *)
let test_transfer_between_variants () =
  let s = session spin_src in
  enable s;
  set_global s "m" 0;
  ignore (Runtime.commit s.runtime);
  Machine.start_call s.machine "driver" [ 10 ];
  park s "spin.m=0";
  set_global s "m" 1;
  ignore (Runtime.commit_safe s.runtime);
  let acc = Machine.finish s.machine in
  check_int "every iteration ran in the new variant" 20 acc;
  let st = Runtime.stats s.runtime in
  check_int "one transfer" 1 st.Runtime.st_osr_transfers;
  check_int "no aborts" 0 st.Runtime.st_osr_aborts;
  check_int "set drained" 0 st.Runtime.st_pending;
  check_bool "spin.m=1 installed" true
    (Runtime.installed_variant s.runtime "spin" = Some "spin.m=1")

let test_without_osr_set_stays_pending_until_return () =
  let s = session spin_src in
  (* safe commit wired, but no OSR accessors *)
  Runtime.set_live_scanner s.runtime (fun () -> Machine.live_code_addrs s.machine);
  Machine.set_safepoint s.machine (Some (fun () -> Runtime.safepoint s.runtime));
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [ 10 ];
  park s "spin";
  ignore (Runtime.commit_safe s.runtime);
  set_global s "m" 0;
  let acc = Machine.finish s.machine in
  (* the set could only drain after spin's frame unwound: all 10
     iterations ran generic with m=0 *)
  check_int "every iteration ran generic" 10 acc;
  check_int "no transfers without accessors" 0
    (Runtime.stats s.runtime).Runtime.st_osr_transfers;
  check_int "drained at return" 0 (Runtime.stats s.runtime).Runtime.st_pending

(* Where the frame map of the body at [addr] sits in the image: the
   offset of its header and of every live entry's location word. *)
let frame_map_offsets img addr =
  let module D = Core.Descriptor in
  match Image.section_range img Mv_codegen.Objfile.Mv_framemaps with
  | None -> Alcotest.fail "no frame-map section"
  | Some { Image.sr_base; sr_size } ->
      let rec find off =
        if off + D.framemap_header_size > sr_base + sr_size || Image.read img off 8 = 0 then
          Alcotest.failf "no frame map for 0x%x" addr
        else begin
          let n_saves = Image.read img (off + 16) 4 in
          let rec safepoints n sp locs =
            if n = 0 then (sp, locs)
            else begin
              let live = sp + D.framemap_safepoint_header_size in
              let n_live = Image.read img (sp + 8) 4 in
              safepoints (n - 1)
                (live + (n_live * D.framemap_live_entry_size))
                (List.init n_live (fun i -> live + (i * D.framemap_live_entry_size) + 4) @ locs)
            end
          in
          let next, locs =
            safepoints (Image.read img (off + 8) 4)
              (off + D.framemap_header_size + ((n_saves + 1) / 2 * 2 * 4))
              []
          in
          if Image.read img off 8 = addr then (off, locs) else find next
        end
      in
      find sr_base

(* Frame maps naming locations a transfer cannot use: a target spill
   area of 1 MiB, or of 2^30 bytes, which reaches below the image, and a
   source whose live values all sit in spill slot 0xFFFF, 512 KiB above
   its frame, or in register 0xFFFF.  The transfer must be abandoned
   before it reads or writes a word: every iteration runs generic, the
   set drains once spin returns, and every byte between the heap base
   and the hart's stack keeps the marker it was filled with. *)
let test_frame_map_outside_stack_aborts () =
  let spill_area frame_bytes img =
    let header, _ = frame_map_offsets img (Image.symbol img "spin.m=1") in
    Image.write img (header + 12) frame_bytes 4
  and source_locations loc img =
    let _, locs = frame_map_offsets img (Image.symbol img "spin") in
    List.iter (fun off -> Image.write img off loc 4) locs
  in
  List.iter
    (fun (label, corrupt) ->
      let program = build spin_src in
      let img = program.Core.Compiler.p_image in
      corrupt img;
      let machine = Machine.create img in
      let runtime =
        Runtime.create img ~flush:(fun ~addr ~len -> Machine.flush_icache machine ~addr ~len)
      in
      let s = { program; machine; runtime } in
      enable s;
      let events = collect_events s in
      let below = img.Image.heap_base and stack_lo = machine.Machine.stack_base - Smp.hart_stack_bytes in
      Bytes.fill img.Image.mem below (stack_lo - below) '\x5a';
      set_global s "m" 1;
      Machine.start_call machine "driver" [ 10 ];
      park s "spin";
      ignore (Runtime.commit_safe runtime);
      set_global s "m" 0;
      check_int (label ^ ": every iteration ran generic") 10 (Machine.finish machine);
      let st = Runtime.stats runtime in
      check_int (label ^ ": no transfer") 0 st.Runtime.st_osr_transfers;
      check_bool (label ^ ": transfers abandoned") true (st.Runtime.st_osr_aborts > 0);
      check_int (label ^ ": no Osr_transfer event") 0 (List.length (osr_xfers (events ())));
      check_int (label ^ ": drained at return") 0 st.Runtime.st_pending;
      check_bool (label ^ ": nothing below the hart's stack written") true
        (Bytes.for_all (fun c -> c = '\x5a') (Bytes.sub img.Image.mem below (stack_lo - below))))
    [
      ("1 MiB spill area", spill_area (1 lsl 20));
      ("2^30-byte spill area", spill_area (1 lsl 30));
      ("source slot 0xFFFF", source_locations 0x1FFFF);
      ("source register 0xFFFF", source_locations 0xFFFF);
    ]

(* Two calls per iteration — two safepoints with distinct stable ids.  By
   issuing the commit after k = 0, 1, 2, … machine steps, the activation is
   parked at varying distances from each safepoint, so transfers land on
   every safepoint id the body records. *)
let two_sp_src =
  {|
  multiverse bool m;
  int w;
  void tick() { w = w + 1; }
  void tock() { w = w + 3; }
  multiverse int spin2(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
      tick();
      if (m) { acc = acc + 2; } else { acc = acc + 1; }
      tock();
      i = i + 1;
    }
    return acc;
  }
  int driver(int n) { w = 0; return spin2(n); }
|}

let test_transfer_at_every_safepoint_offset () =
  (* which safepoint ids exist in spin2's generic frame map? *)
  let ids_of_fn s name =
    let img = s.program.Core.Compiler.p_image in
    let addr = Image.symbol img name in
    match
      List.find_opt
        (fun (fm : Core.Descriptor.framemap_record) ->
          fm.Core.Descriptor.fm_addr = addr)
        (Core.Descriptor.parse_framemaps img)
    with
    | Some fm ->
        List.map
          (fun (sp : Core.Descriptor.safepoint_record) -> sp.Core.Descriptor.fs_id)
          fm.Core.Descriptor.fm_safepoints
    | None -> []
  in
  let all_ids = ref [] in
  let hit_ids = ref [] in
  for k = 0 to 40 do
    let s = session two_sp_src in
    enable s;
    let events = collect_events s in
    set_global s "m" 1;
    Machine.start_call s.machine "driver" [ 6 ];
    park s "spin2";
    all_ids := ids_of_fn s "spin2";
    for _ = 1 to k do
      ignore (Machine.step s.machine)
    done;
    ignore (Runtime.commit_safe s.runtime);
    set_global s "m" 0;
    let acc = Machine.finish s.machine in
    let st = Runtime.stats s.runtime in
    (* whatever the offset: the set drains mid-run via exactly one
       transfer, and the result stays in the envelope [6, 12] (each
       iteration adds 1 generic / 2 variant) *)
    check_int (Printf.sprintf "k=%d: one transfer" k) 1 st.Runtime.st_osr_transfers;
    check_int (Printf.sprintf "k=%d: drained" k) 0 st.Runtime.st_pending;
    check_bool
      (Printf.sprintf "k=%d: result in envelope (%d)" k acc)
      true
      (acc >= 6 && acc <= 12);
    List.iter (fun x -> hit_ids := x.x_sp_id :: !hit_ids) (osr_xfers (events ()))
  done;
  check_bool "body records at least two safepoints" true (List.length !all_ids >= 2);
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "safepoint id %d exercised" id) true
        (List.mem id !hit_ids))
    !all_ids

let test_transfer_then_revert_round_trip () =
  let s = session spin_src in
  enable s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [ 40 ];
  park s "spin";
  ignore (Runtime.commit_safe s.runtime);
  (* step until the bind has transferred + drained, well before return *)
  let guard = ref 10_000 in
  while Runtime.pending s.runtime <> [] && !guard > 0 do
    decr guard;
    ignore (Machine.step s.machine)
  done;
  check_bool "bind drained mid-run" true (Runtime.pending s.runtime = []);
  check_int "forward transfer" 1 (Runtime.stats s.runtime).Runtime.st_osr_transfers;
  check_bool "variant installed mid-run" true
    (Runtime.installed_variant s.runtime "spin" <> None);
  (* now revert while the activation runs inside the variant body: the
     unbind defers (the installed body is live), the next safepoint
     transfers the activation *back* into the generic, and the unbind
     drains *)
  ignore (Runtime.revert_safe s.runtime);
  check_bool "revert deferred while variant live" true
    (Runtime.pending s.runtime <> []);
  let guard = ref 10_000 in
  while Runtime.pending s.runtime <> [] && !guard > 0 do
    decr guard;
    ignore (Machine.step s.machine)
  done;
  check_bool "unbind drained mid-run" true (Runtime.pending s.runtime = []);
  check_int "back transfer" 2 (Runtime.stats s.runtime).Runtime.st_osr_transfers;
  check_bool "back to generic mid-run" true
    (Runtime.installed_variant s.runtime "spin" = None);
  let acc = Machine.finish s.machine in
  (* m stayed 1 throughout, and the m=1 variant is semantically the
     generic with m=1: the round trip must not change the result *)
  check_int "round trip preserves semantics" 80 acc;
  check_int "no aborts" 0 (Runtime.stats s.runtime).Runtime.st_osr_aborts

let test_never_returning_body_drains_mid_flight () =
  (* a "never-returning" activation, approximated by a loop far longer
     than the test drives it: the pending set must drain to 0 while the
     activation is still live, via transfer — not at return *)
  let s = session spin_src in
  enable s;
  set_global s "m" 1;
  Machine.start_call s.machine "driver" [ 1_000_000 ];
  park s "spin";
  ignore (Runtime.commit_safe s.runtime);
  check_int "deferred" 1 (Runtime.stats s.runtime).Runtime.st_pending;
  let steps = ref 0 in
  while Runtime.pending s.runtime <> [] && !steps < 5_000 do
    incr steps;
    ignore (Machine.step s.machine)
  done;
  check_int "st_pending drains to 0 with the body still live" 0
    (Runtime.stats s.runtime).Runtime.st_pending;
  check_int "drained by transfer, not return" 1
    (Runtime.stats s.runtime).Runtime.st_osr_transfers

(* SMP: hart 0 parks inside the loop while hart 1 runs an independent
   workload; the deferring commit is issued from the host, and the
   draining safepoint on hart 0 runs its transfer inside the stop_machine
   rendezvous — with hart 1 parked mid-rendezvous. *)
let smp_src =
  {|
  multiverse bool m;
  int w;
  int z;
  void tick() { w = w + 1; }
  multiverse int spin(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
      tick();
      if (m) { acc = acc + 2; } else { acc = acc + 1; }
      i = i + 1;
    }
    return acc;
  }
  int driver(int n) { w = 0; return spin(n); }
  int other(int n) {
    int i = 0;
    while (i < n) { z = z + 1; i = i + 1; }
    return z;
  }
|}

let test_smp_transfer_under_rendezvous () =
  let s = Harness.session1 ~n_harts:2 ~seed:7 smp_src in
  Harness.enable_osr s;
  Harness.set s "m" 1;
  Harness.start s ~hart:0 "driver" [ 50 ];
  Harness.start s ~hart:1 "other" [ 200 ];
  (* interleave until hart 0 is inside spin *)
  let img = s.Harness.program.Core.Compiler.p_image in
  let spin_addr = Image.symbol img "spin" in
  let spin_size = Image.symbol_size img "spin" in
  let m0 = Smp.machine s.Harness.smp 0 in
  let guard = ref 100_000 in
  while
    (m0.Machine.pc < spin_addr || m0.Machine.pc >= spin_addr + spin_size)
    && !guard > 0
  do
    decr guard;
    ignore (Harness.step s)
  done;
  check_bool "hart 0 inside spin" true
    (m0.Machine.pc >= spin_addr && m0.Machine.pc < spin_addr + spin_size);
  let bound = Harness.commit_safe s in
  check_int "live spin not bound now" 0 bound;
  Harness.set s "m" 0;
  Harness.run s;
  let st = Runtime.stats s.Harness.runtime in
  check_bool "transferred on hart 0" true (st.Runtime.st_osr_transfers >= 1);
  check_int "journal drained" 0 st.Runtime.st_pending;
  (* hart 1's workload is untouched by the patching *)
  check_int "hart 1 result" 200 (Harness.result s ~hart:1);
  (* hart 0: iterations before the flip ran with m=1 (add 2), between flip
     and transfer generic m=0 (add 1), after the transfer the variant
     (add 2) — the result stays in the envelope *)
  let r0 = Harness.result s ~hart:0 in
  check_bool
    (Printf.sprintf "hart 0 result in envelope (%d)" r0)
    true
    (r0 >= 50 && r0 <= 100)

let suite =
  [
    tc "transfer unblocks a live loop" test_transfer_unblocks_live_loop;
    tc "transfer between two variants" test_transfer_between_variants;
    tc "a frame map outside the stack aborts the transfer" test_frame_map_outside_stack_aborts;
    tc "without OSR the set waits for return"
      test_without_osr_set_stays_pending_until_return;
    tc_slow "transfer at every safepoint offset"
      test_transfer_at_every_safepoint_offset;
    tc "transfer-then-revert round trip" test_transfer_then_revert_round_trip;
    tc "never-returning body drains mid-flight"
      test_never_returning_body_drains_mid_flight;
    tc "SMP transfer under rendezvous" test_smp_transfer_under_rendezvous;
  ]
