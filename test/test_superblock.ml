(* The superblock interpreter's contract (ARCHITECTURE §13): pre-decoded
   dispatch must be observationally identical to the reference
   fetch/decode interpreter — bit-identical simulated cycles, perf
   counters, and trace streams — and the decode cache must invalidate
   through exactly the text_poke/flush_icache paths: patches landing
   mid-block, at a block entry, and back-to-back under the SMP rendezvous
   all force a re-decode, and nothing else does. *)

open Util
module Machine = Mv_vm.Machine
module Perf = Mv_vm.Perf
module Smp = Mv_vm.Smp
module Runtime = Core.Runtime
module Harness = Mv_workloads.Harness
module Insn = Mv_isa.Insn
module Trace = Mv_obs.Trace

(* A workload with commits in the middle, so the comparison covers
   patching, icache flushes, branches, calls, and both multiverse
   variants — not just straight-line execution. *)
let mv_src =
  {|
  multiverse bool fast;
  int acc;
  multiverse int work(int n) {
    int s = 0;
    if (fast) {
      for (int i = 0; i < n; i = i + 1) { s = s + i; }
    } else {
      for (int i = 0; i < n; i = i + 1) { s = s + (i * 2); acc = acc + 1; }
    }
    return s;
  }
  int driver(int n) { return work(n) + work(n + 3); }
|}

(* Drive the same script — call, flip, commit, call, revert, call — on a
   fresh session through [fin] (either [Machine.finish] or
   [Machine.finish_ref]), collecting results, the final perf counters,
   and the machine-side trace stream timestamped by the cycle counter. *)
let run_script fin =
  let s = session mv_src in
  let events = ref [] in
  Machine.set_tracer s.machine
    (Some
       (fun e -> events := (Perf.cycles s.machine.Machine.perf, e) :: !events));
  let call fn args =
    Machine.start_call s.machine fn args;
    fin s.machine
  in
  let r1 = call "driver" [ 5 ] in
  set_global s "fast" 1;
  ignore (Runtime.commit s.runtime);
  let r2 = call "driver" [ 5 ] in
  ignore (Runtime.revert s.runtime);
  let r3 = call "driver" [ 7 ] in
  let p = Perf.snapshot s.machine.Machine.perf in
  ((r1, r2, r3), p, List.rev !events)

let test_bit_identity_vs_reference () =
  let rs, ps, evs = run_script Machine.finish in
  let rr, pr, evr = run_script Machine.finish_ref in
  let (a1, a2, a3), (b1, b2, b3) = (rs, rr) in
  check_int "result 1" b1 a1;
  check_int "result 2" b2 a2;
  check_int "result 3" b3 a3;
  if ps.Perf.s_cycles <> pr.Perf.s_cycles then
    Alcotest.failf "cycles diverge: superblock %.2f vs reference %.2f"
      ps.Perf.s_cycles pr.Perf.s_cycles;
  check_int "instructions" pr.Perf.s_instructions ps.Perf.s_instructions;
  check_int "branches" pr.Perf.s_branches ps.Perf.s_branches;
  check_int "mispredicts" pr.Perf.s_branch_mispredicts ps.Perf.s_branch_mispredicts;
  check_int "calls" pr.Perf.s_calls ps.Perf.s_calls;
  check_int "loads" pr.Perf.s_loads ps.Perf.s_loads;
  check_int "stores" pr.Perf.s_stores ps.Perf.s_stores;
  check_int "icache flushes" pr.Perf.s_icache_flushes ps.Perf.s_icache_flushes;
  check_int "trace stream length" (List.length evr) (List.length evs);
  List.iter2
    (fun (cs, es) (cr, er) ->
      check_bool "trace event equal" true (es = er);
      if cs <> cr then
        Alcotest.failf "trace timestamps diverge: %.2f vs %.2f" cs cr)
    evs evr

(* Per-instruction stepping (what the SMP scheduler uses) must agree with
   the reference stepper too, including the intermediate machine state. *)
let test_stepwise_identity () =
  let a = session mv_src and b = session mv_src in
  Machine.start_call a.machine "driver" [ 4 ];
  Machine.start_call b.machine "driver" [ 4 ];
  let more = ref true in
  let guard = ref 1_000_000 in
  while !more && !guard > 0 do
    decr guard;
    let ka = Machine.step a.machine and kb = Machine.step_ref b.machine in
    check_bool "both streams end together" ka kb;
    check_int "same pc" b.machine.Machine.pc a.machine.Machine.pc;
    if
      Perf.cycles a.machine.Machine.perf <> Perf.cycles b.machine.Machine.perf
    then
      Alcotest.failf "cycles diverge at pc 0x%x" a.machine.Machine.pc;
    more := ka
  done;
  check_bool "terminated" true (!guard > 0)

(* ------------------------------------------------------------------ *)
(* Invalidation edges                                                  *)
(* ------------------------------------------------------------------ *)

(* f(0) = 0 + 1 + 2 + 4 = 7, compiled as three immediate adds in one
   straight-line block (the opaque parameter defeats constant folding);
   we patch the middle add behind the runtime's back, then flush. *)
let straightline_src =
  {|
  int f(int x) {
    int a = x + 1;
    a = a + 2;
    a = a + 4;
    return a;
  }
|}

(* Find the encoded byte offset of the [Alu_ri Add, imm] instruction
   inside [f]'s body.  Decoding insn by insn keeps the test independent
   of exact codegen layout. *)
let find_insn img fn pred =
  let open Mv_link.Image in
  let base = symbol img fn in
  let size = symbol_size img fn in
  let rec scan off =
    if off >= size then Alcotest.fail "instruction not found in body"
    else
      let insn, len = Mv_isa.Decode.decode img.mem ~off:(base + off) in
      if pred insn then (base + off, len) else scan (off + len)
  in
  scan 0

let patch_imm_insn (s : Harness.session) name ~from_imm ~to_imm =
  let img = s.program.Core.Compiler.p_image in
  let addr, len =
    find_insn img name (function
      | Insn.Alu_ri (Insn.Add, _, _, imm) -> imm = from_imm
      | _ -> false)
  in
  let patched =
    match Mv_isa.Decode.decode img.Mv_link.Image.mem ~off:addr with
    | Insn.Alu_ri (op, rd, ra, _), _ -> Insn.Alu_ri (op, rd, ra, to_imm)
    | _ -> assert false
  in
  let bytes = Mv_isa.Encode.encode patched in
  assert (Bytes.length bytes = len);
  Mv_link.Image.mprotect img ~addr ~len Mv_link.Image.prot_rwx;
  Mv_link.Image.write_bytes img addr bytes;
  Mv_link.Image.mprotect img ~addr ~len Mv_link.Image.prot_rx;
  (addr, len)

let test_patch_mid_block () =
  let s = session straightline_src in
  check_int "original" 7 (run s "f" [ 0 ]);
  let ds = Machine.decode_stats s.machine in
  let blocks_before = ds.Machine.ds_blocks in
  (* patch [a + 2] to [a + 32] in the middle of the decoded block *)
  let addr, len = patch_imm_insn s "f" ~from_imm:2 ~to_imm:32 in
  check_int "stale block still returns 7" 7 (run s "f" [ 0 ]);
  check_int "no re-decode while stale" blocks_before ds.Machine.ds_blocks;
  Machine.flush_icache s.machine ~addr ~len;
  check_bool "flush invalidated at least one block" true
    (ds.Machine.ds_invalidated > 0);
  check_int "patched mid-block insn visible after flush" 37 (run s "f" [ 0 ]);
  check_bool "flush forced a re-decode" true (ds.Machine.ds_blocks > blocks_before)

let test_patch_at_block_entry () =
  let s = session "int f() { return 1; }" in
  let img = s.program.Core.Compiler.p_image in
  check_int "original" 1 (run s "f" []);
  let ds = Machine.decode_stats s.machine in
  let blocks_before = ds.Machine.ds_blocks in
  let f = Mv_link.Image.symbol img "f" in
  (* overwrite the block's first instruction: [mov32 r0, 1] -> [mov32 r0, 2] *)
  Mv_link.Image.mprotect img ~addr:f ~len:16 Mv_link.Image.prot_rwx;
  Mv_link.Image.write_bytes img f (Mv_isa.Encode.encode (Insn.Mov_ri32 (0, 2)));
  Mv_link.Image.mprotect img ~addr:f ~len:16 Mv_link.Image.prot_rx;
  check_int "stale entry still returns 1" 1 (run s "f" []);
  Machine.flush_icache s.machine ~addr:f ~len:16;
  check_int "patched entry visible after flush" 2 (run s "f" []);
  check_bool "entry patch forced a re-decode" true
    (ds.Machine.ds_blocks > blocks_before)

(* Re-decode happens after an invalidation and only then: repeated runs
   reuse the cached blocks, a commit (which flushes) rebuilds them. *)
let test_redecode_only_after_invalidation () =
  let s = session mv_src in
  ignore (run s "driver" [ 3 ]);
  let ds = Machine.decode_stats s.machine in
  let blocks1 = ds.Machine.ds_blocks and insns1 = ds.Machine.ds_insns in
  check_bool "first run decoded something" true (blocks1 > 0 && insns1 > 0);
  for _ = 1 to 5 do
    ignore (run s "driver" [ 3 ])
  done;
  check_int "no re-decode across repeated runs (blocks)" blocks1
    ds.Machine.ds_blocks;
  check_int "no re-decode across repeated runs (insns)" insns1
    ds.Machine.ds_insns;
  let invalidated1 = ds.Machine.ds_invalidated in
  set_global s "fast" 1;
  ignore (Runtime.commit s.runtime);
  check_bool "commit's flush dropped blocks" true
    (ds.Machine.ds_invalidated > invalidated1);
  ignore (run s "driver" [ 3 ]);
  check_bool "re-decode only after the invalidation" true
    (ds.Machine.ds_blocks > blocks1)

(* The poke_src twins from the SMP suite: seven/nine have identical
   encoded sizes, so one can be poked over the other. *)
let poke_src =
  {|
  int acc;
  int seven() { return 7; }
  int nine() { return 9; }
  void loop(int n) {
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + seven();
    }
  }
|}

let test_back_to_back_poke_under_rendezvous () =
  let s = Harness.session1 ~n_harts:2 poke_src in
  let smp = s.Harness.smp in
  let img = s.Harness.program.Core.Compiler.p_image in
  let seven = Mv_link.Image.symbol img "seven" in
  let size = Mv_link.Image.symbol_size img "seven" in
  let orig = Mv_link.Image.read_bytes img seven size in
  let nine_bytes =
    Mv_link.Image.read_bytes img (Mv_link.Image.symbol img "nine") size
  in
  (* warm the decode caches on hart 1, then stop it mid-loop *)
  Harness.start s ~hart:1 "loop" [ 8 ];
  for _ = 1 to 40 do
    ignore (Smp.step_hart smp 1)
  done;
  let m1 = Smp.machine smp 1 in
  let ds = Machine.decode_stats m1 in
  let invalidated0 = ds.Machine.ds_invalidated in
  (* two full text_pokes back to back on the same block: each runs the
     complete breakpoint-first protocol under the rendezvous, and each
     must invalidate the pre-decoded body on every hart *)
  Smp.text_poke smp ~addr:seven nine_bytes;
  check_bool "first poke dropped hart 1's decoded body" true
    (ds.Machine.ds_invalidated > invalidated0);
  (* let the hart run until it re-decodes the (now nine) body, so the
     second poke has a freshly built block to drop *)
  let blocks_after_poke1 = ds.Machine.ds_blocks in
  let guard = ref 10_000 in
  while ds.Machine.ds_blocks = blocks_after_poke1 && !guard > 0 do
    decr guard;
    ignore (Smp.step_hart smp 1)
  done;
  check_bool "hart re-decoded the patched body" true (!guard > 0);
  let invalidated1 = ds.Machine.ds_invalidated in
  Smp.text_poke smp ~addr:seven orig;
  check_bool "second poke invalidated again" true
    (ds.Machine.ds_invalidated > invalidated1);
  Harness.run s;
  (* each of the 8 calls returned exactly 7 or exactly 9 depending on
     which side of the pokes it ran — never a torn hybrid, never a
     fault *)
  let acc = Harness.get s "acc" in
  check_bool "no torn call result" true
    (acc >= 8 * 7 && acc <= 8 * 9 && (acc - (8 * 7)) mod 2 = 0)

(* ------------------------------------------------------------------ *)
(* Paged decode index: footprint and page boundaries                   *)
(* ------------------------------------------------------------------ *)

(* Major-heap words [f ()] allocates, counted from an empty minor heap so
   no promotion of earlier garbage lands in the window. *)
let major_words f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  ignore (Sys.opaque_identity (f ()));
  int_of_float ((Gc.quick_stat ()).Gc.major_words -. w0)

(* Decode state is paid for on first use: creating a machine, arming heat
   and creating a 4-hart container allocate the same whether the image
   reserves 64 KiB or 2 MiB of variant text, and stay small (what remains
   is the branch predictor's tables). *)
let test_decode_state_footprint () =
  let img vtext_size =
    (Core.Compiler.build_string ~vtext_size "int f(int x) { return x + 1; }")
      .Core.Compiler.p_image
  in
  let small = img (1 lsl 16) and large = img (1 lsl 21) in
  let check what ~harts measure =
    let ws = measure small and wl = measure large in
    check_int (what ^ ": same words for a 64 KiB and a 2 MiB reserve") ws wl;
    if ws >= harts * 16 * 1024 then
      Alcotest.failf "%s allocates %d major words (%d harts)" what ws harts
  in
  check "Machine.create" ~harts:1 (fun i -> major_words (fun () -> Machine.create i));
  check "enable_heat" ~harts:1 (fun i ->
      let m = Machine.create i in
      major_words (fun () -> Machine.enable_heat m));
  check "Smp.create" ~harts:4 (fun i -> major_words (fun () -> Smp.create ~n_harts:4 i))

(* [f] is one straight-line block of [boundary_adds] immediate adds
   (f(0) = 1 + 2 + ... + boundary_adds); [pad] adds in a function linked
   in front of it shift its address. *)
let boundary_adds = 40

let boundary_src ~pad =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int pad(int x) {\n  int a = x;\n";
  for i = 1 to pad do
    Printf.bprintf b "  a = a + %d;\n" (1000 + i)
  done;
  Buffer.add_string b "  return a;\n}\nint f(int x) {\n  int a = x;\n";
  for i = 1 to boundary_adds do
    Printf.bprintf b "  a = a + %d;\n" i
  done;
  Buffer.add_string b "  return a;\n}\n";
  Buffer.contents b

let boundary_sum = boundary_adds * (boundary_adds + 1) / 2

(* A session whose [f] block is entered in one index page and runs into
   the next, with the absolute address and immediate of the first add
   lying at least 15 bytes into the next page — far enough that a flush
   of that add (the machine widens every flush 15 bytes downwards for the
   per-instruction cache) touches only the tail page.  Found by growing
   [pad], so it holds whatever the code generator's exact layout. *)
let straddling_session () =
  let rec search pad =
    if pad > 400 then Alcotest.fail "no layout puts f across a page boundary";
    let s = session (boundary_src ~pad) in
    let img = s.program.Core.Compiler.p_image in
    let base = img.Mv_link.Image.text.Mv_link.Image.sr_base in
    let f = Mv_link.Image.symbol img "f" in
    let next_page = (((f - base) / Machine.page_size) + 1) * Machine.page_size in
    let rec scan addr =
      if addr >= f + Mv_link.Image.symbol_size img "f" then None
      else
        match Mv_isa.Decode.decode img.Mv_link.Image.mem ~off:addr with
        | Insn.Alu_ri (Insn.Add, _, _, imm), _ when addr - base >= next_page + 15 ->
            Some (addr, imm)
        | _, len -> scan (addr + len)
    in
    match scan f with Some (addr, imm) -> (s, f, addr, imm) | None -> search (pad + 8)
  in
  search 0

let test_flush_drops_block_across_page_boundary () =
  let s, _, _, imm = straddling_session () in
  check_int "original" boundary_sum (run s "f" [ 0 ]);
  let ds = Machine.decode_stats s.machine in
  check_int "f runs as one block" 1 ds.Machine.ds_blocks;
  let addr, len = patch_imm_insn s "f" ~from_imm:imm ~to_imm:(imm + 1000) in
  check_int "stale block still runs the old add" boundary_sum (run s "f" [ 0 ]);
  let invalidated = ds.Machine.ds_invalidated in
  Machine.flush_icache s.machine ~addr ~len;
  check_int "the tail-page flush dropped the block" (invalidated + 1)
    ds.Machine.ds_invalidated;
  check_int "patched add visible" (boundary_sum + 1000) (run s "f" [ 0 ]);
  check_int "re-decoded once" 2 ds.Machine.ds_blocks

let test_flush_ending_at_block_entry () =
  let s, f, _, _ = straddling_session () in
  check_int "original" boundary_sum (run s "f" [ 0 ]);
  let ds = Machine.decode_stats s.machine in
  let blocks = ds.Machine.ds_blocks and invalidated = ds.Machine.ds_invalidated in
  Machine.flush_icache s.machine ~addr:(f - 8) ~len:8;
  check_int "block ending the window survives" invalidated ds.Machine.ds_invalidated;
  check_int "same result" boundary_sum (run s "f" [ 0 ]);
  check_int "no re-decode" blocks ds.Machine.ds_blocks

let test_heat_survives_boundary_flush () =
  let s, f, addr, _ = straddling_session () in
  Machine.enable_heat s.machine;
  for _ = 1 to 3 do
    ignore (run s "f" [ 0 ])
  done;
  let hits () =
    match List.find_opt (fun (lo, _, _, _) -> lo = f) (Machine.heat_blocks s.machine) with
    | Some (_, _, n, _) -> n
    | None -> 0
  in
  check_int "three entries counted" 3 (hits ());
  let ds = Machine.decode_stats s.machine in
  let invalidated = ds.Machine.ds_invalidated in
  Machine.flush_icache s.machine ~addr ~len:8;
  check_int "block dropped" (invalidated + 1) ds.Machine.ds_invalidated;
  check_int "hits survive the drop" 3 (hits ());
  ignore (run s "f" [ 0 ]);
  check_int "the rebuilt block counts on" 4 (hits ())

(* The code span ends where the static text or the variant-text reserve
   ends, whichever is later; the first byte past it faults as before on
   both steppers, the last byte inside does not hit that bound. *)
let test_fetch_past_code_span () =
  let s = session "int f() { return 1; }" in
  let img = s.program.Core.Compiler.p_image in
  let open Mv_link.Image in
  let text_end = img.text.sr_base + img.text.sr_size in
  let span_end =
    if img.vtext.sr_size > 0 then max text_end (img.vtext.sr_base + img.vtext.sr_size)
    else text_end
  in
  let fault_at stepper pc =
    Machine.start_call_addr s.machine pc [];
    match stepper s.machine with exception Machine.Fault m -> Some m | exception _ -> None | _ -> None
  in
  let outside pc = Some (Printf.sprintf "instruction fetch outside text at 0x%x" pc) in
  check_bool "step: one byte past the span" true (fault_at Machine.step span_end = outside span_end);
  check_bool "step_ref: one byte past the span" true
    (fault_at Machine.step_ref span_end = outside span_end);
  check_bool "step: last byte inside the span" true
    (fault_at Machine.step (span_end - 1) <> outside (span_end - 1));
  check_bool "step_ref: last byte inside the span" true
    (fault_at Machine.step_ref (span_end - 1) <> outside (span_end - 1))

(* ------------------------------------------------------------------ *)
(* The hot loop allocates nothing                                      *)
(* ------------------------------------------------------------------ *)

(* Minor words per simulated instruction of [run ()], measured on the
   second of two runs so that block decoding and frame-stack growth stay
   in the first.  [start ()] prepares each run outside the window. *)
let words_per_insn ~insns ~start ~run =
  start ();
  run ();
  start ();
  let i0 = insns () in
  let w0 = Gc.minor_words () in
  run ();
  let w = Gc.minor_words () -. w0 in
  w /. float_of_int (insns () - i0)

let check_alloc_free what wpi =
  if wpi >= 0.01 then
    Alcotest.failf "%s allocates %.3f minor words per simulated instruction" what wpi

(* The guest-exec loops (the paper's spinlock, musl and pvops loops) on
   unicore sessions, through both the superblock path and the reference
   stepper it is compared with, and the contended spinlock on four harts
   with safe commit armed: once the blocks are built, stepping allocates
   nothing — no boxed cycle counter, cursor option, frame cons or
   scheduler list.  A boxed field added to the hot path fails here, not
   only in a host-time figure. *)
let test_hot_loop_allocates_nothing () =
  let module W = Mv_workloads in
  let insns (m : Machine.t) () = m.Machine.perf.Perf.instructions in
  let loop what (s : Harness.session) fn n =
    let m = s.Harness.machine in
    List.iter
      (fun (path, finish) ->
        check_alloc_free (what ^ ", " ^ path)
          (words_per_insn ~insns:(insns m)
             ~start:(fun () -> Machine.start_call m fn [ n ])
             ~run:(fun () -> ignore (finish m))))
      [ ("superblocks", Machine.finish); ("reference stepper", Machine.finish_ref) ]
  in
  List.iter
    (fun smp ->
      let s = Harness.session1 (W.Spinlock.source W.Spinlock.Multiverse) in
      Harness.set s "config_smp" smp;
      ignore (Harness.commit s);
      loop (Printf.sprintf "spinlock (config_smp=%d)" smp) s "bench_loop" 3000)
    [ 0; 1 ];
  let musl = W.Musl.prepare W.Musl.Multiversed ~threads:0 in
  loop "musl random" musl "bench_random" 2000;
  loop "musl malloc(1)" musl "bench_malloc1" 1500;
  loop "musl fputc" musl "bench_fputc" 2000;
  let pv = Harness.session1 (W.Pvops.source W.Pvops.Multiverse) in
  W.Pvops.boot pv W.Pvops.Multiverse Machine.Native;
  loop "pvops" pv "bench_loop" 3000;
  let n_harts = 4 in
  let s = Harness.session1 ~n_harts W.Spinlock.contended_source in
  Harness.set s "config_smp" 1;
  ignore (Harness.commit s);
  let harts = List.init n_harts (Smp.machine s.Harness.smp) in
  check_alloc_free "the 4-hart contended spinlock"
    (words_per_insn
       ~insns:(fun () -> List.fold_left (fun a m -> a + insns m ()) 0 harts)
       ~start:(fun () ->
         for h = 0 to n_harts - 1 do
           Harness.start s ~hart:h "worker" [ 200 ]
         done)
       ~run:(fun () -> Harness.run s))

(* ------------------------------------------------------------------ *)
(* Domain-parallel fuzzing determinism                                 *)
(* ------------------------------------------------------------------ *)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_corpus dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mv-sbtest-%d" (Unix.getpid ()))
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    let d = Printf.sprintf "%s-%d" dir !counter in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  in
  Fun.protect
    ~finally:(fun () ->
      for i = 1 to !counter do
        let d = Printf.sprintf "%s-%d" dir i in
        if Sys.file_exists d then begin
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d
        end
      done)
    (fun () -> f fresh)

let test_parallel_fuzz_determinism () =
  with_tmp_dir (fun fresh ->
      let campaign ~domains ~dir =
        Mv_fuzz.Driver.run_parallel ~cfg:Mv_fuzz.Gen.small_cfg
          ~chaos:Mv_fuzz.Oracle.Skip_flush ~keep_going:true ~shrink_budget:8
          ~corpus_dir:dir ~domains ~seed:1 ~iters:4 ()
      in
      let d1 = fresh () and d2 = fresh () in
      let s1 = campaign ~domains:1 ~dir:d1 in
      let s2 = campaign ~domains:2 ~dir:d2 in
      check_int "same case count" s1.Mv_fuzz.Driver.s_tested
        s2.Mv_fuzz.Driver.s_tested;
      let seeds s =
        List.map (fun r -> r.Mv_fuzz.Driver.rp_seed) s.Mv_fuzz.Driver.s_reports
      in
      check_bool "chaos campaign found divergences" true (seeds s1 <> []);
      check_bool "same divergent seeds in the same order" true
        (seeds s1 = seeds s2);
      let c1 = read_corpus d1 and c2 = read_corpus d2 in
      check_bool "merged corpus is byte-for-byte identical" true (c1 = c2))

(* ------------------------------------------------------------------ *)
(* The flush scan reaches back exactly the longest block               *)
(* ------------------------------------------------------------------ *)

(* [f] is straight-line code past the 64-instruction cap, so its entry
   block is as long as a block can be in instructions; [pad], linked in
   front of it, puts code before its entry. *)
let long_adds = 80

let long_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int pad(int x) {\n  int a = x;\n  a = a + 1001;\n  return a;\n}\n";
  Buffer.add_string b "int f(int x) {\n  int a = x;\n";
  for i = 1 to long_adds do
    Printf.bprintf b "  a = a + %d;\n" i
  done;
  Buffer.add_string b "  return a;\n}\n";
  Buffer.contents b

let long_sum = long_adds * (long_adds + 1) / 2

(* The flush scan looks back only as far as the longest block the
   machine has built.  Flushing the last byte of f's 64-instruction
   entry block, which starts that far before the flushed window, drops
   it, and the add patched there is seen by [step] and [step_ref] alike;
   a flush ending just before the block's entry keeps it, and both
   steppers still agree. *)
let test_flush_reaches_the_longest_block () =
  let drive ~superblocks =
    let fin = if superblocks then Machine.finish else Machine.finish_ref in
    let s = session long_src in
    let img = s.program.Core.Compiler.p_image in
    let f = Mv_link.Image.symbol img "f" in
    (* f's entry block: its first 64 instructions, [last] the 64th *)
    let rec walk addr n last =
      if n = 0 then (addr, last)
      else
        let _, len = Mv_isa.Decode.decode img.Mv_link.Image.mem ~off:addr in
        walk (addr + len) (n - 1) addr
    in
    let hi, last = walk f 64 f in
    Machine.enable_heat s.machine;
    let ds = Machine.decode_stats s.machine in
    let call () =
      Machine.start_call s.machine "f" [ 0 ];
      let r = fin s.machine in
      (r, Perf.cycles s.machine.Machine.perf)
    in
    let before = call () in
    (* on the superblock path, the machine built exactly that block *)
    if superblocks then begin
      check_bool "f's entry block spans 64 instructions" true
        (List.mem (f, hi, 1, 64) (Machine.heat_blocks s.machine));
      check_int "it is the longest block built" (hi - f) s.machine.Machine.sb_max_span
    end;
    let invalidated = ds.Machine.ds_invalidated in
    Machine.flush_icache s.machine ~addr:(f - 8) ~len:8;
    check_int "a flush ending at the entry keeps the block" invalidated
      ds.Machine.ds_invalidated;
    let kept = call () in
    let imm =
      match Mv_isa.Decode.decode img.Mv_link.Image.mem ~off:last with
      | Insn.Alu_ri (Insn.Add, _, _, imm), _ -> imm
      | _ -> Alcotest.fail "the block's last instruction is not an add"
    in
    let patched_at, _ = patch_imm_insn s "f" ~from_imm:imm ~to_imm:(imm + 1000) in
    check_int "the patch lands on the block's last instruction" last patched_at;
    Machine.flush_icache s.machine ~addr:(hi - 1) ~len:1;
    if superblocks then
      check_int "a flush of its last byte drops it" (invalidated + 1)
        ds.Machine.ds_invalidated;
    let patched = call () in
    check_int "unpatched" long_sum (fst before);
    check_int "kept" long_sum (fst kept);
    check_int "patched add visible" (long_sum + 1000) (fst patched);
    [ before; kept; patched ]
  in
  Alcotest.(check (list (pair int (float 0.))))
    "step and step_ref agree" (drive ~superblocks:false) (drive ~superblocks:true)

let suite =
  [
    tc "superblock vs reference: results, counters, trace" test_bit_identity_vs_reference;
    tc "stepwise identity (SMP's single-instruction step)" test_stepwise_identity;
    tc "patch landing mid-block" test_patch_mid_block;
    tc "patch at a block entry" test_patch_at_block_entry;
    tc "re-decode only after invalidation" test_redecode_only_after_invalidation;
    tc "back-to-back text_poke under the rendezvous" test_back_to_back_poke_under_rendezvous;
    tc "decode state costs O(1) in the code span" test_decode_state_footprint;
    tc "flush of a block's tail page drops it" test_flush_drops_block_across_page_boundary;
    tc "flush ending at a block entry keeps it" test_flush_ending_at_block_entry;
    tc "heat survives a page-boundary flush" test_heat_survives_boundary_flush;
    tc "fetch past the code span faults" test_fetch_past_code_span;
    tc_slow "parallel fuzzing is deterministic" test_parallel_fuzz_determinism;
    tc "the hot loop allocates nothing" test_hot_loop_allocates_nothing;
    tc "flush reaches back to the longest block" test_flush_reaches_the_longest_block;
  ]
