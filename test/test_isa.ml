(* ISA encoding tests.  The encoded sizes are load-bearing: the runtime's
   call-site patching assumes a 5-byte direct call (the paper's IA-32
   analogy), inlining budgets derive from them, and patch_rel32 rewrites
   fields in place. *)

open Util
module Insn = Mv_isa.Insn
module Encode = Mv_isa.Encode
module Decode = Mv_isa.Decode

let sample_insns : Insn.t list =
  [
    Insn.Mov_ri (3, 0x1122334455);
    Insn.Mov_ri (0, -42);
    Insn.Mov_rr (1, 2);
    Insn.Alu (Insn.Add, 1, 2, 3);
    Insn.Alu (Insn.Ge, 0, 1, 2);
    Insn.Alu_ri (Insn.Sub, 15, 15, 64);
    Insn.Alu_ri (Insn.Shl, 4, 5, -1);
    Insn.Un (Insn.Neg, 1, 2);
    Insn.Un (Insn.Lnot, 3, 3);
    Insn.Load (2, 15, 24, 8);
    Insn.Load (2, 1, -8, 4);
    Insn.Store (15, 16, 3, 8);
    Insn.Store (1, 0, 2, 1);
    Insn.Loadg (4, 0x2000, 2);
    Insn.Storeg (0x2008, 5, 4);
    Insn.Lea (6, 0x123456789);
    Insn.Call 1234;
    Insn.Call (-1234);
    Insn.Call_ind 0x2000;
    Insn.Jmp (-5);
    Insn.Jnz (3, 100);
    Insn.Jz (3, -100);
    Insn.Ret;
    Insn.Push 6;
    Insn.Pop 6;
    Insn.Cli;
    Insn.Sti;
    Insn.Pause;
    Insn.Fence;
    Insn.Xchg (1, 2, 3);
    Insn.Hypercall 2;
    Insn.Rdtsc 1;
    Insn.Halt;
    Insn.Nop;
  ]

let test_roundtrip () =
  List.iter
    (fun insn ->
      let b = Encode.encode insn in
      check_int
        (Mv_isa.Asm.insn_to_string insn ^ " size")
        (Insn.size insn) (Bytes.length b);
      let decoded, size = Decode.decode b ~off:0 in
      check_bool (Mv_isa.Asm.insn_to_string insn ^ " roundtrip") true (decoded = insn);
      check_int "decoded size" (Insn.size insn) size;
      check_bool "within max_size" true (size <= Insn.max_size))
    (Insn.Brk :: Insn.Mov_ri32 (1, -7) :: sample_insns)

let test_paper_sizes () =
  (* "On IA-32, a far-call site is 5 bytes large" — the inlining budget *)
  check_int "call is 5 bytes" 5 Insn.call_size;
  check_int "jmp is 5 bytes" 5 Insn.jmp_size;
  check_int "indirect call is 6 bytes" 6 (Insn.size (Insn.Call_ind 0));
  check_int "nop is 1 byte" 1 (Insn.size Insn.Nop);
  check_int "cli fits a call site" 1 (Insn.size Insn.Cli)

let test_sequence_encoding () =
  let seq = [ Insn.Cli; Insn.Call 0; Insn.Sti; Insn.Ret ] in
  let b, offsets = Encode.encode_seq seq in
  check_int "total size" (1 + 5 + 1 + 1) (Bytes.length b);
  check_bool "offsets" true (offsets = [| 0; 1; 6; 7 |]);
  let listing = Decode.decode_range b ~off:0 ~len:(Bytes.length b) in
  check_int "decode_range count" 4 (List.length listing)

let test_patch_rel32 () =
  let b = Encode.encode (Insn.Call 0) in
  (* pretend the call sits at absolute offset 0; retarget it to 0x1000 *)
  Encode.patch_rel32 b ~off:0 ~target:0x1000;
  check_int "patched target" 0x1000 (Encode.read_rel32_target b ~off:0);
  (match Decode.decode b ~off:0 with
  | Insn.Call rel, _ -> check_int "rel32 value" (0x1000 - 5) rel
  | _ -> Alcotest.fail "still a call");
  (* patching a non-call must be refused *)
  let r = Encode.encode Insn.Ret in
  match Encode.patch_rel32 r ~off:0 ~target:0 with
  | exception Encode.Encode_error _ -> ()
  | () -> Alcotest.fail "expected patch_rel32 to reject a ret"

let test_encode_validation () =
  let expect_reject insn =
    match Encode.encode insn with
    | exception Encode.Encode_error _ -> ()
    | _ -> Alcotest.fail "expected an encode error"
  in
  expect_reject (Insn.Mov_rr (16, 0));
  expect_reject (Insn.Mov_rr (0, -1));
  expect_reject (Insn.Alu_ri (Insn.Add, 0, 0, 1 lsl 40));
  expect_reject (Insn.Loadg (0, -1, 8));
  expect_reject (Insn.Loadg (0, 1 lsl 33, 8));
  expect_reject (Insn.Load (0, 0, 0, 3));
  expect_reject (Insn.Hypercall 999)

let test_decode_validation () =
  let expect_reject bytes =
    match Decode.decode bytes ~off:0 with
    | exception Decode.Decode_error _ -> ()
    | _ -> Alcotest.fail "expected a decode error"
  in
  expect_reject (Bytes.of_string "\x00");
  expect_reject (Bytes.of_string "\xff");
  (* bad register byte in mov_rr *)
  expect_reject (Bytes.of_string "\x02\x20\x00");
  (* bad width in load *)
  let bad_load = Encode.encode (Insn.Load (0, 0, 0, 8)) in
  Bytes.set bad_load 7 '\x05';
  expect_reject bad_load

let test_position_independence_classification () =
  check_bool "cli is PI" true (Insn.position_independent Insn.Cli);
  check_bool "storeg is PI" true (Insn.position_independent (Insn.Storeg (0, 0, 8)));
  check_bool "call is not PI" false (Insn.position_independent (Insn.Call 0));
  check_bool "jnz is not PI" false (Insn.position_independent (Insn.Jnz (0, 0)));
  check_bool "ret is not inlineable" false (Insn.position_independent Insn.Ret)

(* qcheck: arbitrary valid instructions round-trip *)
let arbitrary_insn : Insn.t QCheck.arbitrary =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let imm32 = int_range (-0x40000000) 0x3FFFFFFF in
  let abs32 = int_range 0 0x7FFFFFFF in
  let alu =
    oneofl
      [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Mod; Insn.Band; Insn.Bor;
        Insn.Bxor; Insn.Shl; Insn.Shr; Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le;
        Insn.Gt; Insn.Ge ]
  in
  let gen =
    oneof
      [
        map2 (fun r i -> Insn.Mov_ri (r, i)) reg int;
        map2 (fun a b -> Insn.Mov_rr (a, b)) reg reg;
        (let* op = alu and* d = reg and* a = reg and* b = reg in
         return (Insn.Alu (op, d, a, b)));
        (let* op = alu and* d = reg and* a = reg and* i = imm32 in
         return (Insn.Alu_ri (op, d, a, i)));
        (let* d = reg and* a = reg and* o = imm32 and* w = width in
         return (Insn.Load (d, a, o, w)));
        (let* a = reg and* o = imm32 and* s = reg and* w = width in
         return (Insn.Store (a, o, s, w)));
        (let* d = reg and* a = abs32 and* w = width in
         return (Insn.Loadg (d, a, w)));
        map (fun r -> Insn.Call r) imm32;
        map (fun r -> Insn.Jmp r) imm32;
        (let* r = reg and* rel = imm32 in
         return (Insn.Jnz (r, rel)));
        return Insn.Ret;
        return Insn.Nop;
        map (fun r -> Insn.Push r) reg;
      ]
  in
  QCheck.make ~print:Mv_isa.Asm.insn_to_string gen

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 arbitrary_insn (fun insn ->
      let b = Encode.encode insn in
      let decoded, size = Decode.decode b ~off:0 in
      decoded = insn && size = Bytes.length b)

let suite =
  [
    tc "sample instruction roundtrip" test_roundtrip;
    tc "paper-relevant sizes" test_paper_sizes;
    tc "sequence encoding" test_sequence_encoding;
    tc "patch_rel32" test_patch_rel32;
    tc "encode validation" test_encode_validation;
    tc "decode validation" test_decode_validation;
    tc "position-independence classification" test_position_independence_classification;
    (* pinned seed, QCHECK_SEED honoured — see test_props.ml *)
    Test_props.to_alcotest prop_roundtrip;
  ]
