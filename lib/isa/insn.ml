(* The virtual instruction set.

   Instructions are encoded into bytes with x86-like sizes; in particular a
   direct call is 5 bytes (opcode + rel32), matching the paper's footnote
   "On IA-32, a far-call site is 5 bytes large".  The multiverse runtime
   patches these encodings in place: call-site retargeting rewrites the
   rel32 of a [Call], prologue redirection overwrites the first bytes of the
   generic function with a 5-byte [Jmp], and small variant bodies are inlined
   into the call site with [Nop] padding (Figure 3 of the paper). *)

type reg = int  (** 0..15; r15 is the stack pointer *)

let num_regs = 16
let sp = 15

(** Scratch registers reserved by the register allocator for spill traffic. *)
let scratch0 = 13
let scratch1 = 14

type alu =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lnot | Bnot

type t =
  | Mov_ri of reg * int  (** load 64-bit immediate *)
  | Mov_ri32 of reg * int  (** load sign-extended 32-bit immediate (short form) *)
  | Mov_rr of reg * reg
  | Alu of alu * reg * reg * reg  (** rd <- ra op rb *)
  | Alu_ri of alu * reg * reg * int  (** rd <- ra op imm32 *)
  | Un of unop * reg * reg
  | Load of reg * reg * int * int  (** rd <- [ra + off32] (width) *)
  | Store of reg * int * reg * int  (** [ra + off32] <- rs (width) *)
  | Loadg of reg * int * int  (** rd <- [abs32] (width); global access *)
  | Storeg of int * reg * int  (** [abs32] <- rs (width) *)
  | Lea of reg * int  (** rd <- abs64 symbol address *)
  | Call of int  (** rel32, relative to the end of this instruction *)
  | Call_ind of int  (** call through the function pointer stored at [abs32] *)
  | Jmp of int  (** rel32 *)
  | Jnz of reg * int  (** branch if reg <> 0 *)
  | Jz of reg * int
  | Ret
  | Push of reg
  | Pop of reg
  | Cli
  | Sti
  | Pause
  | Fence
  | Xchg of reg * reg * reg  (** rd <- atomic exchange [ra] with rs *)
  | Hypercall of int  (** imm8 hypercall number *)
  | Rdtsc of reg
  | Halt
  | Nop
  | Brk  (** breakpoint trap byte, used by the cross-modifying text_poke *)

(* opcode assignments; keep stable, the runtime recognizes Call/Jmp/Nop *)
let opcode = function
  | Mov_ri _ -> 0x01
  | Mov_ri32 _ -> 0x1B
  | Mov_rr _ -> 0x02
  | Alu _ -> 0x03
  | Alu_ri _ -> 0x04
  | Un _ -> 0x05
  | Load _ -> 0x06
  | Store _ -> 0x07
  | Loadg _ -> 0x08
  | Storeg _ -> 0x09
  | Lea _ -> 0x0A
  | Call _ -> 0x0B
  | Call_ind _ -> 0x0C
  | Jmp _ -> 0x0D
  | Jnz _ -> 0x0E
  | Jz _ -> 0x0F
  | Ret -> 0x10
  | Push _ -> 0x11
  | Pop _ -> 0x12
  | Cli -> 0x13
  | Sti -> 0x14
  | Pause -> 0x15
  | Fence -> 0x16
  | Xchg _ -> 0x17
  | Hypercall _ -> 0x18
  | Rdtsc _ -> 0x19
  | Halt -> 0x1A
  | Brk -> 0x1C
  | Nop -> 0x90

(** Encoded size in bytes. *)
let size = function
  | Mov_ri _ -> 10
  | Mov_ri32 _ -> 6
  | Mov_rr _ -> 3
  | Alu _ -> 5
  | Alu_ri _ -> 8
  | Un _ -> 4
  | Load _ -> 8
  | Store _ -> 8
  | Loadg _ -> 7
  | Storeg _ -> 7
  | Lea _ -> 10
  | Call _ -> 5
  | Call_ind _ -> 6
  | Jmp _ -> 5
  | Jnz _ -> 7
  | Jz _ -> 7
  | Ret -> 1
  | Push _ -> 2
  | Pop _ -> 2
  | Cli -> 1
  | Sti -> 1
  | Pause -> 1
  | Fence -> 1
  | Xchg _ -> 4
  | Hypercall _ -> 2
  | Rdtsc _ -> 2
  | Halt -> 1
  | Brk -> 1
  | Nop -> 1

(** Size of a direct call instruction; the inlining threshold of the
    multiverse runtime (Section 4: "the function body of a variant is
    smaller than a call instruction"). *)
let call_size = size (Call 0)

let jmp_size = size (Jmp 0)

(** Longest encoding: the 64-bit-immediate forms ([Mov_ri], [Lea]). *)
let max_size = size (Mov_ri (0, 0))

let alu_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4
  | Band -> 5 | Bor -> 6 | Bxor -> 7 | Shl -> 8 | Shr -> 9
  | Eq -> 10 | Ne -> 11 | Lt -> 12 | Le -> 13 | Gt -> 14 | Ge -> 15

let alu_of_code = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Mod
  | 5 -> Band | 6 -> Bor | 7 -> Bxor | 8 -> Shl | 9 -> Shr
  | 10 -> Eq | 11 -> Ne | 12 -> Lt | 13 -> Le | 14 -> Gt | 15 -> Ge
  | n -> invalid_arg (Printf.sprintf "bad ALU code %d" n)

let unop_code = function Neg -> 0 | Lnot -> 1 | Bnot -> 2

let unop_of_code = function
  | 0 -> Neg
  | 1 -> Lnot
  | 2 -> Bnot
  | n -> invalid_arg (Printf.sprintf "bad unop code %d" n)

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Band -> "and" | Bor -> "or" | Bxor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Eq -> "seteq" | Ne -> "setne" | Lt -> "setlt" | Le -> "setle"
  | Gt -> "setgt" | Ge -> "setge"

let unop_name = function Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot"

(** Can this instruction be copied verbatim to a different address?  Anything
    with a pc-relative operand cannot; everything else is position
    independent.  Used by the runtime's call-site inliner. *)
let position_independent = function
  | Call _ | Jmp _ | Jnz _ | Jz _ -> false
  | Ret -> false  (* a ret would return from the caller instead *)
  | Mov_ri _ | Mov_ri32 _ | Mov_rr _ | Alu _ | Alu_ri _ | Un _ | Load _
  | Store _ | Loadg _ | Storeg _ | Lea _ | Call_ind _ | Push _ | Pop _ | Cli
  | Sti | Pause | Fence | Xchg _ | Hypercall _ | Rdtsc _ | Halt | Nop | Brk -> true
