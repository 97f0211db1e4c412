(** The virtual instruction set.

    Instructions encode to bytes with x86-like sizes; the sizes are
    load-bearing for the multiverse runtime: a direct call is 5 bytes (the
    paper's IA-32 far-call analogy and the default inlining budget), an
    unconditional jump is 5 bytes (the prologue redirection), an indirect
    call is 6, a nop is 1. *)

type reg = int
(** Machine register number, [0..15].  [r0..r5] pass arguments and [r0]
    returns the result; [r6..r12] are callee-saved; [r13]/[r14] are the
    allocator's spill scratch pair; [r15] is the stack pointer. *)

val num_regs : int
val sp : reg
val scratch0 : reg
val scratch1 : reg

type alu =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lnot | Bnot

type t =
  | Mov_ri of reg * int  (** load a full 64-bit immediate (10 bytes) *)
  | Mov_ri32 of reg * int  (** load a sign-extended imm32 (6 bytes) *)
  | Mov_rr of reg * reg
  | Alu of alu * reg * reg * reg  (** rd <- ra op rb *)
  | Alu_ri of alu * reg * reg * int  (** rd <- ra op imm32 *)
  | Un of unop * reg * reg
  | Load of reg * reg * int * int  (** rd <- \[ra + off32\] of given width *)
  | Store of reg * int * reg * int  (** \[ra + off32\] <- rs *)
  | Loadg of reg * int * int  (** rd <- \[abs32\]; global variable access *)
  | Storeg of int * reg * int  (** \[abs32\] <- rs *)
  | Lea of reg * int  (** rd <- absolute symbol address *)
  | Call of int  (** direct call; rel32 from the end of the instruction *)
  | Call_ind of int  (** call through the function pointer at \[abs32\] *)
  | Jmp of int  (** unconditional; rel32 *)
  | Jnz of reg * int  (** branch if register non-zero *)
  | Jz of reg * int  (** branch if register zero *)
  | Ret
  | Push of reg
  | Pop of reg
  | Cli  (** disable interrupts (privileged: faults in a PV guest) *)
  | Sti  (** enable interrupts (privileged) *)
  | Pause  (** spin-loop hint *)
  | Fence  (** full memory fence *)
  | Xchg of reg * reg * reg  (** rd <- atomic exchange \[ra\] with rs *)
  | Hypercall of int  (** trap to the hypervisor (faults on bare metal) *)
  | Rdtsc of reg  (** read the cycle counter *)
  | Halt
  | Nop
  | Brk
      (** breakpoint trap byte (opcode [0x1C]): faults unless the machine
          has a breakpoint handler installed.  The SMP text_poke protocol
          writes it over the first byte of a patch range so concurrent
          harts spin instead of decoding a torn instruction. *)

(** Opcode byte (stable; the runtime recognizes [Call]/[Jmp]/[Nop]). *)
val opcode : t -> int

(** Encoded size in bytes. *)
val size : t -> int

(** Size of a direct call: the paper's 5-byte patching granule and the
    default call-site inlining budget. *)
val call_size : int

val jmp_size : int

(** Longest encoding in bytes, the 64-bit-immediate forms ([Mov_ri],
    [Lea]): no instruction is larger, so a run of [n] instructions spans
    at most [n * max_size] bytes. *)
val max_size : int

val alu_code : alu -> int
val alu_of_code : int -> alu
val unop_code : unop -> int
val unop_of_code : int -> unop
val alu_name : alu -> string
val unop_name : unop -> string

(** Whether the instruction can be copied verbatim to another address.
    pc-relative transfers cannot; [Ret] is also excluded because inlining
    it into a call site would return from the caller. *)
val position_independent : t -> bool
