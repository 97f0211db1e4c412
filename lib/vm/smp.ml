(* The SMP container: N harts (each a full [Machine.t] — registers, call
   stack, branch predictor, decode cache) sharing one linked image, driven
   by a deterministic seed-parameterized scheduler.

   Everything the cross-modifying-code story needs lives here:

   - a stop_machine-style rendezvous (IPI post + ack handshake): the
     initiator posts a stop request to every running hart; a hart acks —
     and parks — the next time it is scheduled with interrupts enabled, so
     interrupts-off critical sections delay the ack, which is exactly the
     latency source the rendezvous bench measures;

   - a breakpoint-first [text_poke] (the Linux protocol): first byte of
     the patch range becomes [Brk] (flush), then the tail bytes are
     written (flush), then the real first byte (flush).  A hart that
     fetches mid-poke decodes the trap byte and spins in place instead of
     decoding a torn instruction;

   - per-hart icache coherence: every text mutation flushes every hart's
     decode cache (a chaos hook can break one hart's channel to prove the
     differential oracles catch the resulting staleness).

   One hart with the default policy is bit-identical to a plain
   [Machine.t]: same stack base, same cycle charges, no events. *)

module Image = Mv_link.Image

(** Scheduling policy.  [Round_robin] cycles a cursor over the runnable
    harts; [Weighted_random] picks runnable hart [i] with probability
    proportional to [w.(i)] (missing entries default to weight 1; if every
    runnable hart has weight 0 the lowest-numbered one runs, so weights
    starve harts only while a competitor is runnable). *)
type policy = Round_robin | Weighted_random of int array

(* An in-progress breakpoint-first patch.  [phase] counts completed
   protocol steps: 0 = Brk byte is live, 1 = tail bytes written (Brk still
   live), 2 = real first byte restored — done. *)
type poke = {
  p_addr : int;
  p_bytes : bytes;
  mutable p_phase : int;
}

type t = {
  image : Image.t;
  harts : Machine.t array;
  policy : policy;
  seed : int;
  mutable rng : int;
  mutable rr : int;  (* round-robin cursor: last hart it scheduled *)
  parked : bool array;  (* acked a rendezvous; not schedulable *)
  ipi_pending : bool array;
  ipi_sent_at : float array;  (* clock reading at post, for ack latency *)
  mutable rendezvous_active : bool;
  mutable rdv_begin_clock : float;
  mutable rdv_initiator : int;
  mutable rdv_id : int;  (* correlation id of the active (or last) rendezvous *)
  mutable next_rdv : int;  (* id generator *)
  mutable rdv_last_ack : int;  (* straggler: hart whose ack arrived last *)
  mutable cur : int;
      (* the hart that last received a scheduling slot — the attribution
         target for host-driven events (commits, flushes initiated by the
         runtime) that do not name a hart themselves *)
  mutable drop_ack : int option;
      (* chaos: this hart's IPI channel is broken — it is never posted a
         stop request and text flushes skip its icache *)
  mutable slow_ack : (int * int) option;
      (* chaos: (hart, budget) — the victim burns [budget] scheduling
         slots executing instead of acking, a deterministic straggler *)
  mutable poke : poke option;
  mutable tracer : Mv_obs.Trace.sink option;
  (* stats for the bench rows *)
  mutable ipis_sent : int;
  mutable ipi_acks : int;
  mutable rendezvous_count : int;
  mutable rendezvous_cycles : float;
}

(** Bytes of stack carved out per hart below the image's stack base.
    Hart 0 keeps the image default (single-hart bit-identity); hart [i]
    tops out [i] slices lower. *)
let hart_stack_bytes = 65536

let n_harts t = Array.length t.harts
let machine t i = t.harts.(i)

(** Total simulated work: the sum of every hart's cycle counter.  This is
    the deterministic, monotonic clock the IPI/rendezvous latencies are
    measured on (there is no global wall clock in a simulator that steps
    one hart at a time).  The loop reads each hart's [Perf.clock] field
    directly, so the only allocation is the boxed result: a fold, or a
    call to [Perf.cycles], would box every hart's reading. *)
let clock t =
  let sum = ref 0.0 in
  for i = 0 to Array.length t.harts - 1 do
    sum := !sum +. t.harts.(i).Machine.perf.Perf.clock.Perf.cycles
  done;
  !sum

let emit t ev = match t.tracer with None -> () | Some sink -> sink ev

let create ?(policy = Round_robin) ?(seed = 1) ?platform ?max_steps ~n_harts
    (image : Image.t) : t =
  if n_harts < 1 then invalid_arg "Smp.create: need at least one hart";
  let mk i =
    Machine.create ?platform ?max_steps ~hart_id:i
      ~stack_base:(image.Image.stack_base - (i * hart_stack_bytes))
      image
  in
  let t =
    {
      image;
      harts = Array.init n_harts mk;
      policy;
      seed;
      rng = (seed * 2654435761) land 0x3FFFFFFFFFFFFFF;
      rr = n_harts - 1;
      parked = Array.make n_harts false;
      ipi_pending = Array.make n_harts false;
      ipi_sent_at = Array.make n_harts 0.0;
      rendezvous_active = false;
      rdv_begin_clock = 0.0;
      rdv_initiator = 0;
      rdv_id = 0;
      next_rdv = 0;
      rdv_last_ack = -1;
      cur = 0;
      drop_ack = None;
      slow_ack = None;
      poke = None;
      tracer = None;
      ipis_sent = 0;
      ipi_acks = 0;
      rendezvous_count = 0;
      rendezvous_cycles = 0.0;
    }
  in
  (* a hart that fetches the poke's trap byte spins until the protocol
     finishes; a Brk anywhere else is a genuine fault *)
  Array.iter
    (fun m ->
      Machine.set_brk_handler m
        (Some
           (fun pc ->
             match t.poke with
             | Some p when p.p_phase < 2 && pc = p.p_addr -> true
             | _ -> false)))
    t.harts;
  t

let set_drop_ack t victim = t.drop_ack <- victim
let set_slow_ack t victim = t.slow_ack <- victim
let current_hart t = t.cur

let set_tracer t sink =
  t.tracer <- sink;
  Array.iter (fun m -> Machine.set_tracer m sink) t.harts

let set_safepoint t hook = Array.iter (fun m -> Machine.set_safepoint m hook) t.harts

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let running t i = t.harts.(i).Machine.pc <> Machine.return_sentinel
let runnable t i = running t i && not t.parked.(i)

(* 48-bit LCG (the drand48 multiplier): deterministic per seed, cheap,
   and independent of OCaml's global Random state. *)
let rand_below t n =
  t.rng <- ((t.rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  (t.rng lsr 17) mod n

let weight t i =
  match t.policy with
  | Round_robin -> 1
  | Weighted_random w -> if i < Array.length w then max 0 w.(i) else 1

(* Round robin: the first hart other than [exclude] that can run, in
   cyclic order after [rr] — one scan, which reaches [rr] itself last. *)
let rec rr_scan t ~exclude k =
  let n = Array.length t.harts in
  if k > n then -1
  else
    let j = (t.rr + k) mod n in
    if j <> exclude && runnable t j then j else rr_scan t ~exclude (k + 1)

(* Weighted random: the ascending walk over the candidates, to the first
   whose cumulative weight exceeds the draw [r]. *)
let rec weighted_walk t ~exclude r acc i =
  if i <> exclude && runnable t i then
    let acc = acc + weight t i in
    if r < acc then i else weighted_walk t ~exclude r acc (i + 1)
  else weighted_walk t ~exclude r acc (i + 1)

(* Pick the next hart to run among the runnable ones other than [exclude]
   (-1 excludes none), according to the policy; -1 when none can run.  A
   lone candidate runs without a draw.  Runs once per simulated step, so
   it allocates nothing. *)
let pick t ~exclude =
  match t.policy with
  | Round_robin ->
      let i = rr_scan t ~exclude 1 in
      if i >= 0 then t.rr <- i;
      i
  | Weighted_random _ ->
      let count = ref 0 and total = ref 0 and first = ref (-1) in
      for i = n_harts t - 1 downto 0 do
        if i <> exclude && runnable t i then begin
          incr count;
          total := !total + weight t i;
          first := i
        end
      done;
      if !count < 2 || !total = 0 then !first
      else weighted_walk t ~exclude (rand_below t !total) 0 0

let ack t i =
  t.ipi_pending.(i) <- false;
  t.parked.(i) <- true;
  t.ipi_acks <- t.ipi_acks + 1;
  t.rdv_last_ack <- i;
  emit t
    (Mv_obs.Trace.Ipi_ack
       {
         rdv = t.rdv_id;
         hart = i;
         wait = clock t -. t.ipi_sent_at.(i);
         at = t.harts.(i).Machine.pc;
       });
  emit t
    (Mv_obs.Trace.Causal_edge
       { edge = "ipi"; id = t.rdv_id; src_hart = t.rdv_initiator; dst_hart = i })

(* The slow-ack chaos victim keeps executing for [budget] more slots
   before acknowledging — a deterministic straggler for the blame
   report. *)
let slow_ack_defers t i =
  match t.slow_ack with
  | Some (victim, budget) when victim = i && budget > 0 ->
      t.slow_ack <- Some (victim, budget - 1);
      true
  | _ -> false

(** Give hart [i] one scheduling slot: if it owes a rendezvous ack and
    interrupts are enabled it acks (and parks) instead of executing;
    otherwise it executes one instruction.  Returns [false] when the hart
    was not runnable (halted or parked) and nothing happened. *)
let step_hart t i =
  if not (runnable t i) then false
  else begin
    t.cur <- i;
    let m = t.harts.(i) in
    if t.ipi_pending.(i) && m.Machine.irq_enabled && not (slow_ack_defers t i)
    then ack t i
    else ignore (Machine.step m);
    true
  end

(** One global scheduler step: pick a runnable hart by policy and give it
    a slot.  [false] when every hart is halted (or parked). *)
let step t =
  let i = pick t ~exclude:(-1) in
  i >= 0 && step_hart t i

(** Drive the whole system until no hart is runnable. *)
let run t =
  while step t do
    ()
  done

let start_call t ~hart name args = Machine.start_call t.harts.(hart) name args
let result t ~hart = t.harts.(hart).Machine.regs.(0)

(* ------------------------------------------------------------------ *)
(* The rendezvous (stop_machine)                                       *)
(* ------------------------------------------------------------------ *)

(** [true] once every posted stop request has been acknowledged. *)
let rendezvous_complete t = not (Array.exists Fun.id t.ipi_pending)

(** Post stop requests for a rendezvous initiated by [initiator]: every
    other running hart is sent an IPI (halted harts are already quiescent
    and owe nothing).  Returns the number of harts that must ack.  Drive
    the acks with {!step_hart}/{!step} — or use {!stop_machine}, which
    does all of this — then apply the patch with {!rendezvous_finish}. *)
let rendezvous_post t ~initiator =
  if t.rendezvous_active then invalid_arg "Smp.rendezvous_post: already active";
  t.rendezvous_active <- true;
  t.rdv_initiator <- initiator;
  t.rdv_begin_clock <- clock t;
  t.rendezvous_count <- t.rendezvous_count + 1;
  t.rdv_id <- t.next_rdv;
  t.next_rdv <- t.next_rdv + 1;
  t.rdv_last_ack <- -1;
  let waiting = ref 0 in
  Array.iteri
    (fun i _ ->
      if i <> initiator && running t i && t.drop_ack <> Some i then begin
        t.ipi_pending.(i) <- true;
        t.ipi_sent_at.(i) <- clock t;
        t.ipis_sent <- t.ipis_sent + 1;
        incr waiting;
        emit t
          (Mv_obs.Trace.Ipi_send { rdv = t.rdv_id; from_hart = initiator; to_hart = i })
      end)
    t.harts;
  emit t (Mv_obs.Trace.Rendezvous_begin { rdv = t.rdv_id; initiator; waiting = !waiting });
  !waiting

(** Apply [f] at the gathered rendezvous and release every hart.  Raises
    if some ack is still outstanding. *)
let rendezvous_finish t f =
  if not t.rendezvous_active then invalid_arg "Smp.rendezvous_finish: not active";
  if not (rendezvous_complete t) then
    raise (Machine.Fault "rendezvous_finish: acks outstanding");
  let acks = ref 0 in
  Array.iteri (fun i p -> if p && i <> t.rdv_initiator then incr acks) t.parked;
  let finally () =
    Array.fill t.parked 0 (Array.length t.parked) false;
    t.rendezvous_active <- false
  in
  Fun.protect ~finally (fun () ->
      let r = f () in
      let latency = clock t -. t.rdv_begin_clock in
      t.rendezvous_cycles <- t.rendezvous_cycles +. latency;
      emit t
        (Mv_obs.Trace.Rendezvous_end
           { rdv = t.rdv_id; initiator = t.rdv_initiator; acks = !acks; latency });
      (* the straggler's ack is what released the rendezvous *)
      if !acks > 0 && t.rdv_last_ack >= 0 then
        emit t
          (Mv_obs.Trace.Causal_edge
             {
               edge = "rendezvous";
               id = t.rdv_id;
               src_hart = t.rdv_last_ack;
               dst_hart = t.rdv_initiator;
             });
      r)

(* Harts still owing an ack are either executing (step them until they
   reach an interrupts-enabled scheduling slot) or have halted since the
   post (quiescent by definition: ack on their behalf). *)
let rendezvous_drive t =
  let budget = ref 10_000_000 in
  while not (rendezvous_complete t) do
    decr budget;
    if !budget < 0 then
      raise (Machine.Fault "rendezvous: harts failed to ack (deadlock)");
    Array.iteri
      (fun i pending -> if pending && not (running t i) then ack t i)
      t.ipi_pending;
    if not (rendezvous_complete t) then begin
      let i = pick t ~exclude:t.rdv_initiator in
      if i < 0 then raise (Machine.Fault "rendezvous: no runnable hart left to ack");
      ignore (step_hart t i)
    end
  done

(** [stop_machine t f] runs [f] with every other hart parked at an
    interrupts-enabled instruction boundary — the kernel's stop_machine.
    Re-entrant: a nested call (e.g. a safepoint drain triggered while a
    rendezvous holds the system) runs [f] directly under the outer
    rendezvous' protection.  Initiated by hart 0 by convention (patching
    is driven from the boot hart, as in the paper's kernel use case). *)
let stop_machine t f =
  if t.rendezvous_active then f ()
  else begin
    ignore (rendezvous_post t ~initiator:0);
    (try rendezvous_drive t
     with e ->
       (* release whatever parked so the machine is not wedged *)
       Array.fill t.parked 0 (Array.length t.parked) false;
       Array.fill t.ipi_pending 0 (Array.length t.ipi_pending) false;
       t.rendezvous_active <- false;
       raise e);
    rendezvous_finish t f
  end

(* ------------------------------------------------------------------ *)
(* Cross-modifying text writes (text_poke)                             *)
(* ------------------------------------------------------------------ *)

(** Flush the patched range out of every hart's decode cache (the chaos
    victim's broken channel is skipped, modelling a missed flush IPI). *)
let flush_icache t ~addr ~len =
  Array.iteri
    (fun i m -> if t.drop_ack <> Some i then Machine.flush_icache m ~addr ~len)
    t.harts

let brk_byte = Char.chr (Mv_isa.Insn.opcode Mv_isa.Insn.Brk)

let poke_write t ~addr (b : bytes) =
  let len = Bytes.length b in
  let restore_to = Image.prot_at t.image addr in
  Image.mprotect t.image ~addr ~len Image.prot_rwx;
  Fun.protect
    ~finally:(fun () -> Image.mprotect t.image ~addr ~len restore_to)
    (fun () -> Image.write_bytes t.image addr b)

(** Begin a breakpoint-first patch of [bytes] at [addr]: the first byte of
    the range becomes [Brk] and every hart's icache drops it, so any hart
    arriving at [addr] spins on the trap instead of decoding a torn
    instruction.  Advance with {!text_poke_step}. *)
let text_poke_start t ~addr (b : bytes) =
  if t.poke <> None then invalid_arg "Smp.text_poke_start: poke in progress";
  if Bytes.length b = 0 then invalid_arg "Smp.text_poke_start: empty patch";
  t.poke <- Some { p_addr = addr; p_bytes = b; p_phase = 0 };
  poke_write t ~addr (Bytes.make 1 brk_byte);
  flush_icache t ~addr ~len:1

(** Run the next phase of the in-progress poke; [true] once the real
    first byte is live and the poke is finished. *)
let text_poke_step t =
  match t.poke with
  | None -> invalid_arg "Smp.text_poke_step: no poke in progress"
  | Some p when p.p_phase = 0 ->
      (* tail bytes land while the trap byte still guards the entry *)
      let len = Bytes.length p.p_bytes in
      if len > 1 then begin
        poke_write t ~addr:(p.p_addr + 1) (Bytes.sub p.p_bytes 1 (len - 1));
        flush_icache t ~addr:(p.p_addr + 1) ~len:(len - 1)
      end;
      p.p_phase <- 1;
      false
  | Some p ->
      poke_write t ~addr:p.p_addr (Bytes.sub p.p_bytes 0 1);
      flush_icache t ~addr:p.p_addr ~len:1;
      p.p_phase <- 2;
      t.poke <- None;
      true

(** The whole protocol, synchronously: Brk first byte, tail bytes, real
    first byte, with per-hart flushes between phases.  This is the writer
    the runtime's patch layer routes every text mutation through. *)
let text_poke t ~addr b =
  text_poke_start t ~addr b;
  while not (text_poke_step t) do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Cross-hart aggregates (quiescence and profiling feeds)              *)
(* ------------------------------------------------------------------ *)

(** Live code addresses across {e every} hart — the SMP quiescence
    source for [Runtime.set_live_scanner]: a patch is deferrable work as
    long as any hart has an activation in the range. *)
let live_code_addrs t =
  Array.fold_left (fun acc m -> List.rev_append (Machine.live_code_addrs m) acc) []
    t.harts

(** Call frames across every hart, hart 0 first (each hart's own frames
    stay innermost-first). *)
let call_frames t =
  List.concat_map Machine.call_frames (Array.to_list t.harts)

let read_global t name ~width = Machine.read_global t.harts.(0) name ~width
let write_global t name v ~width = Machine.write_global t.harts.(0) name v ~width

(* stats accessors for the bench rows *)
let ipis_sent t = t.ipis_sent
let ipi_acks t = t.ipi_acks
let rendezvous_count t = t.rendezvous_count
let rendezvous_cycles t = t.rendezvous_cycles
let seed t = t.seed
