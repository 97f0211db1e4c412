(* Structured trace events and the fixed-capacity ring recorder.

   Design constraints (mirroring the safepoint hook of the safe-commit
   subsystem): emitters hold an [event -> unit] option and do nothing but
   one match when it is [None]; the recorder is bounded so tracing a
   billion-cycle run cannot exhaust memory; overflow drops the oldest
   events, because the interesting window is almost always the most
   recent one (the patch that just went wrong).

   Causality: every stamped event carries the hart it happened on plus a
   per-hart sequence number, and the distributed protocols thread small
   correlation ids through their events — [rdv] ties an Ipi_send to its
   Ipi_ack and the Rendezvous_begin/end pair, [cid] ties a Commit_begin
   to the Safe_defer/Pending_drained chain it caused, possibly drained
   cycles later on a different hart.  [Causal_edge] events make the
   cross-hart happens-before links explicit in the stream so consumers
   (Causal, the mvtrace timeline/blame commands) need no protocol
   knowledge to reconstruct the DAG. *)

type event =
  | Commit_begin of { cid : int; op : string; switches : (string * int) list }
  | Commit_end of { cid : int; op : string; bound : int }
  | Variant_selected of { fn : string; variant : string }
  | Variant_unbound of { fn : string; variant : string }
  | Site_retargeted of { fn : string; site : int; target : int }
  | Site_inlined of { fn : string; site : int; target : int }
  | Prologue_patched of { fn : string; target : int }
  | Fallback of { fn : string }
  | Safe_defer of { cid : int; fn : string }
  | Safe_deny of { cid : int; fn : string }
  | Pending_drained of { cid : int; pset : int; actions : int }
  | Pending_rollback of { cid : int; pset : int }
  | Safepoint_poll of { pending : int }
  | Icache_flush of { hart : int; addr : int; len : int }
  | Ipi_send of { rdv : int; from_hart : int; to_hart : int }
  | Ipi_ack of { rdv : int; hart : int; wait : float; at : int }
  | Rendezvous_begin of { rdv : int; initiator : int; waiting : int }
  | Rendezvous_end of { rdv : int; initiator : int; acks : int; latency : float }
  | Causal_edge of { edge : string; id : int; src_hart : int; dst_hart : int }
  | Osr_transfer of {
      cid : int;
      hart : int;
      fn : string;
      sp_id : int;
      from_pc : int;
      to_pc : int;
      slots : int;
    }
  | Variant_materialized of {
      fn : string;
      variant : string;
      addr : int;
      size : int;
      dedup : bool;
    }
  | Variant_evicted of { fn : string; variant : string; freed : int }

type stamped = { ts : float; seq : int; hart : int; hseq : int; ev : event }
type sink = event -> unit

(* Events that name the hart they happened on attribute themselves; the
   rest fall back to the ring's hart source (the scheduler's notion of
   "currently executing hart").  Causal edges land on their destination
   hart — that is where the effect materializes. *)
let hart_of_event = function
  | Icache_flush { hart; _ } | Ipi_ack { hart; _ } -> Some hart
  | Ipi_send { from_hart; _ } -> Some from_hart
  | Rendezvous_begin { initiator; _ } | Rendezvous_end { initiator; _ } ->
      Some initiator
  | Causal_edge { dst_hart; _ } -> Some dst_hart
  | Osr_transfer { hart; _ } -> Some hart
  | _ -> None

type ring = {
  clock : unit -> float;
  hart : unit -> int;
  slots : stamped option array;  (* circular, indexed by seq mod capacity *)
  hseqs : (int, int) Hashtbl.t;  (* per-hart next sequence number *)
  mutable next_seq : int;
  mutable base_seq : int;  (* sequence numbers below this were cleared *)
  mutable dropped : int;
}

let ring ?(capacity = 4096) ?(hart = fun () -> 0) ~clock () =
  {
    clock;
    hart;
    slots = Array.make (max 1 capacity) None;
    hseqs = Hashtbl.create 8;
    next_seq = 0;
    base_seq = 0;
    dropped = 0;
  }

let record r ev =
  let cap = Array.length r.slots in
  let seq = r.next_seq in
  r.next_seq <- seq + 1;
  if r.slots.(seq mod cap) <> None then r.dropped <- r.dropped + 1;
  let hart = match hart_of_event ev with Some h -> h | None -> r.hart () in
  let hseq = Option.value ~default:0 (Hashtbl.find_opt r.hseqs hart) in
  Hashtbl.replace r.hseqs hart (hseq + 1);
  r.slots.(seq mod cap) <- Some { ts = r.clock (); seq; hart; hseq; ev }

let sink r : sink = fun ev -> record r ev

let events r =
  let cap = Array.length r.slots in
  let lo = max r.base_seq (r.next_seq - cap) in
  let acc = ref [] in
  for seq = r.next_seq - 1 downto lo do
    match r.slots.(seq mod cap) with
    | Some st when st.seq = seq -> acc := st :: !acc
    | _ -> ()
  done;
  !acc

let recorded r = r.next_seq - r.base_seq
let dropped r = r.dropped

let clear r =
  Array.fill r.slots 0 (Array.length r.slots) None;
  r.base_seq <- r.next_seq;
  r.dropped <- 0

let event_name = function
  | Commit_begin _ -> "commit_begin"
  | Commit_end _ -> "commit_end"
  | Variant_selected _ -> "variant_selected"
  | Variant_unbound _ -> "variant_unbound"
  | Site_retargeted _ -> "site_retargeted"
  | Site_inlined _ -> "site_inlined"
  | Prologue_patched _ -> "prologue_patched"
  | Fallback _ -> "fallback"
  | Safe_defer _ -> "safe_defer"
  | Safe_deny _ -> "safe_deny"
  | Pending_drained _ -> "pending_drained"
  | Pending_rollback _ -> "pending_rollback"
  | Safepoint_poll _ -> "safepoint_poll"
  | Icache_flush _ -> "icache_flush"
  | Ipi_send _ -> "ipi_send"
  | Ipi_ack _ -> "ipi_ack"
  | Rendezvous_begin _ -> "rendezvous_begin"
  | Rendezvous_end _ -> "rendezvous_end"
  | Causal_edge _ -> "causal_edge"
  | Osr_transfer _ -> "osr_transfer"
  | Variant_materialized _ -> "variant_materialized"
  | Variant_evicted _ -> "variant_evicted"

let pp_event fmt = function
  | Commit_begin { cid; op; switches } ->
      Format.fprintf fmt "%s begin #%d {%s}" op cid
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) switches))
  | Commit_end { cid; op; bound } ->
      Format.fprintf fmt "%s end #%d -> %d" op cid bound
  | Variant_selected { fn; variant } -> Format.fprintf fmt "select %s for %s" variant fn
  | Variant_unbound { fn; variant } -> Format.fprintf fmt "unbind %s from %s" variant fn
  | Site_retargeted { fn; site; target } ->
      Format.fprintf fmt "retarget site 0x%x of %s -> 0x%x" site fn target
  | Site_inlined { fn; site; target } ->
      Format.fprintf fmt "inline 0x%x into site 0x%x of %s" target site fn
  | Prologue_patched { fn; target } ->
      Format.fprintf fmt "prologue of %s -> jmp 0x%x" fn target
  | Fallback { fn } -> Format.fprintf fmt "fallback: %s stays generic" fn
  | Safe_defer { cid; fn } -> Format.fprintf fmt "defer %s (live, commit #%d)" fn cid
  | Safe_deny { cid; fn } -> Format.fprintf fmt "deny %s (live, commit #%d)" fn cid
  | Pending_drained { cid; pset; actions } ->
      Format.fprintf fmt "pending set #%d drained (%d actions, commit #%d)" pset
        actions cid
  | Pending_rollback { cid; pset } ->
      Format.fprintf fmt "pending set #%d rolled back (commit #%d)" pset cid
  | Safepoint_poll { pending } ->
      Format.fprintf fmt "safepoint poll (%d sets pending)" pending
  | Icache_flush { hart; addr; len } ->
      Format.fprintf fmt "hart%d icache flush [0x%x, 0x%x)" hart addr (addr + len)
  | Ipi_send { rdv; from_hart; to_hart } ->
      Format.fprintf fmt "ipi hart%d -> hart%d (rdv #%d)" from_hart to_hart rdv
  | Ipi_ack { rdv; hart; wait; at } ->
      Format.fprintf fmt "hart%d acked ipi after %.1f cycles at pc 0x%x (rdv #%d)"
        hart wait at rdv
  | Rendezvous_begin { rdv; initiator; waiting } ->
      Format.fprintf fmt "rendezvous #%d by hart%d (%d hart(s) to park)" rdv
        initiator waiting
  | Rendezvous_end { rdv; initiator; acks; latency } ->
      Format.fprintf fmt "rendezvous #%d by hart%d complete (%d ack(s), %.1f cycles)"
        rdv initiator acks latency
  | Causal_edge { edge; id; src_hart; dst_hart } ->
      Format.fprintf fmt "edge %s #%d: hart%d ~> hart%d" edge id src_hart dst_hart
  | Osr_transfer { cid; hart; fn; sp_id; from_pc; to_pc; slots } ->
      Format.fprintf fmt
        "hart%d osr %s: 0x%x -> 0x%x at safept %d (%d slot(s), commit #%d)" hart fn
        from_pc to_pc sp_id slots cid
  | Variant_materialized { fn; variant; addr; size; dedup } ->
      Format.fprintf fmt "materialize %s for %s at 0x%x (%d bytes%s)" variant fn addr
        size
        (if dedup then ", dedup" else "")
  | Variant_evicted { fn; variant; freed } ->
      if freed = 0 then Format.fprintf fmt "evict %s of %s (body shared, 0 bytes)" variant fn
      else Format.fprintf fmt "evict %s of %s (%d bytes freed)" variant fn freed

let pp fmt st =
  Format.fprintf fmt "[%10.1f/%d h%d.%d] %a" st.ts st.seq st.hart st.hseq
    pp_event st.ev
