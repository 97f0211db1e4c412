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
   rest fall back to [current] (the scheduler's notion of "currently
   executing hart").  Causal edges land on their destination hart — that
   is where the effect materializes.  Returns a bare int: the ring calls
   this on every event and must not allocate. *)
let hart_of_event ~current = function
  | Icache_flush { hart; _ } | Ipi_ack { hart; _ } -> hart
  | Ipi_send { from_hart; _ } -> from_hart
  | Rendezvous_begin { initiator; _ } | Rendezvous_end { initiator; _ } -> initiator
  | Causal_edge { dst_hart; _ } -> dst_hart
  | Osr_transfer { hart; _ } -> hart
  | _ -> current ()

(* Three preallocated arrays hold each event (the emitter has already
   allocated it), its clock reading and its hart, so recording is three
   stores with no allocation — cheap enough to leave armed for the whole
   life of every harness session.  Stamping waits until the window is
   read. *)
type ring = {
  clock : unit -> float;
  hart : unit -> int;
  evs : event array;  (* circular, indexed by seq mod capacity *)
  clocks : float array;
  harts : int array;
  mutable next_seq : int;  (* total events ever recorded *)
}

let ring ?(capacity = 4096) ?(hart = fun () -> 0) ~clock () =
  let capacity = max 1 capacity in
  {
    clock;
    hart;
    (* never read: only slots below [next_seq] are *)
    evs = Array.make capacity (Safepoint_poll { pending = 0 });
    clocks = Array.make capacity 0.0;
    harts = Array.make capacity 0;
    next_seq = 0;
  }

let capacity r = Array.length r.evs
let now r = r.clock ()

let record r ev =
  let seq = r.next_seq in
  let i = seq mod capacity r in
  r.evs.(i) <- ev;
  r.clocks.(i) <- r.clock ();
  r.harts.(i) <- hart_of_event ~current:r.hart ev;
  r.next_seq <- seq + 1

let sink r : sink = fun ev -> record r ev
let recorded r = r.next_seq
let dropped r = max 0 (r.next_seq - capacity r)

(* Stamp the surviving window, oldest first.  [hseq] counts densely
   within the window: after overflow it restarts rather than continuing
   the lost prefix, which is what the postmortem consumers need. *)
let events r =
  let lo = dropped r in
  let hseqs = Hashtbl.create 8 in
  List.init (r.next_seq - lo) (fun k ->
      let seq = lo + k in
      let i = seq mod capacity r in
      let hart = r.harts.(i) in
      let hseq = Option.value ~default:0 (Hashtbl.find_opt hseqs hart) in
      Hashtbl.replace hseqs hart (hseq + 1);
      { ts = r.clocks.(i); seq; hart; hseq; ev = r.evs.(i) })

(* ------------------------------------------------------------------ *)
(* The event schema                                                    *)
(* ------------------------------------------------------------------ *)

(* One description per event kind: its stable name and its payload
   fields in export order.  [event_name] and the JSON codec below are
   generic walks over these; [describe] is the one exhaustive match, so a
   constructor without a description does not compile.  The list-syntax
   constructors below shadow the list ones for the rest of this file. *)

type _ field =
  | Int : string -> int field
  | Float : string -> float field
  | Str : string -> string field
  | Bool : string -> bool field
  | Switches : string -> (string * int) list field

type _ fields = [] : unit fields | ( :: ) : 'a field * 'b fields -> ('a * 'b) fields
type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values
type 'a kind = { name : string; fields : 'a fields; make : 'a values -> event }
type described = Described : 'a kind * 'a values -> described
type any_kind = Kind : 'a kind -> any_kind

let kind name fields make = { name; fields; make }

let commit_begin = kind "commit_begin" [ Str "op"; Switches "switches"; Int "cid" ]
    (fun [ op; switches; cid ] -> Commit_begin { cid; op; switches })
let commit_end = kind "commit_end" [ Str "op"; Int "bound"; Int "cid" ]
    (fun [ op; bound; cid ] -> Commit_end { cid; op; bound })
let variant_selected = kind "variant_selected" [ Str "fn"; Str "variant" ]
    (fun [ fn; variant ] -> Variant_selected { fn; variant })
let variant_unbound = kind "variant_unbound" [ Str "fn"; Str "variant" ]
    (fun [ fn; variant ] -> Variant_unbound { fn; variant })
let site_retargeted = kind "site_retargeted" [ Str "fn"; Int "site"; Int "target" ]
    (fun [ fn; site; target ] -> Site_retargeted { fn; site; target })
let site_inlined = kind "site_inlined" [ Str "fn"; Int "site"; Int "target" ]
    (fun [ fn; site; target ] -> Site_inlined { fn; site; target })
let prologue_patched = kind "prologue_patched" [ Str "fn"; Int "target" ]
    (fun [ fn; target ] -> Prologue_patched { fn; target })
let fallback = kind "fallback" [ Str "fn" ]
    (fun [ fn ] -> Fallback { fn })
let safe_defer = kind "safe_defer" [ Str "fn"; Int "cid" ]
    (fun [ fn; cid ] -> Safe_defer { cid; fn })
let safe_deny = kind "safe_deny" [ Str "fn"; Int "cid" ]
    (fun [ fn; cid ] -> Safe_deny { cid; fn })
let pending_drained = kind "pending_drained" [ Int "pset"; Int "actions"; Int "cid" ]
    (fun [ pset; actions; cid ] -> Pending_drained { cid; pset; actions })
let pending_rollback = kind "pending_rollback" [ Int "pset"; Int "cid" ]
    (fun [ pset; cid ] -> Pending_rollback { cid; pset })
let safepoint_poll = kind "safepoint_poll" [ Int "pending" ]
    (fun [ pending ] -> Safepoint_poll { pending })
let icache_flush = kind "icache_flush" [ Int "hart"; Int "addr"; Int "len" ]
    (fun [ hart; addr; len ] -> Icache_flush { hart; addr; len })
let ipi_send = kind "ipi_send" [ Int "from_hart"; Int "to_hart"; Int "rdv" ]
    (fun [ from_hart; to_hart; rdv ] -> Ipi_send { rdv; from_hart; to_hart })
let ipi_ack = kind "ipi_ack" [ Int "hart"; Float "wait"; Int "at"; Int "rdv" ]
    (fun [ hart; wait; at; rdv ] -> Ipi_ack { rdv; hart; wait; at })
let rendezvous_begin =
  kind "rendezvous_begin" [ Int "initiator"; Int "waiting"; Int "rdv" ]
    (fun [ initiator; waiting; rdv ] -> Rendezvous_begin { rdv; initiator; waiting })
let rendezvous_end =
  kind "rendezvous_end" [ Int "initiator"; Int "acks"; Float "latency"; Int "rdv" ]
    (fun [ initiator; acks; latency; rdv ] ->
      Rendezvous_end { rdv; initiator; acks; latency })
let causal_edge =
  kind "causal_edge" [ Str "edge"; Int "id"; Int "src_hart"; Int "dst_hart" ]
    (fun [ edge; id; src_hart; dst_hart ] -> Causal_edge { edge; id; src_hart; dst_hart })
let osr_transfer =
  kind "osr_transfer"
    [ Int "hart"; Str "fn"; Int "sp_id"; Int "from_pc"; Int "to_pc"; Int "slots";
      Int "cid" ]
    (fun [ hart; fn; sp_id; from_pc; to_pc; slots; cid ] ->
      Osr_transfer { cid; hart; fn; sp_id; from_pc; to_pc; slots })
let variant_materialized =
  kind "variant_materialized"
    [ Str "fn"; Str "variant"; Int "addr"; Int "size"; Bool "dedup" ]
    (fun [ fn; variant; addr; size; dedup ] ->
      Variant_materialized { fn; variant; addr; size; dedup })
let variant_evicted = kind "variant_evicted" [ Str "fn"; Str "variant"; Int "freed" ]
    (fun [ fn; variant; freed ] -> Variant_evicted { fn; variant; freed })

let kinds : any_kind list =
  [
    Kind commit_begin; Kind commit_end; Kind variant_selected; Kind variant_unbound;
    Kind site_retargeted; Kind site_inlined; Kind prologue_patched; Kind fallback;
    Kind safe_defer; Kind safe_deny; Kind pending_drained; Kind pending_rollback;
    Kind safepoint_poll; Kind icache_flush; Kind ipi_send; Kind ipi_ack;
    Kind rendezvous_begin; Kind rendezvous_end; Kind causal_edge; Kind osr_transfer;
    Kind variant_materialized; Kind variant_evicted;
  ]

let describe = function
  | Commit_begin { cid; op; switches } -> Described (commit_begin, [ op; switches; cid ])
  | Commit_end { cid; op; bound } -> Described (commit_end, [ op; bound; cid ])
  | Variant_selected { fn; variant } -> Described (variant_selected, [ fn; variant ])
  | Variant_unbound { fn; variant } -> Described (variant_unbound, [ fn; variant ])
  | Site_retargeted { fn; site; target } ->
      Described (site_retargeted, [ fn; site; target ])
  | Site_inlined { fn; site; target } -> Described (site_inlined, [ fn; site; target ])
  | Prologue_patched { fn; target } -> Described (prologue_patched, [ fn; target ])
  | Fallback { fn } -> Described (fallback, [ fn ])
  | Safe_defer { cid; fn } -> Described (safe_defer, [ fn; cid ])
  | Safe_deny { cid; fn } -> Described (safe_deny, [ fn; cid ])
  | Pending_drained { cid; pset; actions } ->
      Described (pending_drained, [ pset; actions; cid ])
  | Pending_rollback { cid; pset } -> Described (pending_rollback, [ pset; cid ])
  | Safepoint_poll { pending } -> Described (safepoint_poll, [ pending ])
  | Icache_flush { hart; addr; len } -> Described (icache_flush, [ hart; addr; len ])
  | Ipi_send { rdv; from_hart; to_hart } ->
      Described (ipi_send, [ from_hart; to_hart; rdv ])
  | Ipi_ack { rdv; hart; wait; at } -> Described (ipi_ack, [ hart; wait; at; rdv ])
  | Rendezvous_begin { rdv; initiator; waiting } ->
      Described (rendezvous_begin, [ initiator; waiting; rdv ])
  | Rendezvous_end { rdv; initiator; acks; latency } ->
      Described (rendezvous_end, [ initiator; acks; latency; rdv ])
  | Causal_edge { edge; id; src_hart; dst_hart } ->
      Described (causal_edge, [ edge; id; src_hart; dst_hart ])
  | Osr_transfer { cid; hart; fn; sp_id; from_pc; to_pc; slots } ->
      Described (osr_transfer, [ hart; fn; sp_id; from_pc; to_pc; slots; cid ])
  | Variant_materialized { fn; variant; addr; size; dedup } ->
      Described (variant_materialized, [ fn; variant; addr; size; dedup ])
  | Variant_evicted { fn; variant; freed } ->
      Described (variant_evicted, [ fn; variant; freed ])

let event_name ev =
  let (Described (k, _)) = describe ev in
  k.name

(* The JSON form of a payload — the [args] of the Chrome export and of
   every mv-flight/1 dump entry — and its inverse.  Ints written as
   floats and floats written as ints still decode. *)

let json_of_field : type a. a field -> a -> string * Json.t =
 fun field v ->
  match field with
  | Int k -> (k, Json.Int v)
  | Float k -> (k, Json.Float v)
  | Str k -> (k, Json.String v)
  | Bool k -> (k, Json.Bool v)
  | Switches k -> (k, Json.Obj (List.map (fun (n, x) -> (n, Json.Int x)) v))

let args_of_event ev : (string * Json.t) list =
  let rec args : type a. a fields -> a values -> (string * Json.t) list =
   fun fields values ->
    match (fields, values) with
    | [], [] -> List.[]
    | f :: fs, v :: vs -> List.(json_of_field f v :: args fs vs)
  in
  let (Described (kind, values)) = describe ev in
  args kind.fields values

let int_of_json = function
  | Json.Int n -> Some n
  | Json.Float f -> Some (int_of_float f)
  | _ -> None

let field_of_json : type a. a field -> Json.t -> a option =
 fun field args ->
  match field with
  | Int k -> Option.bind (Json.member k args) int_of_json
  | Float k -> (
      match Json.member k args with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int n) -> Some (float_of_int n)
      | _ -> None)
  | Str k -> ( match Json.member k args with Some (Json.String s) -> Some s | _ -> None)
  | Bool k -> ( match Json.member k args with Some (Json.Bool b) -> Some b | _ -> None)
  | Switches k -> (
      match Json.member k args with
      | Some (Json.Obj kvs) ->
          let ints =
            List.filter_map (fun (n, v) -> Option.map (fun x -> (n, x)) (int_of_json v)) kvs
          in
          if List.compare_lengths ints kvs = 0 then Some ints else None
      | _ -> None)

let event_of_args name args =
  let rec values : type a. a fields -> a values option = function
    | [] -> Some []
    | f :: fs -> (
        match (field_of_json f args, values fs) with
        | Some v, Some vs -> Some (v :: vs)
        | _ -> None)
  in
  List.find_map
    (fun (Kind kind) ->
      if kind.name <> name then None else Option.map kind.make (values kind.fields))
    kinds

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
