(* The always-on flight recorder.

   A bounded binary ring, independent of the opt-in [Trace.ring]: events
   are encoded into fixed-size cells of one preallocated [Bytes] buffer
   (strings interned into a small side table), so recording is a handful
   of byte stores with no per-event allocation — cheap enough to leave
   armed for the whole life of every harness session.  When something
   goes wrong (a VM trap, a fuzz-oracle divergence, a bench-gate
   failure), the last [capacity] events are decoded back into stamped
   events and dumped as a [mv-flight/1] postmortem artifact together
   with caller-supplied context (runtime stats, per-hart pc/stack
   summaries).

   Encoding: each cell is [cell_bytes] wide — tag byte, hart byte, the
   clock reading (float bits), and four 64-bit payload slots whose
   meaning depends on the tag.  Strings (op names, function names, edge
   kinds) are stored as intern-table ids.  One lossy corner, by design:
   [Commit_begin]'s switch-value list does not fit a fixed cell and is
   dropped on decode (the cid, op and count survive) — the full list is
   available from the opt-in tracer when armed. *)

type t = {
  clock : unit -> float;
  hart : unit -> int;
  cells : Bytes.t;  (* capacity * cell_bytes, circular *)
  capacity : int;
  mutable next_seq : int;  (* total events ever recorded *)
  strings : (string, int) Hashtbl.t;  (* intern: string -> id *)
  mutable names : string list;  (* reverse table, newest first *)
  mutable n_names : int;
}

let cell_bytes = 48

let create ?(capacity = 512) ?(hart = fun () -> 0) ~clock () =
  let capacity = max 1 capacity in
  {
    clock;
    hart;
    cells = Bytes.make (capacity * cell_bytes) '\000';
    capacity;
    next_seq = 0;
    strings = Hashtbl.create 32;
    names = [];
    n_names = 0;
  }

let intern t s =
  match Hashtbl.find_opt t.strings s with
  | Some id -> id
  | None ->
      let id = t.n_names in
      Hashtbl.add t.strings s id;
      t.names <- s :: t.names;
      t.n_names <- id + 1;
      id

let name_of t id =
  if id < 0 || id >= t.n_names then "?"
  else List.nth t.names (t.n_names - 1 - id)

(* Constructor tags — stable small ints, used only inside the ring. *)
let tag_of : Trace.event -> int = function
  | Trace.Commit_begin _ -> 0
  | Trace.Commit_end _ -> 1
  | Trace.Variant_selected _ -> 2
  | Trace.Site_retargeted _ -> 3
  | Trace.Site_inlined _ -> 4
  | Trace.Prologue_patched _ -> 5
  | Trace.Fallback _ -> 6
  | Trace.Safe_defer _ -> 7
  | Trace.Safe_deny _ -> 8
  | Trace.Pending_drained _ -> 9
  | Trace.Pending_rollback _ -> 10
  | Trace.Safepoint_poll _ -> 11
  | Trace.Icache_flush _ -> 12
  | Trace.Ipi_send _ -> 13
  | Trace.Ipi_ack _ -> 14
  | Trace.Rendezvous_begin _ -> 15
  | Trace.Rendezvous_end _ -> 16
  | Trace.Causal_edge _ -> 17
  | Trace.Osr_transfer _ -> 18
  | Trace.Variant_materialized _ -> 19
  | Trace.Variant_evicted _ -> 20
  | Trace.Variant_unbound _ -> 21

(* Float fields (ack waits, rendezvous latencies — always non-negative)
   travel as the low 63 bits of their IEEE pattern in an int slot; the
   sign bit cannot survive the 63-bit OCaml int, so decode re-zeroes it.
   Lossless for every non-negative float. *)
let slot_of_float f = Int64.to_int (Int64.bits_of_float f)

(* The four payload slots per constructor (strings as intern ids, floats
   as their IEEE bits). *)
let payload t : Trace.event -> int * int * int * int = function
  | Trace.Commit_begin { cid; op; switches } ->
      (cid, intern t op, List.length switches, 0)
  | Trace.Commit_end { cid; op; bound } -> (cid, intern t op, bound, 0)
  | Trace.Variant_selected { fn; variant } | Trace.Variant_unbound { fn; variant } ->
      (intern t fn, intern t variant, 0, 0)
  | Trace.Site_retargeted { fn; site; target } -> (intern t fn, site, target, 0)
  | Trace.Site_inlined { fn; site; target } -> (intern t fn, site, target, 0)
  | Trace.Prologue_patched { fn; target } -> (intern t fn, target, 0, 0)
  | Trace.Fallback { fn } -> (intern t fn, 0, 0, 0)
  | Trace.Safe_defer { cid; fn } -> (cid, intern t fn, 0, 0)
  | Trace.Safe_deny { cid; fn } -> (cid, intern t fn, 0, 0)
  | Trace.Pending_drained { cid; pset; actions } -> (cid, pset, actions, 0)
  | Trace.Pending_rollback { cid; pset } -> (cid, pset, 0, 0)
  | Trace.Safepoint_poll { pending } -> (pending, 0, 0, 0)
  | Trace.Icache_flush { hart; addr; len } -> (hart, addr, len, 0)
  | Trace.Ipi_send { rdv; from_hart; to_hart } -> (rdv, from_hart, to_hart, 0)
  | Trace.Ipi_ack { rdv; hart; wait; at } -> (rdv, hart, slot_of_float wait, at)
  | Trace.Rendezvous_begin { rdv; initiator; waiting } -> (rdv, initiator, waiting, 0)
  | Trace.Rendezvous_end { rdv; initiator; acks; latency } ->
      (rdv, initiator, acks, slot_of_float latency)
  | Trace.Causal_edge { edge; id; src_hart; dst_hart } ->
      (intern t edge, id, src_hart, dst_hart)
  (* seven fields into four slots: pc pairs and small counters share one *)
  | Trace.Osr_transfer { cid; hart; fn; sp_id; from_pc; to_pc; slots } ->
      ( cid,
        (hart lsl 32) lor intern t fn,
        (sp_id lsl 32) lor slots,
        (from_pc lsl 32) lor to_pc )
  (* the dedup flag rides the size slot's top bit *)
  | Trace.Variant_materialized { fn; variant; addr; size; dedup } ->
      ( intern t fn,
        intern t variant,
        addr,
        (if dedup then 1 lsl 62 else 0) lor size )
  | Trace.Variant_evicted { fn; variant; freed } ->
      (intern t fn, intern t variant, freed, 0)

let float_of_slot v = Int64.float_of_bits (Int64.logand (Int64.of_int v) Int64.max_int)

(* Rebuild the event from (tag, slots).  Inverse of [payload] except for
   Commit_begin's dropped switch list. *)
let decode t tag a b c d : Trace.event =
  match tag with
  | 0 -> Trace.Commit_begin { cid = a; op = name_of t b; switches = [] }
  | 1 -> Trace.Commit_end { cid = a; op = name_of t b; bound = c }
  | 2 -> Trace.Variant_selected { fn = name_of t a; variant = name_of t b }
  | 3 -> Trace.Site_retargeted { fn = name_of t a; site = b; target = c }
  | 4 -> Trace.Site_inlined { fn = name_of t a; site = b; target = c }
  | 5 -> Trace.Prologue_patched { fn = name_of t a; target = b }
  | 6 -> Trace.Fallback { fn = name_of t a }
  | 7 -> Trace.Safe_defer { cid = a; fn = name_of t b }
  | 8 -> Trace.Safe_deny { cid = a; fn = name_of t b }
  | 9 -> Trace.Pending_drained { cid = a; pset = b; actions = c }
  | 10 -> Trace.Pending_rollback { cid = a; pset = b }
  | 11 -> Trace.Safepoint_poll { pending = a }
  | 12 -> Trace.Icache_flush { hart = a; addr = b; len = c }
  | 13 -> Trace.Ipi_send { rdv = a; from_hart = b; to_hart = c }
  | 14 -> Trace.Ipi_ack { rdv = a; hart = b; wait = float_of_slot c; at = d }
  | 15 -> Trace.Rendezvous_begin { rdv = a; initiator = b; waiting = c }
  | 16 ->
      Trace.Rendezvous_end
        { rdv = a; initiator = b; acks = c; latency = float_of_slot d }
  | 17 ->
      Trace.Causal_edge
        { edge = name_of t a; id = b; src_hart = c; dst_hart = d }
  | 18 ->
      Trace.Osr_transfer
        {
          cid = a;
          hart = b lsr 32;
          fn = name_of t (b land 0xFFFFFFFF);
          sp_id = c lsr 32;
          slots = c land 0xFFFFFFFF;
          from_pc = d lsr 32;
          to_pc = d land 0xFFFFFFFF;
        }
  | 19 ->
      Trace.Variant_materialized
        {
          fn = name_of t a;
          variant = name_of t b;
          addr = c;
          size = d land ((1 lsl 62) - 1);
          dedup = d land (1 lsl 62) <> 0;
        }
  | 20 -> Trace.Variant_evicted { fn = name_of t a; variant = name_of t b; freed = c }
  | 21 -> Trace.Variant_unbound { fn = name_of t a; variant = name_of t b }
  | _ -> Trace.Safepoint_poll { pending = -1 }

let record t ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let off = seq mod t.capacity * cell_bytes in
  let hart = match Trace.hart_of_event ev with Some h -> h | None -> t.hart () in
  let a, b, c, d = payload t ev in
  Bytes.unsafe_set t.cells off (Char.unsafe_chr (tag_of ev));
  Bytes.unsafe_set t.cells (off + 1) (Char.unsafe_chr (hart land 0xFF));
  Bytes.set_int64_le t.cells (off + 8) (Int64.bits_of_float (t.clock ()));
  Bytes.set_int64_le t.cells (off + 16) (Int64.of_int a);
  Bytes.set_int64_le t.cells (off + 24) (Int64.of_int b);
  Bytes.set_int64_le t.cells (off + 32) (Int64.of_int c);
  Bytes.set_int64_le t.cells (off + 40) (Int64.of_int d)

let sink t : Trace.sink = fun ev -> record t ev
let recorded t = t.next_seq
let capacity t = t.capacity
let dropped t = max 0 (t.next_seq - t.capacity)

(* Decode the surviving window, oldest first, reconstructing global and
   per-hart sequence numbers. *)
let events t : Trace.stamped list =
  let lo = max 0 (t.next_seq - t.capacity) in
  let hseqs = Hashtbl.create 8 in
  (* per-hart counts of the events that fell off the ring keep hseq
     consistent with what a same-shape Trace.ring would have assigned
     only when nothing was dropped; after overflow hseq restarts dense
     within the window, which is what the postmortem consumers need *)
  let acc = ref [] in
  for seq = t.next_seq - 1 downto lo do
    let off = seq mod t.capacity * cell_bytes in
    let tag = Char.code (Bytes.get t.cells off) in
    let hart = Char.code (Bytes.get t.cells (off + 1)) in
    let ts = Int64.float_of_bits (Bytes.get_int64_le t.cells (off + 8)) in
    let slot i = Int64.to_int (Bytes.get_int64_le t.cells (off + 16 + (8 * i))) in
    let ev = decode t tag (slot 0) (slot 1) (slot 2) (slot 3) in
    acc := (seq, hart, ts, ev) :: !acc
  done;
  List.map
    (fun (seq, hart, ts, ev) ->
      let hseq = Option.value ~default:0 (Hashtbl.find_opt hseqs hart) in
      Hashtbl.replace hseqs hart (hseq + 1);
      { Trace.ts; seq; hart; hseq; ev })
    !acc

(* ------------------------------------------------------------------ *)
(* The mv-flight/1 postmortem artifact                                  *)
(* ------------------------------------------------------------------ *)

let schema = "mv-flight/1"

let dump t ~reason ?(extra = []) () : Json.t =
  let stamped = events t in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("reason", Json.String reason);
       ("clock", Json.Float (t.clock ()));
       ("recorded", Json.Int (recorded t));
       ("capacity", Json.Int t.capacity);
       ("dropped", Json.Int (dropped t));
       ( "events",
         Json.List
           (List.map
              (fun (st : Trace.stamped) ->
                Json.Obj
                  [
                    ("ts", Json.Float st.Trace.ts);
                    ("seq", Json.Int st.Trace.seq);
                    ("hart", Json.Int st.Trace.hart);
                    ("hseq", Json.Int st.Trace.hseq);
                    ("name", Json.String (Trace.event_name st.Trace.ev));
                    ("args", Json.Obj (Export.args_of_event st.Trace.ev));
                    ( "text",
                      Json.String (Format.asprintf "%a" Trace.pp_event st.Trace.ev)
                    );
                  ])
              stamped) );
     ]
    @ extra)

let dump_string t ~reason ?extra () =
  Json.to_string_pretty (dump t ~reason ?extra ())

(* The dump's inverse: decode one event from its [name] + [args]
   members, for the postmortem analyzer ([mvtrace postmortem]) and the
   round-trip tests.  Fields follow [Export.args_of_event]; unknown
   names decode to [None]. *)
let event_of_json name (args : Json.t) : Trace.event option =
  let int k =
    match Json.member k args with
    | Some (Json.Int n) -> Some n
    | Some (Json.Float f) -> Some (int_of_float f)
    | _ -> None
  in
  let flt k =
    match Json.member k args with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let str k =
    match Json.member k args with Some (Json.String s) -> Some s | _ -> None
  in
  let switches () =
    match Json.member "switches" args with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None)
          kvs
    | _ -> []
  in
  match (name, int "cid", str "fn") with
  | "commit_begin", Some cid, _ ->
      Option.map
        (fun op -> Trace.Commit_begin { cid; op; switches = switches () })
        (str "op")
  | "commit_end", Some cid, _ -> (
      match (str "op", int "bound") with
      | Some op, Some bound -> Some (Trace.Commit_end { cid; op; bound })
      | _ -> None)
  | "safe_defer", Some cid, Some fn -> Some (Trace.Safe_defer { cid; fn })
  | "safe_deny", Some cid, Some fn -> Some (Trace.Safe_deny { cid; fn })
  | "pending_drained", Some cid, _ -> (
      match (int "pset", int "actions") with
      | Some pset, Some actions ->
          Some (Trace.Pending_drained { cid; pset; actions })
      | _ -> None)
  | "pending_rollback", Some cid, _ ->
      Option.map (fun pset -> Trace.Pending_rollback { cid; pset }) (int "pset")
  | "variant_selected", _, Some fn ->
      Option.map (fun variant -> Trace.Variant_selected { fn; variant })
        (str "variant")
  | "variant_unbound", _, Some fn ->
      Option.map (fun variant -> Trace.Variant_unbound { fn; variant }) (str "variant")
  | "site_retargeted", _, Some fn -> (
      match (int "site", int "target") with
      | Some site, Some target -> Some (Trace.Site_retargeted { fn; site; target })
      | _ -> None)
  | "site_inlined", _, Some fn -> (
      match (int "site", int "target") with
      | Some site, Some target -> Some (Trace.Site_inlined { fn; site; target })
      | _ -> None)
  | "prologue_patched", _, Some fn ->
      Option.map (fun target -> Trace.Prologue_patched { fn; target })
        (int "target")
  | "fallback", _, Some fn -> Some (Trace.Fallback { fn })
  | "safepoint_poll", _, _ ->
      Option.map (fun pending -> Trace.Safepoint_poll { pending }) (int "pending")
  | "icache_flush", _, _ -> (
      match (int "hart", int "addr", int "len") with
      | Some hart, Some addr, Some len ->
          Some (Trace.Icache_flush { hart; addr; len })
      | _ -> None)
  | "ipi_send", _, _ -> (
      match (int "rdv", int "from_hart", int "to_hart") with
      | Some rdv, Some from_hart, Some to_hart ->
          Some (Trace.Ipi_send { rdv; from_hart; to_hart })
      | _ -> None)
  | "ipi_ack", _, _ -> (
      match (int "rdv", int "hart", flt "wait", int "at") with
      | Some rdv, Some hart, Some wait, Some at ->
          Some (Trace.Ipi_ack { rdv; hart; wait; at })
      | _ -> None)
  | "rendezvous_begin", _, _ -> (
      match (int "rdv", int "initiator", int "waiting") with
      | Some rdv, Some initiator, Some waiting ->
          Some (Trace.Rendezvous_begin { rdv; initiator; waiting })
      | _ -> None)
  | "rendezvous_end", _, _ -> (
      match (int "rdv", int "initiator", int "acks", flt "latency") with
      | Some rdv, Some initiator, Some acks, Some latency ->
          Some (Trace.Rendezvous_end { rdv; initiator; acks; latency })
      | _ -> None)
  | "causal_edge", _, _ -> (
      match (str "edge", int "id", int "src_hart", int "dst_hart") with
      | Some edge, Some id, Some src_hart, Some dst_hart ->
          Some (Trace.Causal_edge { edge; id; src_hart; dst_hart })
      | _ -> None)
  | "variant_materialized", _, Some fn -> (
      let dedup =
        match Json.member "dedup" args with Some (Json.Bool b) -> b | _ -> false
      in
      match (str "variant", int "addr", int "size") with
      | Some variant, Some addr, Some size ->
          Some (Trace.Variant_materialized { fn; variant; addr; size; dedup })
      | _ -> None)
  | "variant_evicted", _, Some fn -> (
      match (str "variant", int "freed") with
      | Some variant, Some freed -> Some (Trace.Variant_evicted { fn; variant; freed })
      | _ -> None)
  | _ -> None

(* Decode a whole dump document's [events] member back into stamped
   events (entries whose name/args do not decode are skipped). *)
let events_of_dump (doc : Json.t) : Trace.stamped list =
  match Json.member "events" doc with
  | Some (Json.List entries) ->
      List.filter_map
        (fun e ->
          let int k =
            match Json.member k e with Some (Json.Int n) -> Some n | _ -> None
          in
          let ts =
            match Json.member "ts" e with
            | Some (Json.Float f) -> f
            | Some (Json.Int n) -> float_of_int n
            | _ -> 0.0
          in
          match (Json.member "name" e, Json.member "args" e) with
          | Some (Json.String name), Some args -> (
              match event_of_json name args with
              | Some ev ->
                  Some
                    {
                      Trace.ts;
                      seq = Option.value ~default:0 (int "seq");
                      hart = Option.value ~default:0 (int "hart");
                      hseq = Option.value ~default:0 (int "hseq");
                      ev;
                    }
              | None -> None)
          | _ -> None)
        entries
  | _ -> []

(* Write the artifact under the MV_SMP_ARTIFACT_DIR convention (the SMP
   test battery's failure-dump directory): no env var, no file — a plain
   [dune runtest] never spams the working tree.  [dir] overrides the
   environment for callers that already know where artifacts go. *)
let write_artifact t ~reason ~name ?extra ?dir () : string option =
  let dir =
    match dir with Some d -> Some d | None -> Sys.getenv_opt "MV_SMP_ARTIFACT_DIR"
  in
  match dir with
  | None | Some "" -> None
  | Some dir ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with _ -> ());
      let path = Filename.concat dir (name ^ ".flight.json") in
      (try
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc (dump_string t ~reason ?extra ()));
         Some path
       with Sys_error _ -> None)
