(* Chrome trace_event and metrics-envelope exporters.

   Chrome's JSON array format (the subset we emit):
     {"name": .., "ph": "B"|"E"|"i", "ts": microseconds, "pid": .., "tid": ..,
      "args": {..}}
   Simulated cycles are passed through as the microsecond timestamps: the
   timeline then reads in guest cycles, which is the unit every other
   number in this repository is in. *)

let args_of_event (ev : Trace.event) : (string * Json.t) list =
  match ev with
  | Trace.Commit_begin { cid; op; switches } ->
      [
        ("op", Json.String op);
        ("switches", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) switches));
        ("cid", Json.Int cid);
      ]
  | Trace.Commit_end { cid; op; bound } ->
      [ ("op", Json.String op); ("bound", Json.Int bound); ("cid", Json.Int cid) ]
  | Trace.Variant_selected { fn; variant } ->
      [ ("fn", Json.String fn); ("variant", Json.String variant) ]
  | Trace.Site_retargeted { fn; site; target } | Trace.Site_inlined { fn; site; target }
    ->
      [ ("fn", Json.String fn); ("site", Json.Int site); ("target", Json.Int target) ]
  | Trace.Prologue_patched { fn; target } ->
      [ ("fn", Json.String fn); ("target", Json.Int target) ]
  | Trace.Fallback { fn } -> [ ("fn", Json.String fn) ]
  | Trace.Safe_defer { cid; fn } | Trace.Safe_deny { cid; fn } ->
      [ ("fn", Json.String fn); ("cid", Json.Int cid) ]
  | Trace.Pending_drained { cid; pset; actions } ->
      [ ("pset", Json.Int pset); ("actions", Json.Int actions); ("cid", Json.Int cid) ]
  | Trace.Pending_rollback { cid; pset } ->
      [ ("pset", Json.Int pset); ("cid", Json.Int cid) ]
  | Trace.Safepoint_poll { pending } -> [ ("pending", Json.Int pending) ]
  | Trace.Icache_flush { hart; addr; len } ->
      [ ("hart", Json.Int hart); ("addr", Json.Int addr); ("len", Json.Int len) ]
  | Trace.Ipi_send { rdv; from_hart; to_hart } ->
      [
        ("from_hart", Json.Int from_hart);
        ("to_hart", Json.Int to_hart);
        ("rdv", Json.Int rdv);
      ]
  | Trace.Ipi_ack { rdv; hart; wait; at } ->
      [
        ("hart", Json.Int hart);
        ("wait", Json.Float wait);
        ("at", Json.Int at);
        ("rdv", Json.Int rdv);
      ]
  | Trace.Rendezvous_begin { rdv; initiator; waiting } ->
      [
        ("initiator", Json.Int initiator);
        ("waiting", Json.Int waiting);
        ("rdv", Json.Int rdv);
      ]
  | Trace.Rendezvous_end { rdv; initiator; acks; latency } ->
      [
        ("initiator", Json.Int initiator);
        ("acks", Json.Int acks);
        ("latency", Json.Float latency);
        ("rdv", Json.Int rdv);
      ]
  | Trace.Causal_edge { edge; id; src_hart; dst_hart } ->
      [
        ("edge", Json.String edge);
        ("id", Json.Int id);
        ("src_hart", Json.Int src_hart);
        ("dst_hart", Json.Int dst_hart);
      ]
  | Trace.Osr_transfer { cid; hart; fn; sp_id; from_pc; to_pc; slots } ->
      [
        ("hart", Json.Int hart);
        ("fn", Json.String fn);
        ("sp_id", Json.Int sp_id);
        ("from_pc", Json.Int from_pc);
        ("to_pc", Json.Int to_pc);
        ("slots", Json.Int slots);
        ("cid", Json.Int cid);
      ]
  | Trace.Variant_materialized { fn; variant; addr; size; dedup } ->
      [
        ("fn", Json.String fn);
        ("variant", Json.String variant);
        ("addr", Json.Int addr);
        ("size", Json.Int size);
        ("dedup", Json.Bool dedup);
      ]
  | Trace.Variant_evicted { fn; variant; freed } ->
      [
        ("fn", Json.String fn);
        ("variant", Json.String variant);
        ("freed", Json.Int freed);
      ]

let chrome_event ~pid (st : Trace.stamped) : Json.t =
  let phase, name =
    match st.Trace.ev with
    | Trace.Commit_begin { op; _ } -> ("B", op)
    | Trace.Commit_end { op; _ } -> ("E", op)
    | Trace.Rendezvous_begin _ -> ("B", "rendezvous")
    | Trace.Rendezvous_end _ -> ("E", "rendezvous")
    | ev -> ("i", Trace.event_name ev)
  in
  let base =
    [
      ("name", Json.String name);
      ("ph", Json.String phase);
      ("ts", Json.Float st.Trace.ts);
      ("pid", Json.Int pid);
      (* one Perfetto lane per hart; hart 0 stays on tid 1, so single-hart
         traces are unchanged *)
      ("tid", Json.Int (st.Trace.hart + 1));
      ("args", Json.Obj (("seq", Json.Int st.Trace.seq) :: args_of_event st.Trace.ev));
    ]
  in
  (* instants need a scope; "t" = thread-scoped *)
  Json.Obj (if phase = "i" then base @ [ ("s", Json.String "t") ] else base)

(* Name each hart's lane so Perfetto labels them "hart 0", "hart 1", …
   instead of bare tids. *)
let thread_name_event ~pid ~hart : Json.t =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("ts", Json.Int 0);
      ("pid", Json.Int pid);
      ("tid", Json.Int (hart + 1));
      ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "hart %d" hart)) ]);
    ]

let chrome_trace ?(pid = 1) stamped =
  let harts =
    List.sort_uniq compare (List.map (fun st -> st.Trace.hart) stamped)
  in
  Json.List
    (List.map (fun hart -> thread_name_event ~pid ~hart) harts
    @ List.map (chrome_event ~pid) stamped)
let chrome_trace_string ?pid stamped = Json.to_string_pretty (chrome_trace ?pid stamped)

let profile_json rows =
  Json.List
    (List.map
       (fun (r : Stackprof.leaf) ->
         Json.Obj
           [
             ("name", Json.String r.Stackprof.l_name);
             ("samples", Json.Int r.Stackprof.l_samples);
             ("cycles", Json.Float r.Stackprof.l_cycles);
             ("share", Json.Float r.Stackprof.l_share);
             ("variant", Json.Bool r.Stackprof.l_variant);
           ])
       rows)

let stack_profile_json rows =
  Json.List
    (List.map
       (fun (r : Stackprof.row) ->
         Json.Obj
           [
             ("stack", Json.List (List.map (fun f -> Json.String f) r.Stackprof.s_stack));
             ("samples", Json.Int r.Stackprof.s_samples);
             ("cycles", Json.Float r.Stackprof.s_cycles);
             ("share", Json.Float r.Stackprof.s_share);
             ("variant", Json.Bool r.Stackprof.s_variant);
           ])
       rows)

let metrics ?(extra = []) ~runtime ~perf ~program () =
  Json.Obj
    ([
       ("schema", Json.String "mv-metrics/1");
       ("runtime", runtime);
       ("perf", perf);
       ("program", program);
     ]
    @ extra)
