(* Chrome trace_event and metrics-envelope exporters.

   Chrome's JSON array format (the subset we emit):
     {"name": .., "ph": "B"|"E"|"i", "ts": microseconds, "pid": .., "tid": ..,
      "args": {..}}
   Simulated cycles are passed through as the microsecond timestamps: the
   timeline then reads in guest cycles, which is the unit every other
   number in this repository is in. *)

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
      ("args", Json.Obj (("seq", Json.Int st.Trace.seq) :: Trace.args_of_event st.Trace.ev));
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
