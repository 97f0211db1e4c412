(* The mv-flight/1 postmortem artifact.

   When something goes wrong (a VM trap, a fuzz-oracle divergence, a
   bench-gate failure), the surviving window of a [Trace.ring] — the one
   every harness session keeps armed from creation — is stamped and
   dumped together with caller-supplied context (runtime stats,
   per-hart pc/stack summaries). *)

let schema = "mv-flight/1"

let dump ring ~reason ?(extra = []) () : Json.t =
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("reason", Json.String reason);
       ("clock", Json.Float (Trace.now ring));
       ("recorded", Json.Int (Trace.recorded ring));
       ("capacity", Json.Int (Trace.capacity ring));
       ("dropped", Json.Int (Trace.dropped ring));
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
                    ("args", Json.Obj (Trace.args_of_event st.Trace.ev));
                    ( "text",
                      Json.String (Format.asprintf "%a" Trace.pp_event st.Trace.ev)
                    );
                  ])
              (Trace.events ring)) );
     ]
    @ extra)

let dump_string ring ~reason ?extra () =
  Json.to_string_pretty (dump ring ~reason ?extra ())

(* Decode a whole dump document's [events] member back into stamped
   events (entries whose name/args do not decode are skipped): the
   dump's inverse, for the postmortem analyzer ([mvtrace postmortem])
   and the round-trip tests. *)
let events_of_dump (doc : Json.t) : Trace.stamped list =
  match Json.member "events" doc with
  | Some (Json.List entries) ->
      List.filter_map
        (fun e ->
          let int k =
            match Json.member k e with Some (Json.Int n) -> n | _ -> 0
          in
          let ts =
            match Json.member "ts" e with
            | Some (Json.Float f) -> f
            | Some (Json.Int n) -> float_of_int n
            | _ -> 0.0
          in
          match (Json.member "name" e, Json.member "args" e) with
          | Some (Json.String name), Some args ->
              Option.map
                (fun ev ->
                  { Trace.ts; seq = int "seq"; hart = int "hart"; hseq = int "hseq"; ev })
                (Trace.event_of_args name args)
          | _ -> None)
        entries
  | _ -> []

(* Write the artifact under the MV_SMP_ARTIFACT_DIR convention (the SMP
   test battery's failure-dump directory): no env var, no file — a plain
   [dune runtest] never spams the working tree.  [dir] overrides the
   environment for callers that already know where artifacts go. *)
let write_artifact ring ~reason ~name ?extra ?dir () : string option =
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
           (fun () -> output_string oc (dump_string ring ~reason ?extra ()));
         Some path
       with Sys_error _ -> None)
