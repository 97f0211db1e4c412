(* The always-on flight recorder.

   A bounded ring, independent of the opt-in [Trace.ring]: three
   preallocated arrays hold each event (the emitter has already
   allocated it), its clock reading and its hart, so recording is three
   stores with no allocation — cheap enough to leave armed for the whole
   life of every harness session.  When something goes wrong (a VM
   trap, a fuzz-oracle divergence, a bench-gate failure), the last
   [capacity] events are stamped and dumped as a [mv-flight/1]
   postmortem artifact together with caller-supplied context (runtime
   stats, per-hart pc/stack summaries). *)

type t = {
  clock : unit -> float;
  hart : unit -> int;
  events : Trace.event array;  (* circular, indexed by seq mod capacity *)
  clocks : float array;
  harts : int array;
  mutable next_seq : int;  (* total events ever recorded *)
}

let create ?(capacity = 512) ?(hart = fun () -> 0) ~clock () =
  let capacity = max 1 capacity in
  {
    clock;
    hart;
    (* never read: only slots below [next_seq] are *)
    events = Array.make capacity (Trace.Safepoint_poll { pending = 0 });
    clocks = Array.make capacity 0.0;
    harts = Array.make capacity 0;
    next_seq = 0;
  }

let capacity t = Array.length t.events

let record t ev =
  let seq = t.next_seq in
  let i = seq mod capacity t in
  t.events.(i) <- ev;
  t.clocks.(i) <- t.clock ();
  t.harts.(i) <- Trace.hart_of_event ~current:t.hart ev;
  t.next_seq <- seq + 1

let sink t : Trace.sink = fun ev -> record t ev
let recorded t = t.next_seq
let dropped t = max 0 (t.next_seq - capacity t)

(* Stamp the surviving window, oldest first.  After overflow [hseq]
   restarts dense within the window rather than continuing the lost
   prefix, which is what the postmortem consumers need. *)
let events t : Trace.stamped list =
  let lo = dropped t in
  let hseqs = Hashtbl.create 8 in
  List.init (t.next_seq - lo) (fun k ->
      let seq = lo + k in
      let i = seq mod capacity t in
      let hart = t.harts.(i) in
      let hseq = Option.value ~default:0 (Hashtbl.find_opt hseqs hart) in
      Hashtbl.replace hseqs hart (hseq + 1);
      { Trace.ts = t.clocks.(i); seq; hart; hseq; ev = t.events.(i) })

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
       ("capacity", Json.Int (capacity t));
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
                    ("args", Json.Obj (Trace.args_of_event st.Trace.ev));
                    ( "text",
                      Json.String (Format.asprintf "%a" Trace.pp_event st.Trace.ev)
                    );
                  ])
              stamped) );
     ]
    @ extra)

let dump_string t ~reason ?extra () =
  Json.to_string_pretty (dump t ~reason ?extra ())

(* The dump's inverse for one event, for the postmortem analyzer
   ([mvtrace postmortem]) and the round-trip tests. *)
let event_of_json = Trace.event_of_args

(* Decode a whole dump document's [events] member back into stamped
   events (entries whose name/args do not decode are skipped). *)
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
                (event_of_json name args)
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
