(* Offline analysis over recorded observability artifacts:

   - span extraction and duration statistics from a [Trace.stamped list]
     (the patching-latency report behind `mvtrace spans`);
   - a structural diff of two `mv-bench-rows/1` documents (the committed
     BENCH_results.json vs a fresh run) with a configurable regression
     threshold — the bench gate behind `mvtrace diff --gate` and CI.

   Everything here is pure: parse, fold, compare. *)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { sp_op : string; sp_start : float; sp_dur : float }

(* Pair Commit_begin/Commit_end events into spans.  Ends match the most
   recent open begin with the same op (spans of the same kind nest like
   parentheses); unmatched begins/ends are dropped.  Spans are returned
   in completion order. *)
let spans (events : Trace.stamped list) : span list =
  let open_spans : (string * float) list ref = ref [] in
  let out = ref [] in
  List.iter
    (fun (st : Trace.stamped) ->
      match st.Trace.ev with
      | Trace.Commit_begin { op; _ } -> open_spans := (op, st.Trace.ts) :: !open_spans
      | Trace.Commit_end { op; _ } ->
          let rec take acc = function
            | (op', ts) :: rest when op' = op ->
                out := { sp_op = op; sp_start = ts; sp_dur = st.Trace.ts -. ts } :: !out;
                open_spans := List.rev_append acc rest
            | entry :: rest -> take (entry :: acc) rest
            | [] -> ()
          in
          take [] !open_spans
      | _ -> ())
    events;
  List.rev !out

type dist = {
  d_count : int;
  d_mean : float;
  d_min : float;
  d_max : float;
  d_p95 : float;
}

let percentile sorted p =
  match sorted with
  | [] -> 0.0
  | _ ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let dist_of = function
  | [] -> { d_count = 0; d_mean = 0.0; d_min = 0.0; d_max = 0.0; d_p95 = 0.0 }
  | values ->
      let sorted = List.sort compare values in
      let n = List.length values in
      {
        d_count = n;
        d_mean = List.fold_left ( +. ) 0.0 values /. float_of_int n;
        d_min = List.hd sorted;
        d_max = List.nth sorted (n - 1);
        d_p95 = percentile sorted 0.95;
      }

(* Duration statistics per span op, sorted by op. *)
let span_stats events : (string * dist) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let prev = Option.value (Hashtbl.find_opt tbl sp.sp_op) ~default:[] in
      Hashtbl.replace tbl sp.sp_op (sp.sp_dur :: prev))
    (spans events);
  Hashtbl.fold (fun op durs acc -> (op, dist_of durs) :: acc) tbl []
  |> List.sort compare

(* Event counts per constructor tag, sorted by tag. *)
let event_counts (events : Trace.stamped list) : (string * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (st : Trace.stamped) ->
      let k = Trace.event_name st.Trace.ev in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    events;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

let pp_span_stats fmt stats =
  Format.fprintf fmt "@[<v>%-14s %6s %10s %10s %10s %10s@," "span" "count" "mean" "min"
    "max" "p95";
  List.iter
    (fun (op, d) ->
      Format.fprintf fmt "%-14s %6d %10.1f %10.1f %10.1f %10.1f@," op d.d_count d.d_mean
        d.d_min d.d_max d.d_p95)
    stats;
  Format.fprintf fmt "(durations in simulated cycles)@]"

(* ------------------------------------------------------------------ *)
(* Bench diff                                                          *)
(* ------------------------------------------------------------------ *)

type delta = {
  dl_exp : string;  (* experiment id *)
  dl_label : string;  (* row label *)
  dl_field : string;  (* field name; measurement objects compare "f.mean" *)
  dl_base : float;
  dl_fresh : float option;  (* None: the fresh run lacks the leaf *)
  dl_pct : float;  (* (fresh - base) / |base| * 100; infinity when missing *)
}

(* Host wall-clock fields vary run to run on the same tree; everything
   else in a bench document is a pure function of the simulator and must
   reproduce exactly.  The default skip list is exactly the
   nondeterministic set. *)
let default_skip ~label ~field =
  label = "host-ms" || field = "commit_ms" || field = "revert_ms"

let pct ~base ~fresh =
  if base = 0.0 then if fresh = 0.0 then 0.0 else 100.0
  else (fresh -. base) /. Float.abs base *. 100.0

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let schema_of doc =
  match Json.member "schema" doc with Some (Json.String s) -> Some s | _ -> None

exception Bad_document of string

let experiments_of what doc =
  (match schema_of doc with
  | Some "mv-bench-rows/1" -> ()
  | Some other ->
      raise (Bad_document (Printf.sprintf "%s: schema %S, wanted mv-bench-rows/1" what other))
  | None -> raise (Bad_document (what ^ ": missing schema tag")));
  match Json.member "experiments" doc with
  | Some (Json.Obj exps) -> exps
  | _ -> raise (Bad_document (what ^ ": missing experiments object"))

let row_label = function
  | Json.Obj fields -> (
      match List.assoc_opt "label" fields with Some (Json.String l) -> Some l | _ -> None)
  | _ -> None

(* A comparable leaf: a number, or a measurement object's mean. *)
let leaf = function
  | Json.Obj _ as m -> Option.bind (Json.member "mean" m) number
  | v -> number v

(* Compare every numeric leaf of the baseline, matching rows by label
   within each experiment.  Measurement objects (those with a "mean"
   member) contribute only their mean — the trend-level signal; the
   spread fields restate the same samples.  [skip] filters fields known
   to be nondeterministic (host wall-clock).  A leaf the fresh document
   lacks — its row or its field dropped — is reported missing, unless
   the fresh document did not run the experiment at all (an --only
   run). *)
let bench_diff ?(skip = default_skip) ~base ~fresh () : (delta list, string) result =
  match
    let base_exps = experiments_of "baseline" base in
    let fresh_exps = experiments_of "fresh" fresh in
    let out = ref [] in
    let emit dl_exp dl_label dl_field b f =
      let dl_pct = match f with Some f -> pct ~base:b ~fresh:f | None -> infinity in
      out := { dl_exp; dl_label; dl_field; dl_base = b; dl_fresh = f; dl_pct } :: !out
    in
    List.iter
      (fun (exp, base_rows) ->
        match (base_rows, List.assoc_opt exp fresh_exps) with
        | Json.List base_rows, Some (Json.List fresh_rows) ->
            List.iter
              (fun base_row ->
                match (row_label base_row, base_row) with
                | Some label, Json.Obj base_fields when not (skip ~label ~field:"") ->
                    let fresh_fields =
                      match List.find_opt (fun r -> row_label r = Some label) fresh_rows with
                      | Some (Json.Obj fields) -> fields
                      | _ -> []
                    in
                    List.iter
                      (fun (field, bv) ->
                        match leaf bv with
                        | Some b when field <> "label" && not (skip ~label ~field) ->
                            let name =
                              match bv with Json.Obj _ -> field ^ ".mean" | _ -> field
                            in
                            emit exp label name b
                              (Option.bind (List.assoc_opt field fresh_fields) leaf)
                        | _ -> ())
                      base_fields
                | _ -> ())
              base_rows
        | _ -> ())
      base_exps;
    List.rev !out
  with
  | deltas -> Ok deltas
  | exception Bad_document msg -> Error msg

(* Deltas whose magnitude exceeds [threshold] percent, worst first.  The
   simulator is deterministic, so on an unchanged tree every delta is
   zero; any drift — faster or slower — means the committed baseline no
   longer describes the tree and the gate should fail. *)
let regressions ~threshold deltas =
  List.filter (fun d -> Float.abs d.dl_pct > threshold) deltas
  |> List.sort (fun a b -> compare (Float.abs b.dl_pct) (Float.abs a.dl_pct))

let pp_delta fmt d =
  match d.dl_fresh with
  | Some fresh ->
      Format.fprintf fmt "%-24s %-28s %-24s %12.4f %12.4f %+9.2f%%" d.dl_exp
        d.dl_label d.dl_field d.dl_base fresh d.dl_pct
  | None ->
      Format.fprintf fmt "%-24s %-28s %-24s %12.4f %12s %10s" d.dl_exp d.dl_label
        d.dl_field d.dl_base "missing" "-"

let pp_deltas ?(only_changed = true) fmt deltas =
  let changed d = Float.abs d.dl_pct > 1e-6 in
  let shown = if only_changed then List.filter changed deltas else deltas in
  let missing = List.filter (fun d -> d.dl_fresh = None) deltas in
  Format.fprintf fmt "@[<v>%-24s %-28s %-24s %12s %12s %10s@," "experiment" "label"
    "field" "baseline" "fresh" "delta";
  List.iter (fun d -> Format.fprintf fmt "%a@," pp_delta d) shown;
  Format.fprintf fmt "(%d comparisons, %d changed, %d missing)@]"
    (List.length deltas - List.length missing)
    (List.length (List.filter (fun d -> d.dl_fresh <> None && changed d) deltas))
    (List.length missing)

let deltas_json deltas : Json.t =
  Json.List
    (List.map
       (fun d ->
         Json.Obj
           [
             ("experiment", Json.String d.dl_exp);
             ("label", Json.String d.dl_label);
             ("field", Json.String d.dl_field);
             ("baseline", Json.Float d.dl_base);
             ("fresh", match d.dl_fresh with Some f -> Json.Float f | None -> Json.Null);
             ("pct", Json.Float d.dl_pct);
           ])
       deltas)
