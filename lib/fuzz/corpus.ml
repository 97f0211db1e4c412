module Json = Mv_obs.Json

type entry = {
  e_seed : int;
  e_oracle : string;
  e_detail : string;
  e_src : string;
  e_args : int list;
  e_assignments : Gen.assignment list;
  e_schedule : Schedule.t;
}

let of_shrunk (r : Shrink.result) : entry =
  let case = r.Shrink.sh_case in
  {
    e_seed = case.Gen.c_seed;
    e_oracle = r.Shrink.sh_divergence.Oracle.d_oracle;
    e_detail = r.Shrink.sh_divergence.Oracle.d_detail;
    e_src = case.Gen.c_src;
    e_args = case.Gen.c_args;
    e_assignments = case.Gen.c_assignments;
    e_schedule = r.Shrink.sh_sched;
  }

let to_case (e : entry) : Gen.case =
  Gen.case_of_source ~seed:e.e_seed ~args:e.e_args ~assignments:e.e_assignments
    e.e_src

let to_json (e : entry) : Json.t =
  Json.Obj
    [
      ("format", Json.String "mv-fuzz-repro/1");
      ("seed", Json.Int e.e_seed);
      ("oracle", Json.String e.e_oracle);
      ("detail", Json.String e.e_detail);
      ("src", Json.String e.e_src);
      ("args", Json.List (List.map (fun a -> Json.Int a) e.e_args));
      ( "assignments",
        Json.List (List.map Schedule.assignment_to_json e.e_assignments) );
      ("schedule", Schedule.to_json e.e_schedule);
    ]

(* Every member must decode.  An optional member that is missing keeps
   its default — args [[1]], no assignments, an empty schedule — but one
   that is present and does not decode is an error naming it: a
   reproducer is replayed as it was written, or not at all. *)
let of_json (j : Json.t) : (entry, string) result =
  let member ?default k decode =
    match (Json.member k j, default) with
    | None, Some d -> Ok d
    | None, None -> Error (k ^ " (missing)")
    | Some v, _ -> Result.map_error (Printf.sprintf "%s (%s)" k) (decode v)
  in
  let str = function Json.String s -> Ok s | _ -> Error "expected a string" in
  let int = function Json.Int i -> Ok i | _ -> Error "expected an integer" in
  let list f = function
    | Json.List xs ->
        List.fold_right
          (fun x acc ->
            match (f x, acc) with Ok v, Ok vs -> Ok (v :: vs) | Error e, _ | _, Error e -> Error e)
          xs (Ok [])
    | _ -> Error "expected a list"
  in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error ("corpus: bad field " ^ e) in
  match Json.member "format" j with
  | Some (Json.String "mv-fuzz-repro/1") ->
      let* seed = member "seed" int in
      let* oracle = member "oracle" str in
      let* () =
        if List.mem oracle Oracle.oracle_names then Ok ()
        else Error (Printf.sprintf "oracle (no oracle named %S)" oracle)
      in
      let* detail = member "detail" str in
      let* src = member "src" str in
      let* args = member "args" ~default:[ 1 ] (list int) in
      let* assignments = member "assignments" ~default:[] (list Schedule.assignment_of_json) in
      let* schedule = member "schedule" ~default:[] Schedule.of_json in
      Ok
        {
          e_seed = seed;
          e_oracle = oracle;
          e_detail = detail;
          e_src = src;
          e_args = args;
          e_assignments = assignments;
          e_schedule = schedule;
        }
  | _ -> Error "corpus: not an mv-fuzz-repro/1 document"

let save ~dir (e : entry) : string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "repro-seed%d-%s.json" e.e_seed e.e_oracle) in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json e));
  output_char oc '\n';
  close_out oc;
  path

let load_file path : (entry, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> Result.bind (Json.parse s) of_json

let load_dir dir : (string * (entry, string) result) list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load_file path))

(* A ready-to-paste Alcotest case.  The schedule travels as JSON text so
   the snippet needs no OCaml literals for the schedule type. *)
let ocaml_snippet (e : entry) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  let assignment_lit (a : Gen.assignment) =
    let ints =
      String.concat "; "
        (List.map (fun (n, v) -> Printf.sprintf "(%S, %d)" n v) a.Gen.a_ints)
    and ptrs =
      String.concat "; "
        (List.map (fun (n, t) -> Printf.sprintf "(%S, %S)" n t) a.Gen.a_ptrs)
    in
    Printf.sprintf "{ Mv_fuzz.Gen.a_ints = [ %s ]; a_ptrs = [ %s ] }" ints ptrs
  in
  pf "(* mvfuzz reproducer: seed %d, oracle %s\n   %s *)\n" e.e_seed e.e_oracle
    e.e_detail;
  pf "Util.tc \"mvfuzz repro seed %d (%s)\" (fun () ->\n" e.e_seed e.e_oracle;
  pf "    let src = {mvsrc|%s|mvsrc} in\n" e.e_src;
  pf "    let assignments = [ %s ] in\n"
    (String.concat ";\n      " (List.map assignment_lit e.e_assignments));
  pf "    let case = Mv_fuzz.Gen.case_of_source ~seed:%d ~args:[ %s ] ~assignments src in\n"
    e.e_seed
    (String.concat "; " (List.map string_of_int e.e_args));
  pf "    let sched =\n";
  pf "      match Mv_obs.Json.parse {mvsch|%s|mvsch} with\n"
    (Json.to_string (Schedule.to_json e.e_schedule));
  pf "      | Ok j -> Result.get_ok (Mv_fuzz.Schedule.of_json j)\n";
  pf "      | Error m -> Alcotest.failf \"schedule json: %%s\" m\n";
  pf "    in\n";
  pf "    match Mv_fuzz.Oracle.run_named %S case sched with\n" e.e_oracle;
  pf "    | None -> ()\n";
  pf "    | Some d -> Alcotest.failf \"%%a\" Mv_fuzz.Oracle.pp_divergence d);\n";
  Buffer.contents b
