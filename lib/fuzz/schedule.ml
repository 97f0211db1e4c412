module Json = Mv_obs.Json

type mid_op = Mcommit_safe of bool | Mrevert_safe of bool | Mdrain

type top_op =
  | Tset of Gen.assignment
  | Tcommit
  | Trevert
  | Tcommit_safe
  | Trevert_safe
  | Tdrain

type round = { r_top : top_op list; r_mid : (int * mid_op) list; r_arg : int }
type t = round list

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(* Well-formedness, maintained by every template below: a [Tset] is
   always adjacent to an operation that supersedes pending sets and
   brings the committed state back in sync with the new values, so the
   image never runs specialized code for values the switches no longer
   hold.  (At top level the machine is fully quiescent — pc at the return
   sentinel, empty stack — so commit_safe/revert_safe apply immediately
   and cannot themselves leave the state stale.) *)
let gen_top r (assignments : Gen.assignment list) ~first : top_op list =
  let set () = Tset (Rng.choose r assignments) in
  if first then [ set (); (if Rng.bool r then Tcommit else Tcommit_safe) ]
  else
    match
      Rng.weighted r
        [
          (3, `Set_commit);
          (3, `Set_commit_safe);
          (2, `Revert_set);
          (2, `Revert);
          (1, `Revert_safe);
          (1, `Recommit_safe);
          (1, `Drain);
          (1, `Nothing);
          (1, `Set_commit_revert);
        ]
    with
    | `Set_commit -> [ set (); Tcommit ]
    | `Set_commit_safe -> [ set (); Tcommit_safe ]
    | `Revert_set -> [ Trevert; set () ]
    | `Revert -> [ Trevert ]
    | `Revert_safe -> [ Trevert_safe ]
    | `Recommit_safe -> [ Tcommit_safe ]
    | `Drain -> [ Tdrain ]
    | `Nothing -> []
    | `Set_commit_revert -> [ set (); Tcommit; Trevert ]

let gen_mid r : (int * mid_op) list =
  if Rng.chance r 1 3 then []
  else
    let n = Rng.range r 1 3 in
    let op () =
      Rng.weighted r
        [
          (3, Mcommit_safe true);
          (2, Mrevert_safe true);
          (1, Mcommit_safe false);
          (1, Mrevert_safe false);
          (2, Mdrain);
        ]
    in
    List.init n (fun _ -> (Rng.int r 30, op ()))
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let gen r (case : Gen.case) : t =
  let n_rounds = Rng.range r 1 4 in
  List.init n_rounds (fun i ->
      {
        r_top = gen_top r case.Gen.c_assignments ~first:(i = 0);
        r_mid = gen_mid r;
        r_arg = Rng.range r (-4) 20;
      })

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let first_set ops =
  List.find_map (function Tset a -> Some a | _ -> None) ops

(* Candidate replacements for a round's top sequence, all well-formed. *)
let simpler_tops ops : top_op list list =
  let base = [ []; [ Trevert ] ] in
  let with_set =
    match first_set ops with
    | None -> []
    | Some a -> [ [ Tset a; Tcommit ]; [ Trevert; Tset a ] ]
  in
  List.filter (fun c -> c <> ops) (base @ with_set)

let rec drop_nth n = function
  | [] -> []
  | _ :: rest when n = 0 -> rest
  | x :: rest -> x :: drop_nth (n - 1) rest

let rec set_nth n v = function
  | [] -> []
  | _ :: rest when n = 0 -> v :: rest
  | x :: rest -> x :: set_nth (n - 1) v rest

let shrink_candidates (sched : t) : t list =
  let n = List.length sched in
  (* fewer rounds first: the biggest structural cut *)
  let fewer_rounds = List.init n (fun i -> drop_nth i sched) in
  let per_round =
    List.concat
      (List.mapi
         (fun i r ->
           let replace r' = set_nth i r' sched in
           let mid_cuts =
             List.init (List.length r.r_mid) (fun j ->
                 replace { r with r_mid = drop_nth j r.r_mid })
           in
           let mid_zero =
             if List.exists (fun (ix, _) -> ix > 0) r.r_mid then
               [ replace { r with r_mid = List.map (fun (_, op) -> (0, op)) r.r_mid } ]
             else []
           in
           let top_cuts =
             List.map (fun ops -> replace { r with r_top = ops }) (simpler_tops r.r_top)
           in
           let arg_cuts =
             if r.r_arg <> 1 then [ replace { r with r_arg = 1 } ] else []
           in
           mid_cuts @ mid_zero @ top_cuts @ arg_cuts)
         sched)
  in
  List.filter (fun c -> c <> [] && c <> sched) (fewer_rounds @ per_round)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let assignment_to_json (a : Gen.assignment) : Json.t =
  Json.Obj
    [
      ("ints", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) a.Gen.a_ints));
      ("ptrs", Json.Obj (List.map (fun (n, t) -> (n, Json.String t)) a.Gen.a_ptrs));
    ]

(* [f] over every element, or the first error. *)
let rec all f = function
  | [] -> Ok []
  | x :: rest -> (
      match f x with
      | Error _ as e -> e
      | Ok v -> ( match all f rest with Ok vs -> Ok (v :: vs) | e -> e))

let assignment_of_json j : (Gen.assignment, string) result =
  let fields = function Some (Json.Obj kvs) -> Ok kvs | _ -> Error "expected object" in
  match (fields (Json.member "ints" j), fields (Json.member "ptrs" j)) with
  | Ok ints, Ok ptrs ->
      let int_of = function
        | n, Json.Int v -> Ok (n, v)
        | n, _ -> Error ("assignment int " ^ n)
      and str_of = function
        | n, Json.String s -> Ok (n, s)
        | n, _ -> Error ("assignment ptr " ^ n)
      in
      (match (all int_of ints, all str_of ptrs) with
      | Ok a_ints, Ok a_ptrs -> Ok { Gen.a_ints; a_ptrs }
      | Error e, _ | _, Error e -> Error e)
  | Error e, _ | _, Error e -> Error ("assignment: " ^ e)

let mid_to_json (ix, op) : Json.t =
  let name, defer =
    match op with
    | Mcommit_safe d -> ("commit_safe", d)
    | Mrevert_safe d -> ("revert_safe", d)
    | Mdrain -> ("drain", true)
  in
  Json.Obj [ ("at", Json.Int ix); ("op", Json.String name); ("defer", Json.Bool defer) ]

let top_to_json : top_op -> Json.t = function
  | Tset a -> Json.Obj [ ("op", Json.String "set"); ("values", assignment_to_json a) ]
  | Tcommit -> Json.Obj [ ("op", Json.String "commit") ]
  | Trevert -> Json.Obj [ ("op", Json.String "revert") ]
  | Tcommit_safe -> Json.Obj [ ("op", Json.String "commit_safe") ]
  | Trevert_safe -> Json.Obj [ ("op", Json.String "revert_safe") ]
  | Tdrain -> Json.Obj [ ("op", Json.String "drain") ]

let to_json (sched : t) : Json.t =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("top", Json.List (List.map top_to_json r.r_top));
             ("mid", Json.List (List.map mid_to_json r.r_mid));
             ("arg", Json.Int r.r_arg);
           ])
       sched)

let top_of_json j : (top_op, string) result =
  match Json.member "op" j with
  | Some (Json.String "set") -> (
      match Json.member "values" j with
      | Some v -> (
          match assignment_of_json v with Ok a -> Ok (Tset a) | Error e -> Error e)
      | None -> Error "set without values")
  | Some (Json.String "commit") -> Ok Tcommit
  | Some (Json.String "revert") -> Ok Trevert
  | Some (Json.String "commit_safe") -> Ok Tcommit_safe
  | Some (Json.String "revert_safe") -> Ok Trevert_safe
  | Some (Json.String "drain") -> Ok Tdrain
  | _ -> Error "unknown top op"

let mid_of_json j : (int * mid_op, string) result =
  let defer = match Json.member "defer" j with Some (Json.Bool b) -> b | _ -> true in
  match (Json.member "at" j, Json.member "op" j) with
  | Some (Json.Int ix), Some (Json.String "commit_safe") -> Ok (ix, Mcommit_safe defer)
  | Some (Json.Int ix), Some (Json.String "revert_safe") -> Ok (ix, Mrevert_safe defer)
  | Some (Json.Int ix), Some (Json.String "drain") -> Ok (ix, Mdrain)
  | _ -> Error "unknown mid op"

let of_json (j : Json.t) : (t, string) result =
  match j with
  | Json.List rounds ->
      all
        (fun r ->
          let arg = match Json.member "arg" r with Some (Json.Int a) -> a | _ -> 1 in
          let elems = function
            | Some (Json.List xs) -> Ok xs
            | None -> Ok []
            | _ -> Error "expected list"
          in
          match (elems (Json.member "top" r), elems (Json.member "mid" r)) with
          | Ok tops, Ok mids -> (
              match (all top_of_json tops, all mid_of_json mids) with
              | Ok r_top, Ok r_mid -> Ok { r_top; r_mid; r_arg = arg }
              | Error e, _ | _, Error e -> Error e)
          | Error e, _ | _, Error e -> Error e)
        rounds
  | _ -> Error "schedule: expected a list of rounds"

(* ------------------------------------------------------------------ *)
(* Pretty-printing (for reproducer reports)                            *)
(* ------------------------------------------------------------------ *)

let pp_top fmt = function
  | Tset a -> Format.fprintf fmt "set(%a)" Gen.pp_assignment a
  | Tcommit -> Format.pp_print_string fmt "commit"
  | Trevert -> Format.pp_print_string fmt "revert"
  | Tcommit_safe -> Format.pp_print_string fmt "commit_safe"
  | Trevert_safe -> Format.pp_print_string fmt "revert_safe"
  | Tdrain -> Format.pp_print_string fmt "drain"

let pp_mid fmt (ix, op) =
  let name =
    match op with
    | Mcommit_safe true -> "commit_safe"
    | Mcommit_safe false -> "commit_safe[deny]"
    | Mrevert_safe true -> "revert_safe"
    | Mrevert_safe false -> "revert_safe[deny]"
    | Mdrain -> "drain"
  in
  Format.fprintf fmt "@@%d:%s" ix name

let pp fmt (sched : t) =
  List.iteri
    (fun i r ->
      Format.fprintf fmt "round %d: top=[%a] mid=[%a] arg=%d@." i
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_top)
        r.r_top
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") pp_mid)
        r.r_mid r.r_arg)
    sched
