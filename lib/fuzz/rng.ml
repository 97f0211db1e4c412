(* Splitmix64 (Steele, Lea, Flood: "Fast splittable pseudorandom number
   generators"), the standard seedable stream: one 64-bit state word, a
   Weyl-sequence increment, and a finalizer.  Chosen over [Random.State]
   so the byte stream is pinned by this file, not by the OCaml stdlib
   version. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L
let mix1 = 0xBF58476D1CE4E5B9L
let mix2 = 0x94D049BB133111EBL

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) mix1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) mix2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = { state = Int64.of_int seed } in
  (* one warm-up step decorrelates small consecutive seeds *)
  ignore (next t);
  t

let split t label =
  let t' = { state = Int64.logxor (next t) (Int64.of_int (label * 0x2545F491)) } in
  ignore (next t');
  t'

(* top 62 bits as a non-negative OCaml int *)
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = int t 2 = 1
let chance t num den = int t den < num

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let weighted t pairs =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 pairs in
  if total <= 0 then invalid_arg "Rng.weighted: weights must be positive";
  let k = int t total in
  let rec pick k = function
    | [] -> invalid_arg "Rng.weighted: empty list"
    | (w, v) :: rest -> if k < w then v else pick (k - w) rest
  in
  pick k pairs

let sample t k xs =
  let n = List.length xs in
  if k >= n then xs
  else begin
    (* reservoir-free: mark k distinct indices *)
    let picked = Hashtbl.create k in
    while Hashtbl.length picked < k do
      Hashtbl.replace picked (int t n) ()
    done;
    List.filteri (fun i _ -> Hashtbl.mem picked i) xs
  end
