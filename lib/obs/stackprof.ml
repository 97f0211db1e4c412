(* Stack-aware interval sampler: every [interval]-th executed instruction,
   symbolize the machine's whole call stack (the frames accessor plus the
   current pc as the leaf) and attribute the cycles elapsed since the last
   sample to the collapsed stack — the folded-stack model of perf-record +
   stackcollapse, so the output feeds flamegraph.pl or speedscope
   directly.  Attribution is interval sampling, approximate in exactly the
   way hardware PMU sampling is — cycles spent in short callees between
   samples land on whoever holds the pc at sample time — cheap per step
   and converging with run length. *)

type row = {
  s_stack : string list;  (* outermost first; the leaf is last *)
  s_samples : int;
  s_cycles : float;
  s_share : float;
  s_variant : bool;  (* some frame of the stack is a generated variant *)
}

type cell = {
  stack : string list;
  mutable c_samples : int;
  mutable c_cycles : float;
}

type t = {
  resolve : int -> string option;
  is_variant : string -> bool;
  frames : unit -> int list;
  now : unit -> float;
  root : string option;  (* synthetic outermost frame, e.g. "hart0" *)
  interval : int;
  mutable countdown : int;
  mutable last : float;
  mutable total_samples : int;
  mutable total_cycles : float;
  table : (string, cell) Hashtbl.t;  (* keyed by the collapsed stack *)
}

let unknown = "<unknown>"

let create ?(interval = 97) ?(is_variant = fun _ -> false) ?root ~resolve
    ~frames ~now () =
  let interval = max 1 interval in
  {
    resolve;
    is_variant;
    frames;
    now;
    root;
    interval;
    countdown = interval;
    last = now ();
    total_samples = 0;
    total_cycles = 0.0;
    table = Hashtbl.create 64;
  }

let name_of t addr = match t.resolve addr with Some n -> n | None -> unknown

(* The symbolized stack, outermost first.  The innermost frame usually
   contains the pc already; the pc is appended as an extra leaf only when
   it resolves to a different symbol (e.g. a prologue jump landed in a
   variant body: the stack then reads "...;spin_lock;spin_lock.smp=0"). *)
let symbolize t pc =
  let callers = List.rev_map (name_of t) (t.frames ()) in
  let leaf = name_of t pc in
  let stack =
    match List.rev callers with
    | innermost :: _ when innermost = leaf -> callers
    | _ -> callers @ [ leaf ]
  in
  match t.root with None -> stack | Some r -> r :: stack

let sample t pc =
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- t.interval;
    let ts = t.now () in
    let delta = ts -. t.last in
    t.last <- ts;
    let stack = symbolize t pc in
    let key = String.concat ";" stack in
    let cell =
      match Hashtbl.find_opt t.table key with
      | Some c -> c
      | None ->
          let c = { stack; c_samples = 0; c_cycles = 0.0 } in
          Hashtbl.add t.table key c;
          c
    in
    cell.c_samples <- cell.c_samples + 1;
    cell.c_cycles <- cell.c_cycles +. delta;
    t.total_samples <- t.total_samples + 1;
    t.total_cycles <- t.total_cycles +. delta
  end

let samples t = t.total_samples
let cycles t = t.total_cycles

let reset t =
  Hashtbl.reset t.table;
  t.countdown <- t.interval;
  t.last <- t.now ();
  t.total_samples <- 0;
  t.total_cycles <- 0.0

let report t =
  (* total_cycles can be 0 with samples recorded (a clock that never
     advanced): shares are then reported as 0, never NaN *)
  let total = if t.total_cycles > 0.0 then t.total_cycles else 1.0 in
  Hashtbl.fold
    (fun _key cell acc ->
      {
        s_stack = cell.stack;
        s_samples = cell.c_samples;
        s_cycles = cell.c_cycles;
        s_share = cell.c_cycles /. total;
        s_variant = List.exists t.is_variant cell.stack;
      }
      :: acc)
    t.table []
  |> List.sort (fun a b ->
         let c = compare b.s_cycles a.s_cycles in
         if c <> 0 then c else compare a.s_stack b.s_stack)

let variant_share t =
  let rows = report t in
  List.fold_left (fun acc r -> if r.s_variant then acc +. r.s_share else acc) 0.0 rows

(* One folded line per distinct stack, sorted for stable output.  The
   count is the sample count: flamegraph.pl and speedscope both want a
   positive integer weight per line. *)
let folded t =
  let lines =
    Hashtbl.fold
      (fun key cell acc -> (key, cell.c_samples) :: acc)
      t.table []
    |> List.sort compare
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (key, n) ->
      if n > 0 then begin
        Buffer.add_string buf key;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int n);
        Buffer.add_char buf '\n'
      end)
    lines;
  Buffer.contents buf

let pp ?(limit = 10) fmt t =
  let rows = report t in
  Format.fprintf fmt "@[<v>%-56s %8s %12s %7s@," "hot stacks" "samples" "cycles"
    "share";
  List.iteri
    (fun i r ->
      if i < limit then
        Format.fprintf fmt "%-56s %8d %12.1f %6.1f%%@,"
          (String.concat ";" r.s_stack
          ^ if r.s_variant then " [variant]" else "")
          r.s_samples r.s_cycles (100.0 *. r.s_share))
    rows;
  Format.fprintf fmt "(%d samples, %.1f cycles, %.1f%% in variant stacks)@]"
    t.total_samples t.total_cycles
    (100.0 *. variant_share t)

(* The flat view: fold every stack onto its leaf (the sampled pc's
   symbol).  Only the leaf decides the variant flag — a generic leaf
   under a variant caller is time spent in generic code. *)
type leaf = {
  l_name : string;
  l_samples : int;
  l_cycles : float;
  l_share : float;
  l_variant : bool;
}

let leaves ts =
  let table = Hashtbl.create 64 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun _key cell ->
          let name = List.nth cell.stack (List.length cell.stack - 1) in
          let samples, cycles, variant =
            match Hashtbl.find_opt table name with
            | Some acc -> acc
            | None -> (0, 0.0, name <> unknown && t.is_variant name)
          in
          Hashtbl.replace table name
            (samples + cell.c_samples, cycles +. cell.c_cycles, variant))
        t.table)
    ts;
  let total = List.fold_left (fun acc t -> acc +. t.total_cycles) 0.0 ts in
  let total = if total > 0.0 then total else 1.0 in
  Hashtbl.fold
    (fun name (samples, cycles, variant) acc ->
      {
        l_name = name;
        l_samples = samples;
        l_cycles = cycles;
        l_share = cycles /. total;
        l_variant = variant;
      }
      :: acc)
    table []
  |> List.sort (fun a b ->
         let c = compare b.l_cycles a.l_cycles in
         if c <> 0 then c else compare a.l_name b.l_name)

let pp_leaves ?(limit = 10) fmt ts =
  Format.fprintf fmt "@[<v>%-36s %8s %12s %7s@," "hot functions" "samples"
    "cycles" "share";
  List.iteri
    (fun i r ->
      if i < limit then
        Format.fprintf fmt "%-36s %8d %12.1f %6.1f%%@,"
          (if r.l_variant then r.l_name ^ " [variant]" else r.l_name)
          r.l_samples r.l_cycles (100.0 *. r.l_share))
    (leaves ts);
  Format.fprintf fmt "(%d samples, %.1f cycles attributed)@]"
    (List.fold_left (fun acc t -> acc + t.total_samples) 0 ts)
    (List.fold_left (fun acc t -> acc +. t.total_cycles) 0.0 ts)
