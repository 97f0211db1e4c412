(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded from the benchmark's own code, around each call it
   makes into a layer's public functions; nothing inside the program is
   instrumented.  Recording is off unless [enabled] is set, and then
   [with_] is a single branch, so the untraced run pays nothing.

   A span's self time is its duration minus the durations of its child
   spans.  Calls are made from one thread, one at a time, so children
   never overlap one another. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  op : int;  (** operation id shared by every span of one operation *)
  replay : bool;
      (** a call made only by the traced run, to split a layer's time;
          left out of the tracing overhead *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let cur_op = ref (-1)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  cur_op := -1;
  Hashtbl.reset counts

let with_ ?(replay = false) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; op = !cur_op; replay;
        t0 = Unix.gettimeofday (); t1 = nan }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* The root span of operation [op]: its self time is the part of the
   operation no layer span covers. *)
let op op f =
  if not !enabled then f ()
  else begin
    cur_op := op;
    Fun.protect ~finally:(fun () -> cur_op := -1) (fun () -> with_ "op" f)
  end

(* Add [v] to the named counter (traced run only). *)
let count name v =
  if !enabled then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
let dur s = s.t1 -. s.t0

(* Self time of every span, by span id. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  fun s -> dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

let named name = List.filter (fun s -> String.equal s.name name) !recorded

(* Mean self time (seconds) and call count of the spans called [name]. *)
let mean_self name =
  let self = self_times () in
  match named name with
  | [] -> (0.0, 0)
  | l ->
      let n = List.length l in
      (List.fold_left (fun a s -> a +. self s) 0.0 l /. float_of_int n, n)

let total name = List.fold_left (fun a s -> a +. dur s) 0.0 (named name)

(* Write every recorded span as one JSON object per line. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"replay\":%b,\"t0_us\":%.1f,\"t1_us\":%.1f}\n"
        s.id s.name s.parent s.op s.replay (s.t0 *. 1e6) (s.t1 *. 1e6))
    (List.rev !recorded);
  close_out oc

(* Overwrite the named counter (traced run only). *)
let set name v = if !enabled then Hashtbl.replace counts name v
