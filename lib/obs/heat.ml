(* Code-heat accumulator: block-hit deltas folded into named text
   regions, epoch-decayed hotness, residency intervals from the trace
   stream, and the eviction advisor.  See heat.mli. *)

type kind = Generic | Variant

type region = {
  r_name : string;
  r_fn : string;
  r_kind : kind;
  r_switches : string;
  r_lo : int;
  r_hi : int;
}

(* Mutable per-region accumulator.  [covered] is a sorted list of
   disjoint half-open byte intervals, clipped to the region. *)
type rstate = {
  mutable s_region : region;
  mutable s_hits : int;
  mutable s_insns : int;
  mutable s_epoch_hits : int;
  mutable s_score : float;
  mutable s_covered : (int * int) list;
}

type residency = {
  mutable rv_installs : int;
  mutable rv_resident : float;
  mutable rv_since : float option;
}

type t = {
  decay : float;
  mutable states : rstate list; (* reverse registration order *)
  by_name : (string, rstate) Hashtbl.t;
  (* (source, block lo) -> last cumulative (hits, insns) seen, so
     re-observing the same machine folds only the delta. *)
  last : (int * int, int * int) Hashtbl.t;
  lives : (string * string, residency) Hashtbl.t;
  current : (string, string) Hashtbl.t; (* fn -> resident variant *)
  mutable n_epochs : int;
}

let create ?(decay = 0.5) () =
  {
    decay;
    states = [];
    by_name = Hashtbl.create 16;
    last = Hashtbl.create 64;
    lives = Hashtbl.create 16;
    current = Hashtbl.create 16;
    n_epochs = 0;
  }

(* Re-registering a region keeps its coverage unless its extent moved:
   [observe] folds only new hits, so blocks covered before would never
   be covered again. *)
let register t r =
  match Hashtbl.find_opt t.by_name r.r_name with
  | Some s ->
      if s.s_region.r_lo <> r.r_lo || s.s_region.r_hi <> r.r_hi then s.s_covered <- [];
      s.s_region <- r
  | None ->
      let s =
        {
          s_region = r;
          s_hits = 0;
          s_insns = 0;
          s_epoch_hits = 0;
          s_score = 0.;
          s_covered = [];
        }
      in
      Hashtbl.replace t.by_name r.r_name s;
      t.states <- s :: t.states

let ordered t = List.rev t.states
let regions t = List.map (fun s -> s.s_region) (ordered t)

(* Insert [lo, hi) into a sorted disjoint interval list, merging. *)
let add_interval ivs (lo, hi) =
  if hi <= lo then ivs
  else
    let rec go = function
      | [] -> [ (lo, hi) ]
      | (a, b) :: rest when b < lo -> (a, b) :: go rest
      | (a, b) :: rest when hi < a -> (lo, hi) :: (a, b) :: rest
      | (a, b) :: rest ->
          (* overlap or touch: absorb and keep merging rightward *)
          let lo = min a lo and hi = max b hi in
          let rec absorb hi = function
            | (a, b) :: rest when a <= hi -> absorb (max b hi) rest
            | rest -> (hi, rest)
          in
          let hi, rest = absorb hi rest in
          (lo, hi) :: rest
    in
    go ivs

let covered_bytes ivs = List.fold_left (fun n (a, b) -> n + (b - a)) 0 ivs

let observe ?(source = 0) t blocks =
  List.iter
    (fun (lo, hi, hits, insns) ->
      let key = (source, lo) in
      let ph, pi =
        match Hashtbl.find_opt t.last key with Some p -> p | None -> (0, 0)
      in
      if hits > ph then begin
        Hashtbl.replace t.last key (hits, insns);
        let dh = hits - ph and di = max 0 (insns - pi) in
        List.iter
          (fun s ->
            let r = s.s_region in
            if lo >= r.r_lo && lo < r.r_hi then begin
              s.s_hits <- s.s_hits + dh;
              s.s_insns <- s.s_insns + di;
              s.s_epoch_hits <- s.s_epoch_hits + dh
            end;
            if lo < r.r_hi && hi > r.r_lo then
              s.s_covered <-
                add_interval s.s_covered (max lo r.r_lo, min hi r.r_hi))
          t.states
      end)
    blocks

let epoch t =
  t.n_epochs <- t.n_epochs + 1;
  List.iter
    (fun s ->
      s.s_score <- (s.s_score *. t.decay) +. float_of_int s.s_epoch_hits;
      s.s_epoch_hits <- 0)
    t.states

let epochs t = t.n_epochs
let heat_of s = s.s_score +. float_of_int s.s_epoch_hits

let hotness t r =
  match Hashtbl.find_opt t.by_name r.r_name with
  | Some s -> heat_of s
  | None -> 0.

type region_stat = {
  rs_region : region;
  rs_hits : int;
  rs_insns : int;
  rs_heat : float;
  rs_covered : int;
}

let region_stats t =
  List.map
    (fun s ->
      {
        rs_region = s.s_region;
        rs_hits = s.s_hits;
        rs_insns = s.s_insns;
        rs_heat = heat_of s;
        rs_covered = covered_bytes s.s_covered;
      })
    (ordered t)

(* --- residency ------------------------------------------------------ *)

let life t fn variant =
  let key = (fn, variant) in
  match Hashtbl.find_opt t.lives key with
  | Some rv -> rv
  | None ->
      let rv = { rv_installs = 0; rv_resident = 0.; rv_since = None } in
      Hashtbl.replace t.lives key rv;
      rv

let close_fn t fn now =
  match Hashtbl.find_opt t.current fn with
  | None -> ()
  | Some variant ->
      Hashtbl.remove t.current fn;
      let rv = life t fn variant in
      (match rv.rv_since with
      | Some since -> rv.rv_resident <- rv.rv_resident +. max 0. (now -. since)
      | None -> ());
      rv.rv_since <- None

let sink t ~clock : Trace.sink =
 fun ev ->
  match ev with
  | Trace.Variant_selected { fn; variant } ->
      let now = clock () in
      close_fn t fn now;
      let rv = life t fn variant in
      rv.rv_installs <- rv.rv_installs + 1;
      rv.rv_since <- Some now;
      Hashtbl.replace t.current fn variant
  | Trace.Variant_unbound { fn; _ } -> close_fn t fn (clock ())
  | _ -> ()

type stay = {
  st_fn : string;
  st_variant : string;
  st_installs : int;
  st_resident : float;
  st_active : bool;
}

let stays ?now t =
  Hashtbl.fold
    (fun (fn, variant) rv acc ->
      let active = Hashtbl.find_opt t.current fn = Some variant in
      let resident =
        match (rv.rv_since, now) with
        | Some since, Some now when active ->
            rv.rv_resident +. max 0. (now -. since)
        | _ -> rv.rv_resident
      in
      {
        st_fn = fn;
        st_variant = variant;
        st_installs = rv.rv_installs;
        st_resident = resident;
        st_active = active;
      }
      :: acc)
    t.lives []
  |> List.sort (fun a b ->
         match compare a.st_fn b.st_fn with
         | 0 -> compare a.st_variant b.st_variant
         | c -> c)

let resident t ~fn ~variant = Hashtbl.find_opt t.current fn = Some variant

(* --- eviction advisor ----------------------------------------------- *)

type verdict = Keep | Evict
type advice = { ad_region : region; ad_heat : float; ad_bytes : int; ad_verdict : verdict }

let evict_plan ?(exclude = []) t ~budget =
  let candidates =
    List.filter
      (fun s ->
        let r = s.s_region in
        r.r_kind = Variant
        && resident t ~fn:r.r_fn ~variant:r.r_name
        (* a variant a journaled-but-undrained patch set still needs must
           not be advised away: its body has to survive until the bind
           lands (callers pass [Runtime.pending_variants]) *)
        && not (List.mem r.r_name exclude))
      (ordered t)
  in
  let density s =
    let bytes = max 1 (s.s_region.r_hi - s.s_region.r_lo) in
    heat_of s /. float_of_int bytes
  in
  let ranked =
    List.sort
      (fun a b ->
        match compare (density b) (density a) with
        | 0 -> (
            match compare (heat_of b) (heat_of a) with
            | 0 -> compare a.s_region.r_name b.s_region.r_name
            | c -> c)
        | c -> c)
      candidates
  in
  (* aliases of one deduplicated body share its extent: the body takes
     budget once, and every alias of a kept body is kept with it *)
  let spent = ref 0 and kept = ref [] in
  List.map
    (fun s ->
      let r = s.s_region in
      let bytes = r.r_hi - r.r_lo in
      let verdict =
        if List.mem (r.r_lo, r.r_hi) !kept then Keep
        else if !spent + bytes <= budget then begin
          spent := !spent + bytes;
          kept := (r.r_lo, r.r_hi) :: !kept;
          Keep
        end
        else Evict
      in
      { ad_region = r; ad_heat = heat_of s; ad_bytes = bytes; ad_verdict = verdict })
    ranked

(* --- exports --------------------------------------------------------- *)

let schema = "mv-heat/1"

let kind_name = function Generic -> "generic" | Variant -> "variant"

let to_json ?budget ?(exclude = []) ?now t =
  let region_json st =
    let r = st.rs_region in
    Json.Obj
      [
        ("name", Json.String r.r_name);
        ("fn", Json.String r.r_fn);
        ("kind", Json.String (kind_name r.r_kind));
        ("switches", Json.String r.r_switches);
        ("lo", Json.Int r.r_lo);
        ("hi", Json.Int r.r_hi);
        ("bytes", Json.Int (r.r_hi - r.r_lo));
        ("hits", Json.Int st.rs_hits);
        ("insns", Json.Int st.rs_insns);
        ("heat", Json.Float st.rs_heat);
        ("covered_bytes", Json.Int st.rs_covered);
      ]
  in
  let stay_json st =
    Json.Obj
      [
        ("fn", Json.String st.st_fn);
        ("variant", Json.String st.st_variant);
        ("installs", Json.Int st.st_installs);
        ("resident_cycles", Json.Float st.st_resident);
        ("active", Json.Bool st.st_active);
      ]
  in
  let plan =
    match budget with
    | None -> []
    | Some budget ->
        let entry a =
          Json.Obj
            [
              ("variant", Json.String a.ad_region.r_name);
              ("fn", Json.String a.ad_region.r_fn);
              ("heat", Json.Float a.ad_heat);
              ("bytes", Json.Int a.ad_bytes);
              ( "verdict",
                Json.String
                  (match a.ad_verdict with Keep -> "keep" | Evict -> "evict")
              );
            ]
        in
        [
          ( "plan",
            Json.Obj
              [
                ("budget_bytes", Json.Int budget);
                ("entries", Json.List (List.map entry (evict_plan ~exclude t ~budget)));
              ] );
        ]
  in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("decay", Json.Float t.decay);
       ("epochs", Json.Int t.n_epochs);
       ("regions", Json.List (List.map region_json (region_stats t)));
       ("variants", Json.List (List.map stay_json (stays ?now t)));
     ]
    @ plan)

let to_metrics t m =
  List.iter
    (fun s ->
      let r = s.s_region in
      Metrics.set_gauge m "mv_region_heat"
        [ ("region", r.r_name) ]
        (heat_of s);
      if r.r_kind = Variant then
        Metrics.set_gauge m "mv_variant_resident_bytes"
          [ ("fn", r.r_fn); ("variant", r.r_name) ]
          (if resident t ~fn:r.r_fn ~variant:r.r_name then
             float_of_int (r.r_hi - r.r_lo)
           else 0.))
    (ordered t)

(* --- rendering ------------------------------------------------------- *)

let bar_width = 24

let bar heat max_heat =
  if max_heat <= 0. || heat <= 0. then ""
  else
    let n =
      max 1 (int_of_float (Float.round (heat /. max_heat *. float_of_int bar_width)))
    in
    String.make (min bar_width n) '#'

let pp ppf t =
  let stats = region_stats t in
  let max_heat = List.fold_left (fun m s -> Float.max m s.rs_heat) 0. stats in
  let name_w =
    List.fold_left (fun w s -> max w (String.length s.rs_region.r_name)) 6 stats
  in
  Format.fprintf ppf "%-*s  %-7s  %6s  %8s  %6s  %8s  %10s  %s@." name_w
    "region" "kind" "bytes" "covered" "cover%" "hits" "heat" "";
  List.iter
    (fun s ->
      let r = s.rs_region in
      let bytes = r.r_hi - r.r_lo in
      let pct =
        if bytes = 0 then 0.
        else 100. *. float_of_int s.rs_covered /. float_of_int bytes
      in
      Format.fprintf ppf "%-*s  %-7s  %6d  %8d  %5.1f%%  %8d  %10.1f  %s@."
        name_w r.r_name (kind_name r.r_kind) bytes s.rs_covered pct s.rs_hits
        s.rs_heat (bar s.rs_heat max_heat))
    stats

let pp_variants ?budget ?(exclude = []) ?now ppf t =
  let verdicts =
    match budget with
    | None -> []
    | Some budget ->
        List.map
          (fun a -> (a.ad_region.r_name, a.ad_verdict))
          (evict_plan ~exclude t ~budget)
  in
  let verdict_name variant active =
    match List.assoc_opt variant verdicts with
    | Some Keep -> "keep"
    | Some Evict -> "evict"
    | None -> if budget = None then "-" else if active then "?" else "-"
  in
  let rows = stays ?now t in
  let w get init = List.fold_left (fun w r -> max w (String.length (get r))) init rows in
  let fn_w = w (fun r -> r.st_fn) 2 and va_w = w (fun r -> r.st_variant) 7 in
  Format.fprintf ppf "%-*s  %-*s  %8s  %14s  %-6s  %10s  %s@." fn_w "fn" va_w
    "variant" "installs" "resident_cyc" "active" "heat" "verdict";
  List.iter
    (fun r ->
      let heat =
        match Hashtbl.find_opt t.by_name r.st_variant with
        | Some s -> heat_of s
        | None -> 0.
      in
      Format.fprintf ppf "%-*s  %-*s  %8d  %14.0f  %-6s  %10.1f  %s@." fn_w
        r.st_fn va_w r.st_variant r.st_installs r.st_resident
        (if r.st_active then "yes" else "no")
        heat
        (verdict_name r.st_variant r.st_active))
    rows
