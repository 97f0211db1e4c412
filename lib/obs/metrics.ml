(* A process-wide metrics registry: counters, gauges, and histograms, each
   identified by a name plus a label set — the Prometheus data model,
   scoped to one registry value instead of global state so tests and
   sessions stay isolated.

   Nothing in the hot paths knows about this module: the registry is fed
   by interpreting the structured trace events the runtime and machine
   already emit ([trace_sink]), so arming metrics costs exactly one more
   closure call per event and zero new hook sites. *)

type labels = (string * string) list

type hist = {
  bounds : float array;  (* upper bucket bounds, strictly increasing *)
  counts : int array;  (* one per bound, plus the +inf overflow bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type value =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of hist

type t = { table : (string * labels, value) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let default_bounds =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.;
     20_000.; 50_000.; 100_000. |]

let canon labels = List.sort compare labels

let find_or_add t name labels build =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.table key with
  | Some v -> v
  | None ->
      let v = build () in
      Hashtbl.add t.table key v;
      v

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let inc ?(by = 1) t name labels =
  match find_or_add t name labels (fun () -> Counter { c = 0 }) with
  | Counter c -> c.c <- c.c + by
  | _ -> kind_mismatch name

let set_gauge t name labels v =
  match find_or_add t name labels (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g.g <- v
  | _ -> kind_mismatch name

let observe ?bounds t name labels v =
  let build () =
    let bounds = Option.value bounds ~default:default_bounds in
    Histogram
      {
        bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
      }
  in
  match find_or_add t name labels build with
  | Histogram h ->
      let rec bucket i =
        if i >= Array.length h.bounds then i
        else if v <= h.bounds.(i) then i
        else bucket (i + 1)
      in
      let b = bucket 0 in
      h.counts.(b) <- h.counts.(b) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
  | _ -> kind_mismatch name

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

let counter_value t name labels =
  match Hashtbl.find_opt t.table (name, canon labels) with
  | Some (Counter c) -> c.c
  | _ -> 0

let gauge_value t name labels =
  match Hashtbl.find_opt t.table (name, canon labels) with
  | Some (Gauge g) -> Some g.g
  | _ -> None

type hist_summary = { hs_count : int; hs_sum : float; hs_mean : float; hs_min : float; hs_max : float }

let histogram_summary t name labels =
  match Hashtbl.find_opt t.table (name, canon labels) with
  | Some (Histogram h) when h.h_count > 0 ->
      Some
        {
          hs_count = h.h_count;
          hs_sum = h.h_sum;
          hs_mean = h.h_sum /. float_of_int h.h_count;
          hs_min = h.h_min;
          hs_max = h.h_max;
        }
  | _ -> None

(* All registered series, sorted by (name, labels) for stable output. *)
let sorted_entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let names t =
  sorted_entries t |> List.map (fun ((name, _), _) -> name) |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let to_json t : Json.t =
  let series ((name, labels), v) =
    let base =
      [
        ("name", Json.String name);
        ("labels", Json.Obj (List.map (fun (k, s) -> (k, Json.String s)) labels));
      ]
    in
    let payload =
      match v with
      | Counter c -> [ ("type", Json.String "counter"); ("value", Json.Int c.c) ]
      | Gauge g -> [ ("type", Json.String "gauge"); ("value", Json.Float g.g) ]
      | Histogram h ->
          [
            ("type", Json.String "histogram");
            ("count", Json.Int h.h_count);
            ("sum", Json.Float h.h_sum);
            ("min", Json.Float (if h.h_count = 0 then 0.0 else h.h_min));
            ("max", Json.Float (if h.h_count = 0 then 0.0 else h.h_max));
            ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
            ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
          ]
    in
    Json.Obj (base @ payload)
  in
  Json.Obj
    [
      ("schema", Json.String "mv-metrics-registry/1");
      ("series", Json.List (List.map series (sorted_entries t)));
    ]

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun ((name, labels), v) ->
      let lbl =
        match labels with
        | [] -> ""
        | ls ->
            "{"
            ^ String.concat "," (List.map (fun (k, s) -> Printf.sprintf "%s=%s" k s) ls)
            ^ "}"
      in
      match v with
      | Counter c -> Format.fprintf fmt "%s%s %d@," name lbl c.c
      | Gauge g -> Format.fprintf fmt "%s%s %g@," name lbl g.g
      | Histogram h ->
          Format.fprintf fmt "%s%s count=%d sum=%.1f mean=%.2f min=%.1f max=%.1f@," name
            lbl h.h_count h.h_sum
            (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count)
            (if h.h_count = 0 then 0.0 else h.h_min)
            (if h.h_count = 0 then 0.0 else h.h_max))
    (sorted_entries t);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* The trace bridge                                                    *)
(* ------------------------------------------------------------------ *)

(* Interpreting the existing event stream keeps the hot paths untouched:
   the runtime's commit spans become the patch-latency histogram, the
   safe-commit lifecycle becomes the drain-latency histogram, and the
   per-event counters fall out of the event names.  The closure carries
   the little state the durations need (open spans, outstanding defer
   timestamps).  [hart] names the hart an observation is attributed to
   (default: constant 0) so per-hart drain skew shows up in the registry;
   latencies are attributed to the hart that closed them.  A drain pairs
   with the defers of its own [cid], kept per cid: a span journals at
   most one set, and any span may defer (an eviction's unbind, say) while
   an older set is still pending.  A cid's drain or rollback ends its
   stamps.  A superseded set reports nothing, so the begin of a
   whole-image span, which supersedes every set, forgets them all. *)
let trace_sink t ~clock ?(hart = fun () -> 0) () : Trace.sink =
  let open_spans : (string * float) list ref = ref [] in
  let defers : (int, float list) Hashtbl.t = Hashtbl.create 4 in
  let hart_label () = ("hart", string_of_int (hart ())) in
  fun ev ->
    inc t "mv_events_total" [ ("kind", Trace.event_name ev) ];
    match ev with
    | Trace.Commit_begin { op; switches; _ } ->
        if List.mem op [ "commit"; "revert"; "commit_safe"; "revert_safe" ] then
          Hashtbl.reset defers;
        open_spans := (op, clock ()) :: !open_spans;
        List.iter
          (fun (n, v) ->
            inc t "mv_commit_switch_total"
              [ ("op", op); ("switch", n); ("value", string_of_int v) ])
          switches
    | Trace.Commit_end { op; _ } -> (
        inc t "mv_commits_total" [ ("op", op) ];
        match !open_spans with
        | (op', ts) :: rest when op' = op ->
            open_spans := rest;
            observe t "mv_patch_latency_cycles"
              [ ("op", op); hart_label () ]
              (clock () -. ts)
        | _ -> ())
    | Trace.Variant_selected { fn; variant } ->
        inc t "mv_variant_installs_total" [ ("fn", fn); ("variant", variant) ]
    | Trace.Variant_unbound _ -> ()
    | Trace.Site_retargeted _ -> inc t "mv_patches_total" [ ("kind", "site_retargeted") ]
    | Trace.Site_inlined _ -> inc t "mv_patches_total" [ ("kind", "site_inlined") ]
    | Trace.Prologue_patched _ ->
        inc t "mv_patches_total" [ ("kind", "prologue_patched") ]
    | Trace.Fallback { fn } -> inc t "mv_fallbacks_total" [ ("fn", fn) ]
    | Trace.Safe_defer { cid; _ } ->
        inc t "mv_safe_total" [ ("outcome", "deferred") ];
        let ts = Option.value (Hashtbl.find_opt defers cid) ~default:[] in
        Hashtbl.replace defers cid (ts @ [ clock () ])
    | Trace.Safe_deny _ -> inc t "mv_safe_total" [ ("outcome", "denied") ]
    | Trace.Pending_drained { cid; actions; _ } ->
        inc t "mv_safe_total" [ ("outcome", "drained") ];
        let now = clock () and lbl = [ hart_label () ] in
        List.iteri
          (fun i ts ->
            if i < actions then observe t "mv_safe_drain_latency_cycles" lbl (now -. ts))
          (Option.value (Hashtbl.find_opt defers cid) ~default:[]);
        Hashtbl.remove defers cid
    | Trace.Pending_rollback { cid; _ } ->
        inc t "mv_safe_total" [ ("outcome", "rolled_back") ];
        Hashtbl.remove defers cid
    | Trace.Safepoint_poll { pending } ->
        inc t "mv_safepoint_polls_total" [];
        set_gauge t "mv_pending_sets" [] (float_of_int pending)
    | Trace.Icache_flush { hart; _ } ->
        inc t "mv_icache_flushes_total" [ ("hart", string_of_int hart) ]
    | Trace.Ipi_send _ -> inc t "mv_ipis_total" [ ("dir", "send") ]
    | Trace.Ipi_ack { hart; wait; _ } ->
        inc t "mv_ipis_total" [ ("dir", "ack") ];
        observe t "mv_ipi_wait_cycles" [ ("hart", string_of_int hart) ] wait
    | Trace.Rendezvous_begin _ -> inc t "mv_rendezvous_total" []
    | Trace.Rendezvous_end { latency; _ } ->
        observe t "mv_rendezvous_latency_cycles" [] latency
    | Trace.Causal_edge { edge; _ } ->
        inc t "mv_causal_edges_total" [ ("edge", edge) ]
    | Trace.Osr_transfer { hart; fn; slots; _ } ->
        inc t "mv_osr_transfers_total" [ ("fn", fn); ("hart", string_of_int hart) ];
        observe t "mv_osr_slots" [ ("fn", fn) ] (float_of_int slots)
    | Trace.Variant_materialized { fn; size; dedup; _ } ->
        inc t "mv_variant_cache_materializations_total"
          [ ("fn", fn); ("dedup", if dedup then "hit" else "miss") ];
        if not dedup then
          observe t "mv_variant_cache_body_bytes" [ ("fn", fn) ] (float_of_int size)
    | Trace.Variant_evicted { fn; freed; _ } ->
        inc t "mv_variant_cache_evictions_total" [ ("fn", fn) ];
        observe t "mv_variant_cache_freed_bytes" [ ("fn", fn) ] (float_of_int freed)
