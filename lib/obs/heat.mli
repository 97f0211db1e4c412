(** Code-heat and variant-lifecycle telemetry: fold the machine's
    superblock hit counters into per-region heat, track how long each
    variant stays resident, and advise which variants to evict under a
    text-memory budget.

    The data flow is pay-for-use end to end.  The VM counts superblock
    entries host-side (see [Mv_vm.Machine.enable_heat] — an array
    increment on the block-dispatch slow path, zero simulated cycles,
    and the counters live outside the superblocks so they survive
    [text_poke]/[flush_icache] invalidation).  The runtime names every
    generic body and variant as a {!region}
    ([Core.Runtime.heat_regions]); {!observe} attributes block-hit
    deltas to the region containing the block's entry and accumulates
    executed-byte coverage; {!sink} watches the existing trace events
    for variant installs, whole-image reverts, and fallbacks to maintain
    residency intervals.  Nothing here touches the simulated clock: the
    obs-overhead bench's [heat] arm pins the cycle delta at +0.00%.

    {!evict_plan} is the eviction {e advisor}: a report-only ranking of
    the currently resident variants by decayed hotness per byte, feeding
    the ROADMAP's lazy-materialization item — the actual evictor
    consumes the plan in a later PR. *)

(** What a region's bytes are: a multiversed function's generic body, or
    one generated variant body. *)
type kind = Generic | Variant

(** A named text region — one body the compiler emitted. *)
type region = {
  r_name : string;  (** symbol, e.g. ["spin_lock.config_smp=1"] *)
  r_fn : string;  (** owning multiversed function *)
  r_kind : kind;
  r_switches : string;
      (** the switch binding the region specializes, rendered as
          ["switch=value"] (comma-joined, ranges as [lo..hi]); [""] for
          a generic body *)
  r_lo : int;  (** absolute first byte *)
  r_hi : int;  (** absolute one-past-last byte *)
}

(** The JSON export's schema tag, ["mv-heat/1"]. *)
val schema : string

(** The heat accumulator: registered regions, folded block counters,
    epoch state and variant residency.  One per session (or per hart
    group under SMP — distinct harts fold under distinct [source]s). *)
type t

(** [create ()] builds an empty accumulator.  [decay] (default 0.5) is
    the per-epoch score multiplier: at each {!epoch} boundary the
    hotness score becomes [score *. decay +. hits_this_epoch], so old
    heat fades geometrically and an idle region cools toward zero. *)
val create : ?decay:float -> unit -> t

(** Register one region.  Registration order is preserved by every
    report.  Re-registering a name replaces the old extent (a lazily
    materialized variant can come back at another address); its
    coverage is cleared only when the extent moved, so re-registering
    the same census keeps every covered byte. *)
val register : t -> region -> unit

(** Registered regions, in registration order. *)
val regions : t -> region list

(** Fold a block-hit snapshot into the per-region accumulators.  Each
    element is [(lo, hi, hits, insns)] — absolute byte range of one
    superblock entry, cumulative entry count, cumulative instructions
    dispatched from it (the shape [Mv_vm.Machine.heat_blocks] returns).
    Counters are cumulative per source, so re-observing computes deltas
    internally; [source] distinguishes machines whose counters share
    text offsets (pass the hart id under SMP).  Hits and instructions
    are attributed to the region containing the block's {e entry};
    coverage clips the block's byte range against every overlapping
    region. *)
val observe : ?source:int -> t -> (int * int * int * int) list -> unit

(** Close the current decay epoch: every region's score becomes
    [score *. decay +. epoch_hits], and the epoch hit counters reset. *)
val epoch : t -> unit

(** Number of {!epoch} calls so far. *)
val epochs : t -> int

(** A region's hotness right now: the decayed score plus the (not yet
    decayed) hits of the current epoch. *)
val hotness : t -> region -> float

(** Per-region accounting, in registration order. *)
type region_stat = {
  rs_region : region;
  rs_hits : int;  (** cumulative superblock entries *)
  rs_insns : int;  (** cumulative instructions dispatched *)
  rs_heat : float;  (** {!hotness} *)
  rs_covered : int;  (** distinct executed bytes (block-extent union) *)
}

(** Every registered region's statistics, in registration order. *)
val region_stats : t -> region_stat list

(** The residency sink: watches the existing trace-event stream for
    variant lifecycle edges.  [Variant_selected] opens a residency
    interval for (fn, variant), closing the function's previous one;
    [Variant_unbound] closes the function's interval.  The runtime emits
    it whenever a bound function returns to generic — whole-image and
    targeted reverts, fallbacks, evictions, drained unbinds and
    rollbacks — so a deferred unbind keeps the variant resident until
    its safepoint.  [clock] supplies interval endpoints (wire to the
    machine's cycle counter).  Tee it into the session's sink chain
    ([Harness.enable_heat] does). *)
val sink : t -> clock:(unit -> float) -> Trace.sink

(** One variant's lifecycle accounting. *)
type stay = {
  st_fn : string;
  st_variant : string;
  st_installs : int;  (** times a [Variant_selected] named it *)
  st_resident : float;  (** simulated cycles spent resident *)
  st_active : bool;  (** resident right now *)
}

(** Lifecycle rows for every variant ever installed, sorted by (fn,
    variant).  [now] extends still-open intervals to the given clock
    reading (default: count only closed intervals). *)
val stays : ?now:float -> t -> stay list

(** Is this variant the one currently resident for its function? *)
val resident : t -> fn:string -> variant:string -> bool

(** The advisor's verdict for one resident variant. *)
type verdict = Keep | Evict

(** One entry of the eviction plan. *)
type advice = {
  ad_region : region;
  ad_heat : float;
  ad_bytes : int;
  ad_verdict : verdict;
}

(** Rank the currently resident variant regions by heat density
    (hotness per byte, then hotness, then name — fully deterministic)
    and keep the densest prefix whose cumulative size fits [budget]
    bytes; everything past the budget is marked [Evict].  Regions with
    one extent (aliases of one deduplicated body) count its bytes once:
    an alias of a kept body is kept at no further cost, and [ad_bytes]
    is still the whole body.  Report-only:
    nothing is patched.  A [budget] of 0 or less keeps nothing;
    non-resident variants do not appear (there is nothing to evict).
    [exclude] removes variants (by region name) from the candidate set
    entirely — pass [Core.Runtime.pending_variants] so a variant a
    journaled-but-undrained bind still needs is never advised away; an
    excluded variant neither appears in the plan nor consumes budget. *)
val evict_plan : ?exclude:string list -> t -> budget:int -> advice list

(** The accumulator as a [mv-heat/1] document: decay/epoch parameters,
    a [regions] array (extent, switches, hits, insns, heat, coverage),
    a [variants] array (installs, residency, active flag), and — when
    [budget] is given — the advisor's [plan].  [now] is threaded to
    {!stays} and [exclude] to {!evict_plan}. *)
val to_json : ?budget:int -> ?exclude:string list -> ?now:float -> t -> Json.t

(** Bridge the current state into a metrics registry:
    [mv_region_heat{region}] gauges carry each region's hotness, and
    [mv_variant_resident_bytes{fn,variant}] each variant region's byte
    size while resident (0 once it is not).  Aliases that share a body
    each report its whole size, so a sum over the gauge counts a shared
    body once per resident alias.  Gauges, because heat is already
    cumulative state: re-bridging overwrites. *)
val to_metrics : t -> Metrics.t -> unit

(** The per-region heatmap table with ASCII heat bars (the [mvtrace
    heat] rendering). *)
val pp : Format.formatter -> t -> unit

(** The variant lifecycle table: installs, residency, heat, and — when
    [budget] is given — the advisor verdict (the [mvtrace variants]
    rendering).  [exclude] is threaded to {!evict_plan}. *)
val pp_variants :
  ?budget:int -> ?exclude:string list -> ?now:float -> Format.formatter -> t -> unit
