(** The lazy variant cache: which variant bodies are resident in the
    image's variant-text region (see {!Runtime.enable_lazy}).

    The cache turns a function's specialization recipe and the current
    switch values into a linked variant body on demand.  It owns the
    recipes and their memo, the structural-hash dedup table, the
    variant-text allocator, the LRU stamps, eviction order under a byte
    budget, and the sweep of victims whose bodies were still in use.  It
    knows nothing of call sites or the journal: a victim's function is
    released, and the bodies still in use are learned, through the
    runtime's {!host}.  The cache is polymorphic in the runtime's handle
    on a function (['fn]), which it only hands back. *)

(** One selectable variant under its own symbol: a descriptor record of
    an eager image, or an alias the cache linked.  Aliases that share a
    deduplicated body share [vn_addr]/[vn_size] but keep their own
    names. *)
type variant = {
  vn_name : string;
  vn_addr : int;  (** body address *)
  vn_size : int;  (** encoded body size *)
  vn_guards : Descriptor.guard_record list;
  mutable vn_stamp : int;  (** LRU clock at the last selection *)
}

(** What the cache asks of the runtime that owns it: its event sink and
    switch reader, and the two things only the runtime knows — how to
    release an installed victim ([release]), and which bodies are live
    or journaled ([in_use], [journaled]). *)
type 'fn host = {
  emit : Mv_obs.Trace.event -> unit;
  read : int -> int;  (** the value of the switch at an address *)
  release : 'fn -> variant -> bool;
      (** An eviction victim: if the function is bound to its body, stage
          the unbind in the runtime's open span, which applies, defers or
          refuses it.  Returns whether the body stays in use. *)
  in_use : 'fn -> variant -> bool;
      (** Whether a victim's body is still in use: its function is bound
          to it (a journaled unbind has not drained), or an activation is
          live in it. *)
  journaled : unit -> int list;
      (** Body addresses that journaled binds, or binds the open span
          deferred, still need. *)
}

type 'fn t

(** Raised when a materialized body cannot be assembled or linked;
    [Runtime] re-exports it as [Runtime_error]. *)
exception Error of string

(** An empty cache over the image's variant-text region: frame maps of
    materialized bodies go to the given {!Osr.t}, their bytes through
    the given patcher.  It has no recipes, so it materializes nothing. *)
val create : Mv_link.Image.t -> Patch.t -> Osr.t -> 'fn t

(** Hand the cache its host, its recipes, the program's call-site padding
    rule and a positive byte budget.  Call once. *)
val enable :
  'fn t ->
  'fn host ->
  recipes:Variantgen.recipe list ->
  call_pad:(string -> int) ->
  budget:int ->
  unit

(** Whether {!enable} has run. *)
val enabled : 'fn t -> bool

(** [select c fn ~name ~sat found] completes a selection for function
    [fn] (symbol [name]): [found] is the first of its descriptor variants
    whose guards [sat] holds.  Without a recipe for [name] it is the
    answer.  Otherwise the first resident alias [sat] holds stands in for
    a [None]; an in-domain hit counts as a cache hit and refreshes the
    alias's LRU stamp, and an in-domain miss materializes the variant (or
    dedup-links a resident body), evicting to fit the budget — [None]
    when the budget or the region cannot fit it. *)
val select :
  'fn t -> 'fn -> name:string -> sat:(variant -> bool) -> variant option -> variant option

(** The recipe of a function symbol, if the cache has one. *)
val recipe : 'fn t -> string -> Variantgen.recipe option

(** A function symbol's resident aliases, in link order. *)
val aliases : 'fn t -> string -> variant list

(** Change the budget and evict down to it where possible. *)
val set_budget : 'fn t -> int -> unit

(** Install (or remove) the eviction advisor. *)
val set_advisor : 'fn t -> (unit -> string list) option -> unit

(** Fuzzing chaos: skip the dedup-table invalidation on free. *)
val set_stale_cache : 'fn t -> bool -> unit

(** Whether eviction victims are waiting for their bodies to come free. *)
val sweeping : 'fn t -> bool

(** Release every waiting victim whose body is no longer in use. *)
val sweep : 'fn t -> unit

(** Resident aliases as (symbol, body address, body size), sorted. *)
val resident : 'fn t -> (string * int * int) list

(** The cache's counters, read-only. *)
type counters = private {
  mutable materialized : int;  (** aliases linked, dedup hits included *)
  mutable dedup_hits : int;
  mutable cache_hits : int;
  mutable evictions : int;
  mutable budget_denials : int;
  mutable bytes : int;  (** resident bytes: unique bodies, allocation-sized *)
  mutable specialized : int;  (** recipe specializations run *)
}

val counters : 'fn t -> counters
