(** The multiverse run-time library: descriptor interpretation, variant
    selection, and installation by binary patching (paper Section 4 and the
    API of Table 1).

    A commit inspects the current values of all configuration switches,
    selects for each multiversed function the variant whose guards match,
    and installs it: every recorded call site is retargeted (or, when the
    body fits, the body is inlined in place of the call — empty bodies
    become pure nops), and the generic prologue is overwritten with a jump
    to the variant so that calls the compiler never saw (function pointers,
    foreign code) land in the bound variant too.  If no variant matches,
    the function reverts to its generic body and the situation is signalled
    through {!fallbacks}.

    Like the paper's library, the {!commit}/{!revert} family performs no
    synchronization: the caller guarantees a patchable state (Section 2).
    The {e safe-commit} extension closes that gap where the execution
    environment can prove quiescence: {!commit_safe}/{!revert_safe} consult
    a live-activation scanner (see [Machine.live_code_addrs]), defer or
    refuse patches whose target bytes have live activations, and apply
    journaled patch sets transactionally at quiescence points
    ({!safepoint}, wired to the machine's safepoint hook).

    Every entry point makes the same per-entity decision — the variant
    (or fn-pointer target) the current switch values select, or the
    generic state with a fallback signal — and hands it to one stager
    that applies it now unless its bytes hold a live activation.
    {!commit}/{!revert} are the whole-image span with nothing live;
    {!commit_safe}/{!revert_safe} are the same span over the scanner's
    live set; the [_func]/[_refs] forms stage single entities with
    nothing live.

    Two extensions live behind their own modules, and this one calls
    them: {!Variant_cache} owns which lazily materialized bodies are
    resident, and {!Osr} owns the frame maps and the transfer of a live
    activation between bodies.

    Note on signedness: descriptors record declared signedness, but
    sub-word switch values are evaluated zero-extended (matching the
    machine's sub-word loads); use 8-byte switches for negative domains. *)

(** A runtime attached to one image: the parsed descriptors with every
    function, switch and variant named once, at {!create}, the patch
    state, the safe-commit journal, the frame maps, and the variant cache
    (empty until {!enable_lazy}).  Inspect it through {!stats} and the
    introspection functions below. *)
type t

(** Variant installation strategy.  [Call_site_patching] is the paper's
    design; [Body_patching] is the Section 7.1 alternative: the relocated
    variant body overwrites the generic body — one patch per function, no
    call-site inlining, prologue-jump fallback when the variant does not
    fit. *)
type strategy = Call_site_patching | Body_patching

exception Runtime_error of string

(** Attach a runtime to a linked image by parsing its descriptor sections.
    [flush] receives every patched range (wire it to the machine's
    instruction-cache flush).  Descriptors identify functions, switches
    and variants by address only (Section 5); one pass over the image's
    symbol table names them all here, and every event and report reads
    these names (a lazy alias keeps the symbol it is linked under).
    Raises {!Descriptor.Parse_error} when a descriptor section is
    malformed, a count running past its section included. *)
val create : Mv_link.Image.t -> flush:(addr:int -> len:int -> unit) -> t

(** Disable/enable call-site body inlining (ablation A3). *)
val set_inlining : t -> bool -> unit

(** Install (or remove, with [None]) the structured-event sink.  Every
    patching decision — commit/revert spans with switch values, variant
    selection, site retargeting/inlining, prologue patches, fallbacks,
    safe-commit deferrals and drains — is reported through it.  With no
    sink installed the emit sites reduce to a single [option] match:
    tracing is pay-for-use, like the safepoint hook.  The usual sink is
    [Mv_obs.Trace.sink] over a ring clocked by the machine's cycle
    counter (every [Harness.session] installs one at creation). *)
val set_tracer : t -> (Mv_obs.Trace.event -> unit) option -> unit

(** Install (or remove, with [None]) the hart source used to attribute
    commit and drain events for causal tracing: the pending set journaled
    by a commit remembers the hart the commit ran on, and the
    [Pending_drained] of that set is followed by a ["drain"]
    [Causal_edge] from that hart to the hart executing the draining
    safepoint.  Wire to [Mv_vm.Smp.current_hart]; the default attributes
    everything to hart 0 (right for a single-hart machine).  Host-side
    only — never charged simulated cycles. *)
val set_hart_source : t -> (unit -> int) option -> unit

(** Install (or remove, with [None]) the cross-modifying-code barrier.
    When set, every patching operation — {!commit}, {!revert}, the
    [_func]/[_refs]/[_safe] variants, and the {!safepoint} drain — runs
    inside it, so an SMP harness can wire [Mv_vm.Smp.stop_machine] here
    and guarantee patches only land with every other hart parked at an
    interrupts-enabled instruction boundary.  The barrier must invoke its
    thunk exactly once, synchronously, and be re-entrant (a nested
    operation runs its thunk directly).  With [None] (the default) the
    paper's model applies: the caller guarantees a patchable state. *)
val set_patch_barrier : t -> ((unit -> unit) -> unit) option -> unit

(** Route every text mutation through a replacement writer instead of the
    default protected-write-plus-flush — e.g. the SMP breakpoint-first
    [Mv_vm.Smp.text_poke] (see {!Patch.set_writer}). *)
val set_text_writer : t -> (addr:int -> bytes -> unit) option -> unit

(** Switch the installation strategy (ablation A4).  Raises
    {!Runtime_error} while anything is installed — revert first. *)
val set_strategy : t -> strategy -> unit

(** {1 The Table 1 API}

    All functions return a count like the paper's [int] results: the number
    of entities bound (or reverted), or [-1] when the argument does not name
    a multiversed entity. *)

(** [multiverse_commit()]: bind everything to the current switch values —
    the whole-image span with nothing live.  Supersedes any journaled
    patch sets. *)
val commit : t -> int

(** [multiverse_revert()]: restore the whole image to its unpatched
    state. *)
val revert : t -> int

(** [multiverse_commit_func(&fn)]: bind one function by symbol name. *)
val commit_func : t -> string -> int

(** [multiverse_revert_func(&fn)]: revert one function by symbol name. *)
val revert_func : t -> string -> int

(** [multiverse_commit_refs(&var)]: (re)bind every function whose variants
    guard on the switch, and the switch itself when it is a function
    pointer. *)
val commit_refs : t -> string -> int

(** [multiverse_revert_refs(&var)]: revert everything {!commit_refs} would
    bind. *)
val revert_refs : t -> string -> int

(** {1 Safe commit (beyond the paper)}

    Stack-quiescence detection and deferred patching.  Where the Table 1
    API trusts the caller ("the caller guarantees a patchable state",
    Section 2), these entry points prove it: a patch is applied only when
    no live activation — program counter or stack return address — falls
    inside the bytes it would rewrite.  The rest is journaled and drained
    at quiescence points, transactionally. *)

(** What to do with a patch whose target bytes have live activations:
    [Defer] (default) journals it for the next quiescent safepoint; [Deny]
    refuses it, leaving the entity in its current state. *)
type safe_policy = Defer | Deny

(** Install the live-activation scanner ({!commit_safe}/{!revert_safe}/
    {!safepoint} require one).  Wire to [Machine.live_code_addrs]. *)
val set_live_scanner : t -> (unit -> int list) -> unit

(** [multiverse_commit()], made safe: the {!commit} span over the
    scanner's live set.  Binds every entity whose patch ranges are
    quiescent; defers or denies the rest per [policy].  Returns the number
    of entities in the specialized state when the call returns (deferred
    entities are excluded until a safepoint applies them).  Binding
    decisions — variant selection, fn-pointer targets, and on a lazy
    runtime the materialization of the selected variant — are made at call
    time and journaled verbatim.  Supersedes any previously pending sets.
    Raises {!Runtime_error} if no live scanner is installed. *)
val commit_safe : ?policy:safe_policy -> t -> int

(** [multiverse_revert()], made safe: restores every entity whose patch
    ranges are quiescent; defers or denies the rest.  Returns the number of
    entities in the pristine state when the call returns. *)
val revert_safe : ?policy:safe_policy -> t -> int

(** Install (or remove, with [None]) the on-stack-replacement hart
    accessors.  Once installed, a {!safepoint} that finds a pending set
    blocked by a live activation of the polling hart {e transfers} the
    activation into the target body ({!Osr.transfer}: from the generic
    body or the installed variant, at the safepoint with the same stable
    id) instead of leaving the set journaled until the frame unwinds.  A
    transfer that cannot be proven equivalent is abandoned
    ([st_osr_aborts]) and the set simply stays deferred.  Each transfer
    emits an [Osr_transfer] event carrying the journaling commit's [cid].
    Only attempted under [Call_site_patching]. *)
val set_osr : t -> (unit -> Osr.hart) option -> unit

(** The quiescence-point drain; wire to [Machine.set_safepoint].  Cheap
    when nothing is pending.  Each pending set whose touched ranges are all
    quiescent is applied transactionally — every action or, on a mid-set
    failure (e.g. a call site changed by another mechanism), a full
    rollback to the pre-set state — and removed either way, so a set is
    applied at most once.  With {!set_osr} wired, a set blocked only by
    the polling hart's own parked activation is unblocked by transferring
    that activation first. *)
val safepoint : t -> unit

(** Names of entities with journaled, not-yet-applied patches. *)
val pending : t -> string list

(** {1 Lazy variant materialization (beyond the paper)}

    With {!enable_lazy} the image carries {e no} pre-expanded variants;
    the compiler instead hands over one specialization recipe per
    multiversed function ([Compiler.recipes], from a [lazy_variants]
    build).  The first commit of an unseen switch valuation specializes
    the recipe, optimizes and assembles the body, links it into the
    image's reserved variant-text region, and selection proceeds exactly
    as if the variant had been there all along.  Bodies are cached by
    their post-optimization canonical form — the key the eager pipeline
    merges equal clones under — so a structurally equal body is never
    stored twice: a hash hit links only a descriptor alias ([dedup] in
    the [Variant_materialized] event, zero new bytes).  A byte budget
    bounds residency; eviction drops cold aliases and routes installed
    victims through the existing revert / safe-commit / OSR machinery,
    releasing their bytes once the body is quiescent.  A re-commit of an
    evicted valuation simply re-materializes — bit-identically, since
    recipes are deterministic. *)

(** Enable demand-driven materialization.  [recipes] are the program's
    specialization recipes ([Compiler.recipes]); [call_pad] the
    program-wide call-site padding rule ([Compiler.call_pad]), so
    materialized bodies are assembled byte-compatible with the eager
    pipeline's; [budget] the resident variant-text byte budget (default:
    the whole variant-text region).  Call it once per runtime.  Raises
    {!Runtime_error} when the image was linked without a variant-text
    region or the budget is not positive.

    Specializations are memoized per (recipe, assignment): the variant
    symbol, its dedup key (the canonical form), its descriptor guards
    and — from the first structural-hash miss on — its emitted fragment,
    but not the IR.  Re-materializing an evicted valuation then looks up
    the dedup table and, on a miss, relocates a copy of the memoized
    fragment, writing the bytes a fresh specialization would.  Only
    recipes whose cross product fits within
    [Variantgen.default_max_variants] — the most variants eager
    generation emits for one function — are memoized; a larger recipe
    (the 20-switch storm's ~1M valuations) specializes on every
    materialization.  Eviction drops resident text and aliases, never
    memo entries, so the memo holds at most that many entries per
    recipe.  An assignment whose first materialization was a hash hit
    has no fragment yet and is specialized once more on its first miss
    ({!specializations} counts both). *)
val enable_lazy :
  ?budget:int ->
  t ->
  recipes:Variantgen.recipe list ->
  call_pad:(string -> int) ->
  unit

(** Whether demand-driven materialization is enabled. *)
val lazy_enabled : t -> bool

(** Change the resident byte budget.  Shrinking evicts down to the new
    budget immediately where possible; victims with live activations
    drain at later safepoints, and new materializations are denied until
    residency fits.  Raises {!Runtime_error} when lazy materialization is
    not enabled or the budget is not positive. *)
val set_variant_budget : t -> int -> unit

(** Install (or remove, with [None]) the eviction advisor: a thunk
    returning variant symbols in preferred eviction order — harnesses
    wire the [Evict] verdicts of [Mv_obs.Heat.evict_plan] here, excluding
    {!pending_variants}.  Symbols the cache cannot evict (unknown,
    needed by a journaled bind, already draining) are skipped;
    least-recently-selected order covers whatever the advisor does not.
    Raises {!Runtime_error} when lazy materialization is not enabled. *)
val set_evict_advisor : t -> (unit -> string list) option -> unit

(** Fuzzing chaos: make eviction skip the dedup-table invalidation, so a
    later structural-hash hit links a freed (and possibly recycled)
    block.  Exists to prove the lazy-eager-equiv fuzz oracle catches the
    resulting divergence; never set this outside a chaos campaign.
    Raises {!Runtime_error} when lazy materialization is not enabled. *)
val set_stale_cache_chaos : t -> bool -> unit

(** Materialized variants currently resident: (symbol, body address,
    body size), symbol-sorted.  Dedup aliases appear individually (same
    address, distinct symbols).  Empty when lazy materialization is
    off. *)
val materialized_variants : t -> (string * int * int) list

(** Variant symbols the cache must keep resident for the journal's sake:
    each journaled (not yet drained) bind still needs its variant's
    body, so eviction advisors must exclude these (pass them to
    [Heat.evict_plan]'s [exclude]).  Sorted; empty when lazy
    materialization is off. *)
val pending_variants : t -> string list

(** Resident variant-text bytes (unique bodies, allocation-sized) — the
    quantity the byte budget bounds.  [0] when lazy materialization is
    off. *)
val variant_bytes : t -> int

(** Recipe specializations the variant cache has run so far — each
    specialize, optimize and hash of a recipe, whether for a first
    materialization or a re-materialization that the memo could not
    serve (see {!enable_lazy}).  A read-only probe, not a {!stats}
    counter; [0] when lazy materialization is off. *)
val specializations : t -> int

(** {1 Introspection} *)

(** Functions left generic by the last commit because no variant matched
    the switch values (the Figure 3d signal). *)
val fallbacks : t -> string list

(** Call sites skipped because their bytes were not what the runtime last
    wrote there — some other mechanism owns them (with the reason). *)
val skipped_sites : t -> (int * string) list

(** Symbol of the variant alias bound to the named function — the one
    its last [Variant_selected] event named.  Aliases that share a
    deduplicated body are one binding: selecting another alias of the
    bound body patches nothing and leaves this name as it was. *)
val installed_variant : t -> string -> string option

(** Whether [name] is the symbol of a selectable variant: an eager
    variant, or a lazy alias currently resident.  The stack profiler's
    variant classifier. *)
val is_variant : t -> string -> bool

(** Every multiversed body as a named text region for code-heat
    telemetry: the generic body plus one region per variant alias under
    the alias's own name, address ranges from the descriptor records,
    and each variant's switch binding rendered from its guards
    ([switch=v], ranges as [switch=lo..hi], comma-joined).  Aliases that
    share a deduplicated body share its extent, so each reports the
    body's hits since the alias was registered; [Heat.evict_plan]
    charges a shared extent to its budget once, while the
    [mv_variant_resident_bytes] gauge reports it once per alias.
    Deterministic order (function order, generic before
    variants).  [Harness.enable_heat] feeds this census to
    [Mv_obs.Heat]. *)
val heat_regions : t -> Mv_obs.Heat.region list

(** Runtime-level statistics.  The [st_safe_*] block counts safe-commit
    outcomes: actions deferred/denied at commit time, journaled actions
    dropped by a superseding commit, actions applied at safepoints, sets
    rolled back mid-apply, and safepoint polls served. *)
type stats = {
  st_functions : int;
  st_variants : int;
  st_callsites : int;
  st_sites_inlined : int;
  st_sites_retargeted : int;
  st_patches : int;
  st_bytes_patched : int;
  st_safe_deferred : int;
  st_safe_denied : int;
  st_safe_superseded : int;
  st_safe_applied : int;
  st_safe_rolled_back : int;
  st_safepoint_polls : int;
  st_pending : int;  (** journaled actions not yet applied *)
  st_osr_transfers : int;  (** activations moved by on-stack replacement *)
  st_osr_aborts : int;  (** transfers abandoned (frame maps did not line up) *)
  st_materialized : int;
      (** variants materialized on demand (dedup hits included) *)
  st_dedup_hits : int;
      (** materializations satisfied by a structural-hash hit (alias only,
          zero new bytes) *)
  st_cache_hits : int;
      (** commits that found the needed variant already resident *)
  st_evictions : int;  (** aliases dropped under the byte budget *)
  st_budget_denials : int;
      (** materializations refused because the budget (or the region)
          could not fit the body *)
  st_variant_bytes : int;
      (** resident variant-text bytes (unique bodies, allocation-sized) *)
}

(** Aggregate counters for reporting (benches, examples). *)
val stats : t -> stats

(** The {!stats} record as a JSON object (field names without the [st_]
    prefix) — the runtime's third of the unified metrics export
    ([Mv_obs.Export.metrics]). *)
val stats_json : stats -> Mv_obs.Json.t

(** Bridge the {!stats} counters into a metrics registry as
    [mv_runtime_<counter>] gauges (gauges because {!stats} is already
    cumulative: re-bridging overwrites instead of double-counting).
    [Harness.metrics_json] calls this before every registry export. *)
val stats_metrics : stats -> Mv_obs.Metrics.t -> unit
