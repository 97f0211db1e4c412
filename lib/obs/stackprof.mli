(** A stack-aware sampling profiler: interval sampling keyed on collapsed
    call stacks.

    Every [interval]-th executed instruction, the profiler symbolizes the
    machine's whole call stack ([Mv_vm.Machine.call_frames] plus the pc
    as the leaf) and aggregates by the {e collapsed} stack — the `a;b;c`
    folded form of perf-record/stackcollapse.  {!folded} emits the
    standard folded-stack text that flamegraph.pl and speedscope load
    directly.  The leaf of every stack is the sampled pc's symbol, so
    {!leaves} folds the stacks back into the flat hot-function table of
    a classic pc-sampling profiler.

    Variant symbols carry their assignment suffix (e.g.
    ["spin_lock.config_smp=0"]), so specialized frames are
    distinguishable from generic frames in every stack, and
    {!variant_share} totals the cycle share spent under at least one
    variant frame.

    The sampler is a host-side observer: feeding it from
    [Mv_vm.Machine.set_sampler] never moves the simulated clock, and with
    no sampler installed the machine's behaviour is bit-identical. *)

(** One aggregated stack. *)
type row = {
  s_stack : string list;  (** frames, outermost first; the leaf is last *)
  s_samples : int;  (** samples attributed to exactly this stack *)
  s_cycles : float;  (** simulated cycles attributed to this stack *)
  s_share : float;  (** fraction of all attributed cycles, in [0, 1];
                        [0.] (never NaN) when no cycles were attributed *)
  s_variant : bool;  (** some frame of the stack is a generated variant *)
}

(** A stack-aware sampling profiler instance. *)
type t

(** [create ~resolve ~frames ~now ()] builds a stack profiler.  [resolve]
    maps a code address to its containing symbol (wire to
    [Image.symbol_at]); [frames] reads the live call stack, innermost
    first (wire to [Machine.call_frames]); [now] reads the clock being
    attributed; [is_variant] classifies symbols as generated variants;
    [interval] is the sampling period in instructions (default 97, coprime
    to common loop lengths); [root], when given, is prepended to every
    symbolized stack as a synthetic outermost frame — SMP sessions use it
    for per-hart attribution (["hart0"], ["hart1"], ...), so merged folded
    dumps keep each hart's stacks distinct. *)
val create :
  ?interval:int ->
  ?is_variant:(string -> bool) ->
  ?root:string ->
  resolve:(int -> string option) ->
  frames:(unit -> int list) ->
  now:(unit -> float) ->
  unit ->
  t

(** Feed one executed instruction's pc; cheap except on every
    [interval]-th call.  Wire to [Machine.set_sampler]. *)
val sample : t -> int -> unit

(** Samples taken so far. *)
val samples : t -> int

(** Simulated cycles attributed so far. *)
val cycles : t -> float

(** Forget all attributions and restart the clock baseline at [now ()]. *)
val reset : t -> unit

(** Aggregated stacks, hottest first.  Shares are [0.], never NaN, when
    nothing was attributed. *)
val report : t -> row list

(** Fraction of attributed cycles spent in stacks containing at least one
    variant frame, in [0, 1]. *)
val variant_share : t -> float

(** The folded-stack dump: one [frame;frame;...;frame count] line per
    distinct stack (count = samples, a positive integer), sorted, each
    line newline-terminated.  Feed to flamegraph.pl or load in
    speedscope. *)
val folded : t -> string

(** Render the hot-stack table ([limit] rows, default 10). *)
val pp : ?limit:int -> Format.formatter -> t -> unit

(** {1 Per-leaf view} *)

(** One line of the hot-function table: every stack whose leaf is
    [l_name] folded together. *)
type leaf = {
  l_name : string;  (** the sampled pc's symbol, or ["<unknown>"] *)
  l_samples : int;  (** samples whose leaf is this symbol *)
  l_cycles : float;  (** simulated cycles attributed to this symbol *)
  l_share : float;  (** fraction of all attributed cycles, in [0, 1];
                        [0.] (never NaN) when no cycles were attributed *)
  l_variant : bool;  (** the leaf itself is a generated variant *)
}

(** The per-leaf view over one or more profilers (an SMP session keeps
    one per hart), hottest first: cycles spent with the pc in each
    symbol, whatever the callers.  Shares are against the profilers'
    summed cycles. *)
val leaves : t list -> leaf list

(** Render the hot-function table ([limit] rows, default 10). *)
val pp_leaves : ?limit:int -> Format.formatter -> t list -> unit
