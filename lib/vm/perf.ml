(* Performance counters, in the spirit of the TSC / CPU_CLK_UNHALTED
   measurements of Section 6 and the branch counts reported for musl
   (Section 6.2.2: "-40% branches in the case of malloc(1)"). *)

(* A record of its own, so the float is stored unboxed (perf.mli). *)
type clock = { mutable cycles : float }

type t = {
  clock : clock;
  mutable instructions : int;
  mutable branches : int;  (** conditional branches executed *)
  mutable branch_mispredicts : int;
  mutable calls : int;
  mutable indirect_calls : int;
  mutable btb_misses : int;
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable hypercalls : int;
  mutable icache_flushes : int;
}

let create () =
  {
    clock = { cycles = 0.0 };
    instructions = 0;
    branches = 0;
    branch_mispredicts = 0;
    calls = 0;
    indirect_calls = 0;
    btb_misses = 0;
    loads = 0;
    stores = 0;
    atomics = 0;
    hypercalls = 0;
    icache_flushes = 0;
  }

let cycles t = t.clock.cycles

type snapshot = {
  s_cycles : float;
  s_instructions : int;
  s_branches : int;
  s_branch_mispredicts : int;
  s_calls : int;
  s_indirect_calls : int;
  s_btb_misses : int;
  s_loads : int;
  s_stores : int;
  s_atomics : int;
  s_hypercalls : int;
  s_icache_flushes : int;
}

let snapshot t =
  {
    s_cycles = t.clock.cycles;
    s_instructions = t.instructions;
    s_branches = t.branches;
    s_branch_mispredicts = t.branch_mispredicts;
    s_calls = t.calls;
    s_indirect_calls = t.indirect_calls;
    s_btb_misses = t.btb_misses;
    s_loads = t.loads;
    s_stores = t.stores;
    s_atomics = t.atomics;
    s_hypercalls = t.hypercalls;
    s_icache_flushes = t.icache_flushes;
  }

(** Counter deltas between two snapshots ([b] after [a]). *)
let diff a b =
  {
    s_cycles = b.s_cycles -. a.s_cycles;
    s_instructions = b.s_instructions - a.s_instructions;
    s_branches = b.s_branches - a.s_branches;
    s_branch_mispredicts = b.s_branch_mispredicts - a.s_branch_mispredicts;
    s_calls = b.s_calls - a.s_calls;
    s_indirect_calls = b.s_indirect_calls - a.s_indirect_calls;
    s_btb_misses = b.s_btb_misses - a.s_btb_misses;
    s_loads = b.s_loads - a.s_loads;
    s_stores = b.s_stores - a.s_stores;
    s_atomics = b.s_atomics - a.s_atomics;
    s_hypercalls = b.s_hypercalls - a.s_hypercalls;
    s_icache_flushes = b.s_icache_flushes - a.s_icache_flushes;
  }

(* Derived metrics, the ratios the paper's evaluation actually argues
   with: raw counter values depend on run length, these do not. *)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(** Instructions per cycle. *)
let ipc s = ratio (float_of_int s.s_instructions) s.s_cycles

(** Mispredicted fraction of executed conditional branches, in [0, 1]. *)
let mispredict_rate s = ratio (float_of_int s.s_branch_mispredicts) (float_of_int s.s_branches)

(** Mean cycles per executed call instruction. *)
let cycles_per_call s = ratio s.s_cycles (float_of_int s.s_calls)

let pp fmt s =
  Format.fprintf fmt
    "@[<v>cycles            %12.1f@,instructions      %12d@,branches          %12d@,mispredicts       %12d@,calls             %12d@,indirect calls    %12d@,btb misses        %12d@,loads             %12d@,stores            %12d@,atomics           %12d@,hypercalls        %12d@,ipc               %12.3f@,mispredict rate   %11.2f%%@,cycles/call       %12.2f@]"
    s.s_cycles s.s_instructions s.s_branches s.s_branch_mispredicts s.s_calls
    s.s_indirect_calls s.s_btb_misses s.s_loads s.s_stores s.s_atomics s.s_hypercalls
    (ipc s)
    (100.0 *. mispredict_rate s)
    (cycles_per_call s)

(** Snapshot as a JSON object: every raw counter plus the derived
    [ipc]/[mispredict_rate]/[cycles_per_call] block — the machine's third
    of the unified metrics export. *)
let snapshot_json s : Mv_obs.Json.t =
  Mv_obs.Json.Obj
    [
      ("cycles", Mv_obs.Json.Float s.s_cycles);
      ("instructions", Mv_obs.Json.Int s.s_instructions);
      ("branches", Mv_obs.Json.Int s.s_branches);
      ("branch_mispredicts", Mv_obs.Json.Int s.s_branch_mispredicts);
      ("calls", Mv_obs.Json.Int s.s_calls);
      ("indirect_calls", Mv_obs.Json.Int s.s_indirect_calls);
      ("btb_misses", Mv_obs.Json.Int s.s_btb_misses);
      ("loads", Mv_obs.Json.Int s.s_loads);
      ("stores", Mv_obs.Json.Int s.s_stores);
      ("atomics", Mv_obs.Json.Int s.s_atomics);
      ("hypercalls", Mv_obs.Json.Int s.s_hypercalls);
      ("icache_flushes", Mv_obs.Json.Int s.s_icache_flushes);
      ("ipc", Mv_obs.Json.Float (ipc s));
      ("mispredict_rate", Mv_obs.Json.Float (mispredict_rate s));
      ("cycles_per_call", Mv_obs.Json.Float (cycles_per_call s));
    ]
