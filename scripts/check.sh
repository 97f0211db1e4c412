#!/bin/sh
# The full local gate: docs build warning-free, everything compiles, the
# whole test suite passes, the differential fuzzer finds nothing, and the
# bench harness emits a valid results document.  Run from anywhere inside
# the repository.
set -eu
cd "$(dirname "$0")/.."

# Every temporary file and directory lives in one scratch directory,
# removed on exit however the script ends.
tmp=$(mktemp -d "${TMPDIR:-/tmp}"/mv-check-XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# The spinlock workload of the lazy-heat dump and of the mvtrace,
# profile and heat smokes.
smoke_mvc="$tmp"/spinlock.mvc
cat > "$smoke_mvc" <<'EOF'
multiverse int config_smp;
int lock_word;
multiverse void spin_lock() {
  if (config_smp) { lock_word = lock_word + 1; }
}
void bench_loop(int n) {
  for (int i = 0; i < n; i = i + 1) { spin_lock(); }
}
EOF

dune build @doc
dune build
dune runtest

# The Harness names kept only for the repository benchmark (perfbench/)
# must not spread: no other source file may use them, so the alias block
# in lib/workloads/harness.mli can be deleted in one step once the
# benchmark moves to the unified API.
bench_only='smp_session1|smp_set|smp_get|smp_commit|smp_start|smp_step|smp_run|sm_runtime|lazy_session1'
if grep -rlwE "$bench_only" --include='*.ml' lib bin bench test examples \
    | grep -v '^lib/workloads/harness\.ml$'; then
  echo "benchmark-only Harness names used outside harness.ml (files above)"; exit 1
fi

# Differential fuzz smoke: 500 seed-pinned cases through every oracle.
# On divergence mvfuzz exits 1 after printing (and, with MVFUZZ_CORPUS
# set, saving) the shrunk reproducer.  A lazy-eager-equiv divergence
# additionally parks an mv-heat/1 dump of the lazy variant cache in
# MV_SMP_ARTIFACT_DIR (uploaded by CI with the reproducers), so the
# materialization/eviction state behind the diverging cache can be
# inspected with `mvtrace heat`'s JSON offline.
fuzz_status=0
fuzz_log="$tmp"/fuzz.log
dune exec bin/mvfuzz.exe -- --iters 500 --seed 1 --quiet \
  ${MVFUZZ_CORPUS:+--corpus "$MVFUZZ_CORPUS"} > "$fuzz_log" 2>&1 \
  || fuzz_status=$?
cat "$fuzz_log"
if [ "$fuzz_status" -ne 0 ]; then
  if [ -n "${MV_SMP_ARTIFACT_DIR:-}" ] \
      && grep -q "lazy-eager-equiv" "$fuzz_log"; then
    mkdir -p "$MV_SMP_ARTIFACT_DIR"
    dune exec bin/mvtrace.exe -- heat "$smoke_mvc" --lazy \
      --set config_smp=1 --commit --run bench_loop --arg 200 \
      --json "$MV_SMP_ARTIFACT_DIR"/lazy-cache.heat.json > /dev/null 2>&1 \
      || echo "note: could not produce the lazy mv-heat/1 dump"
  fi
  exit "$fuzz_status"
fi

# SMP smoke: the multi-hart oracle must be clean on the real pipeline,
# and a severed IPI channel (drop-ack) must be caught — if the chaos run
# exits 0 the rendezvous/coherence oracle has lost its teeth.
dune exec bin/mvfuzz.exe -- --iters 25 --seed 1 --quiet \
  --oracle smp-schedule-equiv
if dune exec bin/mvfuzz.exe -- --iters 5 --seed 1 --quiet --small \
    --chaos drop-ack --oracle smp-schedule-equiv --shrink-budget 0 > /dev/null 2>&1; then
  echo "mvfuzz: drop-ack chaos was NOT detected by smp-schedule-equiv"; exit 1
fi

# Lazy-cache smoke (must-fail): an eviction that forgets to invalidate
# the structural-hash dedup table must trip the lazy-vs-eager oracle —
# a later hash hit links a freed-and-recycled block holding some other
# variant's body.  If the chaos run exits 0 the lazy oracle has lost
# its teeth.
if dune exec bin/mvfuzz.exe -- --iters 5 --seed 1 --quiet --small \
    --chaos stale-cache --oracle lazy-eager-equiv --shrink-budget 0 > /dev/null 2>&1; then
  echo "mvfuzz: stale-cache chaos was NOT detected by lazy-eager-equiv"; exit 1
fi

# OSR smoke (must-fail): a frame map with one live-entry location bumped
# must trip the on-stack-replacement oracle — the transfer rebuilds the
# parked frame from the wrong register or spill slot — and the diverged
# case must leave an mv-flight/1 dump that `mvtrace postmortem` parses.
# If the chaos run exits 0 the OSR oracle has lost its teeth.
osr_flight_dir="$tmp"/osr-flight
mkdir "$osr_flight_dir"
if MV_SMP_ARTIFACT_DIR="$osr_flight_dir" dune exec bin/mvfuzz.exe -- \
    --iters 3 --seed 1 --quiet --small --chaos corrupt-framemap \
    --oracle osr-state-equiv --shrink-budget 0 > /dev/null 2>&1; then
  echo "mvfuzz: corrupt-framemap chaos was NOT detected by osr-state-equiv"; exit 1
fi
osr_dump=$(ls "$osr_flight_dir"/*.flight.json 2> /dev/null | head -n 1) \
  && [ -n "$osr_dump" ] \
  || { echo "osr smoke: divergence left no .flight.json in $osr_flight_dir"; exit 1; }
dune exec bin/mvtrace.exe -- postmortem "$osr_dump" > /dev/null \
  || { echo "osr smoke: mvtrace postmortem cannot parse $osr_dump"; exit 1; }
# In CI the gate runs with MV_SMP_ARTIFACT_DIR set; park a copy of the
# dump there so a failing run uploads the OSR postmortem with the rest.
if [ -n "${MV_SMP_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$MV_SMP_ARTIFACT_DIR"
  cp "$osr_dump" "$MV_SMP_ARTIFACT_DIR"/osr-chaos.flight.json
fi

# Smoke the machine-readable bench export: seven fast experiments, then
# check the document parses and carries the expected schema/rows.
# Besides fig1, the three lazy rows pin the variant cache's
# materialize, evict and dedup counts and its peak resident bytes,
# patch-cost and ablation-body-patching pin what a commit and a revert
# from pristine write: 4,688 patches and 23,440 bytes on the 1,170-site
# farm, and 1,172 call-site patches against 2 body patches, and
# interp-superblock pins the results, cycles and instruction counts of
# both steppers on its ten leaves.
bench_json="$tmp"/bench.json
dune exec bench/main.exe -- --fast --only fig1 --only lazy-first-commit \
  --only lazy-cache-hit --only lazy-footprint --only patch-cost \
  --only ablation-body-patching --only interp-superblock \
  --json "$bench_json" > /dev/null
if command -v jq > /dev/null 2>&1; then
  jq -e '.schema == "mv-bench-rows/1" and (.experiments.fig1 | length > 0)' \
    "$bench_json" > /dev/null || { echo "bench JSON invalid: $bench_json"; exit 1; }
elif command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["schema"]=="mv-bench-rows/1" and d["experiments"]["fig1"], "bench JSON invalid"' \
    "$bench_json"
else
  echo "note: neither jq nor python3 found; skipping bench JSON validation"
fi

# mvtrace smoke: folded stacks from a tiny committed workload must name a
# variant frame, and the rows just produced must match the committed
# baseline (the simulator is deterministic, so any drift beyond the gate
# means BENCH_results.json is stale).
smoke_folded="$tmp"/folded.txt
dune exec bin/mvtrace.exe -- flame "$smoke_mvc" --set config_smp=1 --commit \
  --run bench_loop --arg 200 --interval 7 --out "$smoke_folded" 2> /dev/null
grep -q 'spin_lock.config_smp=1' "$smoke_folded" \
  || { echo "mvtrace flame: no variant frame in folded stacks"; exit 1; }
dune exec bin/mvtrace.exe -- diff --gate 0 BENCH_results.json "$bench_json" > /dev/null \
  || { echo "mvtrace diff: the seven bench smoke rows drifted from BENCH_results.json"; exit 1; }

# Profile smoke: mvcc --profile prints the stack profiler's per-leaf
# hot-function table, which must attribute the committed variant.
smoke_profile="$tmp"/profile.txt
dune exec bin/mvcc.exe -- "$smoke_mvc" --set config_smp=1 --commit \
  --run bench_loop --arg 200 --profile > "$smoke_profile" 2> /dev/null
grep -q 'spin_lock.config_smp=1 \[variant\]' "$smoke_profile" \
  || { echo "mvcc --profile: no variant row in the hot-function table"; exit 1; }

# Heat smoke: the block-heat census on the same workload must attribute
# nonzero heat to the committed variant's text region (if the variant
# region reads 0 the dispatch-path hook or the region census is broken).
smoke_heat="$tmp"/heat.txt
dune exec bin/mvtrace.exe -- heat "$smoke_mvc" --set config_smp=1 --commit \
  --run bench_loop --arg 200 > "$smoke_heat" 2> /dev/null
grep -q 'spin_lock.config_smp=1' "$smoke_heat" \
  || { echo "mvtrace heat: variant region missing"; exit 1; }
# Columns: region kind bytes covered cover% hits heat [bar].
awk '$1 == "spin_lock.config_smp=1" && $6 + 0 > 0 { found = 1 } END { exit !found }' \
  "$smoke_heat" \
  || { echo "mvtrace heat: variant region has zero heat"; exit 1; }

# Alias smoke: f and g are clones, so under --lazy their m=1 bodies
# dedup to one copy, but each function binds its own alias and must be
# reported under it (g's row reads g.m=1, not f.m=1).
alias_mvc="$tmp"/alias.mvc
cat > "$alias_mvc" <<'EOF'
multiverse int m;
int w;
multiverse void f() { if (m) { w = w + 1; } }
multiverse void g() { if (m) { w = w + 1; } }
int foo() { w = 0; f(); g(); return w; }
EOF
dune exec bin/mvtrace.exe -- variants "$alias_mvc" --lazy --set m=1 --commit \
  --run foo 2> /dev/null \
  | awk '$1 == "g" && $2 == "g.m=1" { found = 1 } END { exit !found }' \
  || { echo "mvtrace variants: g is not reported under its own alias"; exit 1; }

# Parallel fuzz smoke: a domain-striped campaign must write the exact
# corpus a single-domain run writes (case seeds are domain-count
# invariant).  Chaos skip-flush guarantees divergences, so both runs
# exit 1 by contract and the compared corpora are non-empty.
corpus_1dom="$tmp"/corpus1
corpus_ndom="$tmp"/corpus2
mkdir "$corpus_1dom" "$corpus_ndom"
run_striped_campaign() {
  status=0
  dune exec bin/mvfuzz.exe -- --iters 6 --seed 1 --small --quiet \
    --chaos skip-flush --keep-going --shrink-budget 8 \
    --domains "$1" --corpus "$2" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 1 ] \
    || { echo "mvfuzz --domains $1: expected exit 1 under skip-flush, got $status"; exit 1; }
}
run_striped_campaign 1 "$corpus_1dom"
run_striped_campaign 2 "$corpus_ndom"
diff -r "$corpus_1dom" "$corpus_ndom" > /dev/null \
  || { echo "mvfuzz: 2-domain corpus differs from the single-domain corpus"; exit 1; }

# Flight-recorder smoke (must-fail): a guest that divides by zero must
# make the run exit non-zero AND leave a mv-flight/1 dump that
# `mvtrace postmortem` parses.  If either half breaks, the postmortem
# story is dead even though every green-path test still passes.
trap_mvc="$tmp"/trap.mvc
flight_dir="$tmp"/flight
mkdir "$flight_dir"
cat > "$trap_mvc" <<'EOF'
multiverse int config_smp;
int lock_word;
multiverse void spin_lock() {
  if (config_smp) { lock_word = lock_word + 1; }
}
void bench_loop(int n) {
  for (int i = 0; i < n; i = i + 1) {
    spin_lock();
    lock_word = lock_word / (n - 1 - i);
  }
}
EOF
if MV_SMP_ARTIFACT_DIR="$flight_dir" dune exec bin/mvtrace.exe -- \
    flame "$trap_mvc" --set config_smp=1 --commit --run bench_loop --arg 5 \
    > /dev/null 2>&1; then
  echo "flight smoke: division by zero did NOT fail the run"; exit 1
fi
flight_dump=$(ls "$flight_dir"/*.flight.json 2> /dev/null | head -n 1) \
  && [ -n "$flight_dump" ] \
  || { echo "flight smoke: trap left no .flight.json in $flight_dir"; exit 1; }
dune exec bin/mvtrace.exe -- postmortem "$flight_dump" > /dev/null \
  || { echo "flight smoke: mvtrace postmortem cannot parse $flight_dump"; exit 1; }
# The dump is lossless: the commit's begin event keeps its switch values.
grep -q '"config_smp": 1' "$flight_dump" \
  || { echo "flight smoke: commit_begin lost its switches in $flight_dump"; exit 1; }

# Postmortem smoke (must-fail): a dump holding a malformed number must be
# refused as one that does not parse (exit 2), not crash on an escaping
# exception (exit 125).
bad_dump="$tmp"/malformed.flight.json
printf '{"schema": "mv-flight/1", "clock": 1e}\n' > "$bad_dump"
pm_status=0
dune exec bin/mvtrace.exe -- postmortem "$bad_dump" > /dev/null 2> "$tmp"/pm.err \
  || pm_status=$?
[ "$pm_status" -eq 2 ] && grep -q "does not parse" "$tmp"/pm.err \
  || { echo "postmortem smoke: a malformed number exited $pm_status, not as a parse error"; exit 1; }

# Corpus smoke (must-fail): a reproducer is replayed as it was written
# or not at all.  The same document twice: as written it replays clean,
# and with one schedule op misspelt it must be logged unreadable, not
# replayed with its schedule dropped and reported "bug stays fixed".
corpus_dir="$tmp"/corpus-ops
mkdir "$corpus_dir"
cat > "$corpus_dir"/repro.json <<'EOF'
{"format": "mv-fuzz-repro/1", "seed": 1, "oracle": "schedule-equiv",
 "detail": "corpus decoder smoke",
 "src": "multiverse int m;\nint acc = 0;\nmultiverse void f() { if (m) { acc = acc + 1; } }\nint driver(int n) { acc = 0; f(); return acc + n; }",
 "args": [1], "assignments": [{"ints": {"m": 1}, "ptrs": {}}],
 "schedule": [{"top": [{"op": "commit"}], "mid": [], "arg": 1}]}
EOF
dune exec bin/mvfuzz.exe -- --check-corpus "$corpus_dir" 2>&1 \
  | grep -q "repro.json: ok (bug stays fixed)" \
  || { echo "corpus smoke: the well-formed reproducer did not replay clean"; exit 1; }
sed 's/"op": "commit"/"op": "comit"/' "$corpus_dir"/repro.json > "$tmp"/misspelt.json
mv "$tmp"/misspelt.json "$corpus_dir"/repro.json
dune exec bin/mvfuzz.exe -- --check-corpus "$corpus_dir" 2>&1 \
  | grep -q "repro.json: unreadable" \
  || { echo "corpus smoke: a misspelt schedule op was not logged unreadable"; exit 1; }

echo "check.sh: all gates passed"
