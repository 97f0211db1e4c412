(* User-level case study: the musl C library (Section 6.2.2, Figure 5).

   musl guards POSIX thread-safety with an owner-less spinlock ([__lock])
   and a stdio file-object lock ([__lockfile]); it maintains
   [threads_minus_1] on every pthread_create/exit.  The multiversed build
   marks that counter as a configuration switch and the lock/unlock
   functions as variation points: in the single-threaded state the
   specialized lock bodies are empty and get inlined away as nops at every
   call site inside malloc, random and fputc.

   The mini-musl here implements:
   - a size-class free-list [malloc]/[free] (16-byte classes, header word),
   - [random] as musl's locked LCG,
   - buffered [fputc] over a 1 KiB stdio buffer with file locking. *)

type build = Plain | Multiversed

let source (b : build) : string =
  let mv = match b with Plain -> "" | Multiversed -> "multiverse " in
  let gate_open =
    match b with Plain -> "" | Multiversed -> "if (threads_minus_1) {"
  in
  let gate_close = match b with Plain -> "" | Multiversed -> "}" in
  Printf.sprintf
    {|
    %sint threads_minus_1;
    int malloc_lock;
    int file_lock;
    int file_lock_owner;

    %svoid __lock() {
      if (threads_minus_1) {
        while (__atomic_xchg(&malloc_lock, 1)) {
          __pause();
        }
      }
    }
    %svoid __unlock() {
      if (threads_minus_1) {
        malloc_lock = 0;
      }
    }
    // stdio locking: mainline musl takes the atomic CAS unconditionally in
    // __lockfile; the threads_minus_1 gate is exactly what the paper *adds*
    // in the multiversed build ("we extend ... the stdio file-object
    // locking such that we skip the lock if only one thread is running")
    %svoid __lockfile() {
      %s
        int tid = 1;
        if (file_lock_owner == tid) {
          return;
        }
        while (__atomic_xchg(&file_lock, 1)) {
          __pause();
        }
        file_lock_owner = tid;
      %s
    }
    %svoid __unlockfile() {
      %s
        file_lock_owner = 0;
        file_lock = 0;
      %s
    }

    // ------------------------------------------------------------
    // malloc: 16-byte size classes, per-class free lists, bump brk
    // ------------------------------------------------------------
    int bins[32];
    int heap[65536];
    int brk_off;

    ptr malloc(int n) {
      int cls = (n + 15) >> 4;
      if (cls >= 32) {
        return 0;
      }
      __lock();
      ptr p = bins[cls];
      if (p) {
        bins[cls] = *p;
      } else {
        p = heap + brk_off;
        brk_off = brk_off + ((cls + 1) * 16) + 16;
        if (brk_off >= 524288) {
          // out of arena: reset (benchmark allocations are transient)
          brk_off = 0;
          p = heap;
        }
      }
      *p = cls;
      __unlock();
      return p + 8;
    }

    void free_(ptr q) {
      if (q == 0) {
        return;
      }
      __lock();
      ptr p = q - 8;
      int cls = *p;
      *p = bins[cls];
      bins[cls] = p;
      __unlock();
    }

    // ------------------------------------------------------------
    // random: musl's locked LCG
    // ------------------------------------------------------------
    int rand_state;

    int random_() {
      __lock();
      rand_state = ((rand_state * 1103515245) + 12345) & 0x7FFFFFFF;
      int r = rand_state;
      __unlock();
      return r;
    }

    // ------------------------------------------------------------
    // fputc: buffered stdio with file-object locking
    // ------------------------------------------------------------
    uint8 file_buf[1024];
    int file_pos;
    int file_flushes;

    int fputc_(int c) {
      __lockfile();
      file_buf[file_pos] = c;
      file_pos = file_pos + 1;
      if (file_pos == 1024) {
        file_pos = 0;
        file_flushes = file_flushes + 1;
      }
      __unlockfile();
      return c;
    }

    // ------------------------------------------------------------
    // benchmark loops (one per Figure 5 series)
    // ------------------------------------------------------------
    void bench_random(int n) {
      for (int i = 0; i < n; i = i + 1) {
        random_();
      }
    }
    // malloc benchmarks run in bin steady state (allocate + free), so the
    // fast path is a free-list pop/push guarded by the elidable locks
    void bench_malloc0(int n) {
      for (int i = 0; i < n; i = i + 1) {
        free_(malloc(0));
      }
    }
    void bench_malloc1(int n) {
      for (int i = 0; i < n; i = i + 1) {
        free_(malloc(1));
      }
    }
    void bench_fputc(int n) {
      for (int i = 0; i < n; i = i + 1) {
        fputc_(97);
      }
    }
  |}
    mv mv mv mv gate_open gate_close mv gate_open gate_close

type bench = Random | Malloc0 | Malloc1 | Fputc

let bench_name = function
  | Random -> "random()"
  | Malloc0 -> "malloc(0)"
  | Malloc1 -> "malloc(1)"
  | Fputc -> "fputc('a')"

let loop_fn = function
  | Random -> "bench_random"
  | Malloc0 -> "bench_malloc0"
  | Malloc1 -> "bench_malloc1"
  | Fputc -> "bench_fputc"

let all_benches = [ Random; Malloc0; Malloc1; Fputc ]

let prepare (b : build) ~threads : Harness.session =
  let s = Harness.session1 (source b) in
  Harness.set s "threads_minus_1" threads;
  (match b with
  | Plain -> ()
  | Multiversed -> ignore (Harness.commit s));
  s

(** Mean cycles per libc call. *)
let measure ?(samples = 120) ?(calls = 200) (b : build) (bench : bench) ~threads :
    Harness.measurement =
  let s = prepare b ~threads in
  Harness.measure ~samples ~calls s ~loop_fn:(loop_fn bench)

(** Accumulated run time in milliseconds for [invocations] calls (the paper
    reports 10 million). *)
let to_ms_for (m : Harness.measurement) ~invocations =
  Mv_vm.Cost.cycles_to_ms (m.Harness.m_mean *. float_of_int invocations)

(** fputc output bandwidth in MiB/s (one byte per invocation). *)
let fputc_bandwidth (m : Harness.measurement) =
  let seconds_per_byte = Mv_vm.Cost.cycles_to_seconds m.Harness.m_mean in
  1.0 /. seconds_per_byte /. (1024.0 *. 1024.0)

(** Branches executed per call (the paper reports -40%% for malloc(1)). *)
let branches_per_call (b : build) (bench : bench) ~threads : float =
  let s = prepare b ~threads in
  let calls = 1000 in
  let d = Harness.counters s ~loop_fn:(loop_fn bench) ~calls in
  float_of_int d.Mv_vm.Perf.s_branches /. float_of_int calls
