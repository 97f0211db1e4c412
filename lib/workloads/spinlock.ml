(* Kernel case study 1: spinlock lock elision (Sections 1 and 6.1,
   Figures 1 and 4 left).

   Four kernel builds, as in the paper:
   - [Mainline_smp]   the distribution kernel: CONFIG_SMP fixed at build
                      time, the lock is always taken;
   - [If_elision]     lock elision through a dynamic [if (config_smp)]
                      branch on every invocation (Figure 1.B);
   - [Multiverse]     the same code with [config_smp] and the spinlock
                      functions multiversed (Figure 1.C);
   - [Static_up]      CONFIG_SMP=n resolved statically; the acquisition
                      code does not exist and the operations are inlined
                      (Figure 1.A with the #ifdef branch removed).

   The benchmark measures spin_irq_lock() + spin_irq_unlock() per
   invocation, in unicore (config_smp=0) and multicore (config_smp=1)
   modes. *)

type kernel = Mainline_smp | If_elision | Multiverse | Static_up

let kernel_name = function
  | Mainline_smp -> "mainline SMP"
  | If_elision -> "lock elision [if]"
  | Multiverse -> "lock elision [multiverse]"
  | Static_up -> "static UP [ifdef]"

(* The common benchmark scaffold.  [body] is the per-iteration payload. *)
let bench_scaffold body =
  Printf.sprintf
    {|
    void bench_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
        %s
      }
    }
    void empty_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
      }
    }
  |}
    body

(** Mini-C source of the kernel's locking layer for each build. *)
let source = function
  | Mainline_smp ->
      {|
    int lock_word;
    void spin_irq_lock() {
      __cli();
      while (__atomic_xchg(&lock_word, 1)) {
        __pause();
      }
    }
    void spin_irq_unlock() {
      lock_word = 0;
      __sti();
    }
  |}
      ^ bench_scaffold "spin_irq_lock(); spin_irq_unlock();"
  | If_elision ->
      {|
    int config_smp;
    int lock_word;
    void spin_irq_lock() {
      __cli();
      if (config_smp) {
        while (__atomic_xchg(&lock_word, 1)) {
          __pause();
        }
      }
    }
    void spin_irq_unlock() {
      if (config_smp) {
        lock_word = 0;
      }
      __sti();
    }
  |}
      ^ bench_scaffold "spin_irq_lock(); spin_irq_unlock();"
  | Multiverse ->
      {|
    multiverse int config_smp;
    int lock_word;
    multiverse void spin_irq_lock() {
      __cli();
      if (config_smp) {
        while (__atomic_xchg(&lock_word, 1)) {
          __pause();
        }
      }
    }
    multiverse void spin_irq_unlock() {
      if (config_smp) {
        lock_word = 0;
      }
      __sti();
    }
  |}
      ^ bench_scaffold "spin_irq_lock(); spin_irq_unlock();"
  | Static_up ->
      (* CONFIG_SMP=n: the compiler sees no lock at all, and the kernel
         inlines the tiny lock/unlock bodies (the paper's Figure 1.A) *)
      {|
    int lock_word;
  |}
      ^ bench_scaffold "__cli(); __sti();"

(** Measured mean cycles for lock+unlock in the given kernel and mode. *)
let measure ?(samples = 120) ?(calls = 100) (k : kernel) ~(smp : bool) :
    Harness.measurement =
  let s = Harness.session1 (source k) in
  (match k with
  | Mainline_smp | Static_up -> ()
  | If_elision -> Harness.set s "config_smp" (Bool.to_int smp)
  | Multiverse ->
      Harness.set s "config_smp" (Bool.to_int smp);
      ignore (Harness.commit s));
  Harness.measure ~samples ~calls s ~loop_fn:"bench_loop"

(* Figure 1's spin_irq_lock variants carry the [inline] keyword: case B is
   the dynamically-checked implementation *inlined* at the call site, unlike
   the out-of-line "lock elision [if]" kernel of Figure 4.  This source
   models the inlined form by expanding the bodies into the loop. *)
let if_elision_inline_source =
  {|
    int config_smp;
    int lock_word;
  |}
  ^ bench_scaffold
      {|__cli();
        if (config_smp) {
          while (__atomic_xchg(&lock_word, 1)) {
            __pause();
          }
        }
        if (config_smp) {
          lock_word = 0;
        }
        __sti();|}

let measure_inline_source ?(samples = 120) ?(calls = 100) ?(smp = false) source =
  let s = Harness.session1 source in
  (match Harness.get s "config_smp" with
  | (exception _) -> ()
  | _ -> Harness.set s "config_smp" (Bool.to_int smp));
  Harness.measure ~samples ~calls s ~loop_fn:"bench_loop"

let measure_if_inline ?(samples = 120) ?(calls = 100) ~smp () =
  measure_inline_source ~samples ~calls ~smp if_elision_inline_source

(** The Figure 1 table: static / dynamic / multiverse cycles for SMP=false
    and SMP=true. *)
let figure1 ?(samples = 120) () =
  let static_up = measure ~samples Static_up ~smp:false in
  (* with CONFIG_SMP=y the lock functions stay out of line even in a static
     build — "Linux kernel spinlocks are usually not inlined" (Section 6.1);
     in the UP build they degenerate to the inline irq_disable/enable *)
  let static_smp = measure ~samples Mainline_smp ~smp:true in
  let dyn_up = measure_if_inline ~samples ~smp:false () in
  let dyn_smp = measure_if_inline ~samples ~smp:true () in
  let mv_up = measure ~samples Multiverse ~smp:false in
  let mv_smp = measure ~samples Multiverse ~smp:true in
  [
    ("SMP=false", static_up, dyn_up, mv_up);
    ("SMP=true", static_smp, dyn_smp, mv_smp);
  ]

(** Sanity driver used by tests: lock/unlock must keep the lock word
    consistent and interrupts balanced. *)
let functional_source =
  source Multiverse
  ^ {|
    int stress(int n) {
      for (int i = 0; i < n; i = i + 1) {
        spin_irq_lock();
        if (lock_word != config_smp) {
          return -1;
        }
        spin_irq_unlock();
        if (lock_word != 0) {
          return -2;
        }
      }
      return 0;
    }
  |}

(* ------------------------------------------------------------------ *)
(* Contended critical sections across harts (the SMP workload)         *)
(* ------------------------------------------------------------------ *)

(** The multiverse kernel plus a shared counter driven through the lock.
    With [config_smp=1] committed the xchg spinlock serializes the
    increments (the counter is exact: harts x iterations); with
    [config_smp=0] on more than one hart the elided lock lets the
    non-atomic read-modify-write race and lose updates — the torn state
    the SMP tests use as a tamper indicator. *)
let contended_source =
  source Multiverse
  ^ {|
    int counter;
    void worker(int n) {
      for (int i = 0; i < n; i = i + 1) {
        spin_irq_lock();
        counter = counter + 1;
        spin_irq_unlock();
      }
    }
  |}

(** Run [worker iters] on every hart of a fresh [n_harts] session and
    return the session plus the final counter.  [commit_at] (scheduler
    steps into the run) injects a whole-image [Runtime.commit] mid-run —
    a rendezvous under real contention. *)
let run_contended ?(n_harts = 2) ?policy ?(seed = 1) ?commit_at ~smp ~iters ()
    : Harness.session * int =
  let s = Harness.session1 ~n_harts ?policy ~seed contended_source in
  (* the commits run under stop_machine at any hart count, so the
     1-hart run still counts its (uncontended) rendezvous *)
  Harness.enable_stop_machine s;
  Harness.set s "config_smp" (Bool.to_int smp);
  ignore (Harness.commit s);
  for h = 0 to n_harts - 1 do
    Harness.start s ~hart:h "worker" [ iters ]
  done;
  (match commit_at with
  | None -> ()
  | Some k ->
      let steps = ref 0 in
      let more = ref true in
      while !more && !steps < k do
        more := Harness.step s;
        incr steps
      done;
      (* the commit models a patch initiated on hart 0, so it must happen
         at a point where hart 0 is schedulable (interrupts enabled) — a
         rendezvous started while hart 0 holds the irq-protected lock
         could never gather the spinners' acks (the stop_machine deadlock
         real kernels avoid the same way) *)
      let m0 = Mv_vm.Smp.machine s.Harness.smp 0 in
      while !more && not m0.Mv_vm.Machine.irq_enabled do
        more := Harness.step s;
        incr steps
      done;
      if !more then ignore (Harness.commit s));
  Harness.run s;
  (s, Harness.get s "counter")
