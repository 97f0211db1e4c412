(* Extension workload: Ftrace-style function tracing via multiverse.

   Section 1.1 of the paper lists Ftrace among the kernel's home-grown
   binary-patching mechanisms: every traceable function begins with a probe
   that is patched to nops while tracing is off.  Multiverse subsumes the
   mechanism directly: the probe is a multiversed function guarded by a
   [trace_enabled] switch — committed off, the empty variant is inlined as
   nops into every instrumentation site (zero-cost probes); committed on,
   probes record into a ring buffer. *)

type build = Plain | Multiversed

let ring_size = 1024

let source (b : build) : string =
  let mv = match b with Plain -> "" | Multiversed -> "multiverse " in
  Printf.sprintf
    {|
    %sint trace_enabled;
    int trace_buf[%d];
    int trace_pos;
    int trace_dropped;

    // the probe every instrumented function starts with (Ftrace's mcount)
    %svoid trace_hook(int fn_id) {
      if (trace_enabled) {
        trace_buf[trace_pos & %d] = fn_id;
        trace_pos = trace_pos + 1;
      }
    }

    // ------------------------------------------------------------
    // instrumented "kernel" functions
    // ------------------------------------------------------------
    int file_size;

    int vfs_read(int n) {
      trace_hook(1);
      return n < file_size ? n : file_size;
    }

    int vfs_write(int n) {
      trace_hook(2);
      file_size = file_size + n;
      return n;
    }

    int sys_getpid() {
      trace_hook(3);
      return 42;
    }

    void bench_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
        vfs_write(8);
        vfs_read(4);
        sys_getpid();
      }
    }
  |}
    mv ring_size mv (ring_size - 1)

let prepare (b : build) ~enabled : Harness.session =
  let s = Harness.session1 (source b) in
  Harness.set s "trace_enabled" (Bool.to_int enabled);
  (match b with
  | Plain -> ()
  | Multiversed -> ignore (Harness.commit s));
  s

(** Mean cycles per instrumented syscall-triple. *)
let measure ?(samples = 120) ?(calls = 100) (b : build) ~enabled : Harness.measurement =
  let s = prepare b ~enabled in
  Harness.measure ~samples ~calls s ~loop_fn:"bench_loop"

(** Events recorded after running [calls] benchmark iterations (three
    probes each). *)
let events_recorded (b : build) ~enabled ~calls : int =
  let s = prepare b ~enabled in
  ignore (Harness.call s "bench_loop" [ calls ]);
  Harness.get s "trace_pos"

(** The last [n] recorded function ids, oldest first. *)
let ring_tail (s : Harness.session) ~n : int list =
  let img = s.Harness.program.Core.Compiler.p_image in
  let base = Mv_link.Image.symbol img "trace_buf" in
  let pos = Harness.get s "trace_pos" in
  List.init n (fun i ->
      let idx = (pos - n + i) land (ring_size - 1) in
      Mv_link.Image.read img (base + (idx * 8)) 8)

(** The probe sites that became pure nops when tracing was committed off. *)
let nop_sites (s : Harness.session) : int =
  (Core.Runtime.stats s.Harness.runtime).Core.Runtime.st_sites_inlined
