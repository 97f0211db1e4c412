(* Seeded multi-unit, kernel-like Mini-C programs for the kernel-build
   workload.

   Unit [core.c] defines the configuration switches and the multiversed
   functions; units [sub<k>.c] hold caller functions whose statements call
   them, so every call is a recorded call site.  The switches cover the
   four kinds the compiler treats differently: a bool ([config_smp]), a
   [values(..)] int, an enum, and a [bind(..)] function that also reads an
   unbound switch.  Several assignments of [trace_ev] and [hook] optimize
   to equal bodies, so variant generation both expands and merges.

   [probe] calls every caller function once, so it runs every call site;
   its result is compared with [Mv_ir.Interp] on the same source. *)

let core_unit =
  {|
enum sched { FIFO, RR, IDLE };
multiverse bool config_smp;
multiverse values(0, 1, 2, 3) int log_level;
multiverse enum sched sched_mode;
multiverse bool feat_a;
multiverse bool feat_b;
multiverse bool feat_c;
int lock_word;
int stat;

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

multiverse void trace_ev(int x) {
  if (log_level >= 2) {
    stat = stat + x;
  }
  if (log_level == 3) {
    stat = stat + 1000;
  }
}

multiverse int sched_pick(int x) {
  switch (sched_mode) {
    case 0: return x;
    case 1: return x + 1;
    case 2: return x * 2;
  }
  return 0;
}

multiverse bind(feat_a, feat_b) void hook(int x) {
  if (feat_a) {
    stat = stat + x;
    if (feat_b) {
      stat = stat + (2 * x);
    }
  }
  if (feat_c) {
    stat = stat + 7;
  }
}
|}

let caller_header =
  {|
extern multiverse void spin_irq_lock();
extern multiverse void spin_irq_unlock();
extern multiverse void trace_ev(int x);
extern multiverse int sched_pick(int x);
extern multiverse void hook(int x);
extern int stat;
|}

(* The switch globals and their domains, in declaration order. *)
let switches =
  [ ("config_smp", 2); ("log_level", 4); ("sched_mode", 3); ("feat_a", 2);
    ("feat_b", 2); ("feat_c", 2) ]

type t = {
  units : (string * string) list;
  sites : int;  (** call sites of multiversed functions *)
  fns : int;  (** caller functions *)
  valuation : (string * int) list;  (** switch values committed at boot *)
  arg : int;  (** probe argument *)
}

let source_bytes p =
  List.fold_left (fun a (_, s) -> a + String.length s) 0 p.units

(* One caller statement: (Mini-C text, call sites it adds). *)
let stmt rs =
  let c = 1 + Random.State.int rs 90 in
  match Random.State.int rs 5 with
  | 0 | 1 ->
      ( Printf.sprintf
          "  spin_irq_lock();\n  stat = stat + %d;\n  spin_irq_unlock();\n" c,
        2 )
  | 2 -> (Printf.sprintf "  trace_ev(x + %d);\n" c, 1)
  | 3 -> (Printf.sprintf "  x = sched_pick(x + %d) & 1023;\n" c, 1)
  | _ -> (Printf.sprintf "  hook(x + %d);\n" c, 1)

(* A program of about [sites] call sites; larger programs have more
   caller units, so the seed changes the code but not the shape. *)
let make rs ~sites =
  let n_units = 2 + min 2 (sites / 500) in
  let bufs = Array.init n_units (fun _ -> Buffer.create 4096) in
  let names = Array.make n_units [] in
  Array.iter (fun b -> Buffer.add_string b caller_header) bufs;
  let total = ref 0 and fns = ref 0 in
  while !total < sites do
    let u = Random.State.int rs n_units in
    let name = Printf.sprintf "sub%d_f%d" u (List.length names.(u)) in
    let b = bufs.(u) in
    Buffer.add_string b (Printf.sprintf "\nint %s(int x) {\n" name);
    let budget = 6 + Random.State.int rs 10 in
    let here = ref 0 in
    while !here < budget do
      let text, n = stmt rs in
      Buffer.add_string b text;
      here := !here + n
    done;
    Buffer.add_string b "  return x;\n}\n";
    names.(u) <- name :: names.(u);
    total := !total + !here;
    incr fns
  done;
  (* each unit exports [sub<k>_all], which calls its functions in turn *)
  Array.iteri
    (fun u b ->
      Buffer.add_string b (Printf.sprintf "\nint sub%d_all(int x) {\n  int r = 0;\n" u);
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "  r = (r + %s(x)) & 65535;\n" n))
        (List.rev names.(u));
      Buffer.add_string b "  return r;\n}\n")
    bufs;
  let last = bufs.(n_units - 1) in
  for u = 0 to n_units - 2 do
    Buffer.add_string last (Printf.sprintf "extern int sub%d_all(int x);\n" u)
  done;
  Buffer.add_string last "\nint probe(int x) {\n  stat = 0;\n  int r = 0;\n";
  for u = 0 to n_units - 1 do
    Buffer.add_string last (Printf.sprintf "  r = r + sub%d_all(x + %d);\n" u u)
  done;
  Buffer.add_string last "  return r + (stat * 3);\n}\n";
  let units =
    ("core.c", core_unit)
    :: List.init n_units (fun u -> (Printf.sprintf "sub%d.c" u, Buffer.contents bufs.(u)))
  in
  let valuation = List.map (fun (n, d) -> (n, Random.State.int rs d)) switches in
  { units; sites = !total; fns = !fns; valuation; arg = 1 + Random.State.int rs 500 }

(* The reference result: [probe arg] under [valuation], run by the IR
   interpreter on the unoptimized, unspecialized lowering of the same
   source. *)
let reference p =
  let progs =
    List.map
      (fun (name, src) ->
        match Mv_ir.Lower.lower_string src with
        | prog, _ -> prog
        | exception e ->
            failwith (Printf.sprintf "%s: %s" name (Printexc.to_string e)))
      p.units
  in
  let it = Mv_ir.Interp.create progs in
  List.iter (fun (n, v) -> Mv_ir.Interp.write_global it n v) p.valuation;
  Mv_ir.Interp.run it "probe" [ p.arg ]
