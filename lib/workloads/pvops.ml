(* Kernel case study 2: paravirtual operations (Section 6.1, Figure 4
   right).

   PV-Ops are function pointers through which the kernel reaches privileged
   operations; at boot they are patched to direct calls (or inlined) for the
   detected platform.  Three kernel builds:

   - [Current]        the existing PV-Ops patching: direct calls after boot
                      patching, native single-instruction bodies inlined —
                      but the *Xen* backends use the custom calling
                      convention with no scratch registers ([saveall]),
                      which wastes save/restore work when caller-side
                      register pressure is low;
   - [Multiverse]     PV-Ops as multiversed function-pointer switches: the
                      same call sites, but targets use the standard calling
                      convention and are bound with [multiverse_commit];
   - [Static_native]  paravirtualization compiled out: raw cli/sti inline
                      (cannot run as a Xen guest).

   The Xen backends model event-channel masking: disabling "interrupts" in
   a PV guest is a write to the shared-info mask, not a hypercall; the
   hypercall only happens when an event was pending. *)

module Machine = Mv_vm.Machine

type config = Current | Multiverse | Static_native

let config_name = function
  | Current -> "PV-Op patching [current]"
  | Multiverse -> "PV-Op patching [multiverse]"
  | Static_native -> "PV-Op disabled [ifdef]"

let bench =
  {|
    void bench_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
        irq_disable();
        irq_enable();
      }
    }
    void empty_loop(int n) {
      for (int i = 0; i < n; i = i + 1) {
      }
    }
  |}

(* Backends.  The standard-convention implementations serve the multiverse
   build; the saveall ones model the current PV-Ops calling convention. *)
let backends =
  {|
    int xen_mask;
    int xen_pending;

    void native_cli() { __cli(); }
    void native_sti() { __sti(); }

    void xen_cli() { xen_mask = 1; }
    void xen_sti() {
      xen_mask = 0;
      if (xen_pending) {
        __hypercall(2);
      }
    }

    saveall void xen_cli_saveall() { xen_mask = 1; }
    saveall void xen_sti_saveall() {
      xen_mask = 0;
      if (xen_pending) {
        __hypercall(2);
      }
    }
  |}

let source = function
  | Current | Multiverse ->
      backends
      ^ {|
    multiverse fnptr pv_irq_disable = &native_cli;
    multiverse fnptr pv_irq_enable = &native_sti;
    void irq_disable() { pv_irq_disable(); }
    void irq_enable() { pv_irq_enable(); }
  |}
      ^ bench
  | Static_native ->
      backends
      ^ {|
    void irq_disable() { __cli(); }
    void irq_enable() { __sti(); }
  |}
      ^ bench

(** Boot-time binding: assign the platform's backend to the PV-Ops and
    commit (the current mechanism patches at early boot; multiverse commits
    through the same runtime here, with the calling convention being the
    modeled difference). *)
let boot (s : Harness.session) (c : config) (platform : Machine.platform) =
  match c, platform with
  | Static_native, Machine.Native -> ()
  | Static_native, Machine.Xen ->
      invalid_arg "a kernel without PV support cannot run as a Xen guest"
  | (Current | Multiverse), Machine.Native ->
      (* both mechanisms inline the one-instruction native bodies, so the
         current mechanism is modeled with the same standard-convention
         targets here (Section 6.1: "both patching mechanisms are capable
         of inlining these simple function bodies") *)
      Harness.set_fnptr s "pv_irq_disable" "native_cli";
      Harness.set_fnptr s "pv_irq_enable" "native_sti";
      ignore (Harness.commit s)
  | Current, Machine.Xen ->
      Harness.set_fnptr s "pv_irq_disable" "xen_cli_saveall";
      Harness.set_fnptr s "pv_irq_enable" "xen_sti_saveall";
      ignore (Harness.commit s)
  | Multiverse, Machine.Xen ->
      Harness.set_fnptr s "pv_irq_disable" "xen_cli";
      Harness.set_fnptr s "pv_irq_enable" "xen_sti";
      ignore (Harness.commit s)

(** Mean cycles for irq_disable() + irq_enable(). *)
let measure ?(samples = 120) ?(calls = 100) (c : config)
    ~(platform : Machine.platform) : Harness.measurement =
  let s = Harness.session1 ~platform (source c) in
  boot s c platform;
  Harness.measure ~samples ~calls s ~loop_fn:"bench_loop"

(** Functional driver for tests: interrupt state must track the calls on
    native; the Xen mask must track them in a PV guest. *)
let functional_source c =
  source c
  ^ {|
    int stress(int n) {
      for (int i = 0; i < n; i = i + 1) {
        irq_disable();
        irq_enable();
      }
      return 0;
    }
  |}

(** Run the irq workload on every hart of an SMP container concurrently:
    per-hart interrupt flags are independent, so [n] disable/enable pairs
    per hart must leave every hart's flag enabled and (on native) charge
    each hart its own cli/sti work.  Returns the session after the run. *)
let smp_stress ?(n_harts = 2) ?policy ?(seed = 1) ?(iters = 50)
    (platform : Machine.platform) : Harness.session =
  let s =
    Harness.session1 ~n_harts ?policy ~seed ~platform
      (functional_source Multiverse)
  in
  (match platform with
  | Machine.Native ->
      Harness.set_fnptr s "pv_irq_disable" "native_cli";
      Harness.set_fnptr s "pv_irq_enable" "native_sti"
  | Machine.Xen ->
      Harness.set_fnptr s "pv_irq_disable" "xen_cli";
      Harness.set_fnptr s "pv_irq_enable" "xen_sti");
  ignore (Harness.commit s);
  for h = 0 to n_harts - 1 do
    Harness.start s ~hart:h "stress" [ iters ]
  done;
  Harness.run s;
  s
