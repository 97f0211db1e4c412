(* Runtime deep tests beyond the e2e suite: site verification (skipping
   sites another mechanism owns), protection discipline during patching,
   inline toggling, fn-pointer switches, and runtime statistics. *)

open Util
module Runtime = Core.Runtime
module Patch = Core.Patch
module Image = Mv_link.Image
module Insn = Mv_isa.Insn

let fig2 =
  {|
  multiverse bool a;
  multiverse int b;
  int w;
  void side() { w = w + 1; }
  multiverse void multi() {
    if (a) {
      side();
      if (b) { side(); }
    }
  }
  int foo() { w = 0; multi(); return w; }
|}

let test_protection_restored_after_commit () =
  let s = session fig2 in
  let img = s.program.Core.Compiler.p_image in
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  (* every text page must be back to read+execute, not writable *)
  let text = img.Image.text in
  let first = text.Image.sr_base / Image.page_size in
  let last = (text.Image.sr_base + text.Image.sr_size - 1) / Image.page_size in
  for page = first to last do
    let p = img.Image.prot.(page) in
    check_bool "page not writable" false p.Image.p_write;
    check_bool "page executable" true p.Image.p_exec
  done

let test_patching_without_mprotect_faults () =
  (* the Patch module must fail loudly if asked to write without opening a
     window; write_text opens one itself, so poke the image directly *)
  let s = session fig2 in
  let img = s.program.Core.Compiler.p_image in
  let multi = Image.symbol img "multi" in
  match Image.write img multi 0x90 1 with
  | exception Image.Segfault _ -> ()
  | () -> Alcotest.fail "raw text write must segfault"

let test_icache_flushed_after_commit () =
  (* run once to warm the decode cache, then commit and re-run: the machine
     must see the patched code (i.e. the runtime flushed) *)
  let s = session fig2 in
  set_global s "a" 1;
  set_global s "b" 1;
  check_int "warm" 2 (run s "foo" []);
  ignore (Runtime.commit s.runtime);
  set_global s "a" 0;  (* committed binding must stick *)
  check_int "patched code executes" 2 (run s "foo" []);
  check_bool "icache flushes happened" true
    (s.machine.Mv_vm.Machine.perf.Mv_vm.Perf.icache_flushes > 0)

let test_site_verification_skips_foreign_bytes () =
  (* clobber the call site with something the runtime did not write; commit
     must skip it (and report), not corrupt it further *)
  let s = session fig2 in
  let img = s.program.Core.Compiler.p_image in
  let sites = Core.Descriptor.parse_callsites img in
  let site = (List.hd sites).Core.Descriptor.cs_site in
  (* a foreign mechanism (say, a tracer) rewrote the call site *)
  Image.mprotect img ~addr:site ~len:5 Image.prot_rwx;
  Image.write_bytes img site (Mv_isa.Encode.encode (Insn.Jmp 0));
  Image.mprotect img ~addr:site ~len:5 Image.prot_rx;
  let foreign = Image.read_bytes img site 5 in
  set_global s "a" 1;
  set_global s "b" 0;
  ignore (Runtime.commit s.runtime);
  check_bool "site skipped and reported" true
    (List.exists (fun (addr, _) -> addr = site) (Runtime.skipped_sites s.runtime));
  check_bool "foreign bytes untouched" true
    (Bytes.equal foreign (Image.read_bytes img site 5));
  (* the prologue jump still redirects the function, so semantics hold *)
  ignore (Runtime.revert s.runtime)

(* A site whose restore was skipped (its bytes are foreign) is left alone
   by a later fallback: commit stages an unbind only when something is
   installed, as commit_safe always has, so it neither re-attempts the
   restore nor reports the skip a second time. *)
let test_fallback_leaves_foreign_site_alone () =
  let src =
    {|
    multiverse values(0, 1) int m;
    int w;
    multiverse void f() { if (m) { w = w + 3; } }
    int d() { w = 0; f(); return w; }
  |}
  in
  let skips_after_fallback ~safe =
    let s = session src in
    let img = s.program.Core.Compiler.p_image in
    if safe then Runtime.set_live_scanner s.runtime (fun () -> []);
    set_global s "m" 1;
    ignore (Runtime.commit s.runtime);
    let f = Image.symbol img "f" in
    let site =
      (List.find
         (fun (cs : Core.Descriptor.callsite) -> cs.Core.Descriptor.cs_target = f)
         (Core.Descriptor.parse_callsites img))
        .Core.Descriptor.cs_site
    in
    Image.mprotect img ~addr:site ~len:5 Image.prot_rwx;
    Image.write_bytes img site (Mv_isa.Encode.encode (Insn.Jmp 0));
    Image.mprotect img ~addr:site ~len:5 Image.prot_rx;
    ignore (Runtime.revert s.runtime);
    check_int "restore skipped once" 1 (List.length (Runtime.skipped_sites s.runtime));
    set_global s "m" 5 (* no variant matches *);
    let bound = if safe then Runtime.commit_safe s.runtime else Runtime.commit s.runtime in
    check_int "nothing bound" 0 bound;
    check_bool "fallback signalled" true (Runtime.fallbacks s.runtime = [ "f" ]);
    List.length (Runtime.skipped_sites s.runtime)
  in
  check_int "commit does not re-report the skip" 1 (skips_after_fallback ~safe:false);
  check_int "commit_safe agrees" 1 (skips_after_fallback ~safe:true)

let test_inline_toggle () =
  let s = session fig2 in
  set_global s "a" 0;
  set_global s "b" 0;
  Runtime.set_inlining s.runtime false;
  ignore (Runtime.commit s.runtime);
  let stats = Runtime.stats s.runtime in
  check_int "nothing inlined" 0 stats.Runtime.st_sites_inlined;
  check_int "site retargeted instead" 1 stats.Runtime.st_sites_retargeted;
  check_int "still correct" 0 (run s "foo" []);
  Runtime.set_inlining s.runtime true;
  ignore (Runtime.revert s.runtime);
  ignore (Runtime.commit s.runtime);
  let stats = Runtime.stats s.runtime in
  check_int "inlined when enabled" 1 stats.Runtime.st_sites_inlined

let test_commit_returns_bound_count () =
  let s = session fig2 in
  set_global s "a" 1;
  set_global s "b" 1;
  check_int "commit binds one entity" 1 (Runtime.commit s.runtime);
  check_int "revert reports entities" 1 (Runtime.revert s.runtime);
  check_int "unknown function" (-1) (Runtime.commit_func s.runtime "nonexistent");
  check_int "unknown variable" (-1) (Runtime.commit_refs s.runtime "nonexistent")

let test_fnptr_commit_and_retarget () =
  let src =
    {|
    int mode_a() { return 1; }
    int mode_b() { return 2; }
    multiverse fnptr handler = &mode_a;
    int dispatch() { return handler(); }
  |}
  in
  let s = session src in
  let img = s.program.Core.Compiler.p_image in
  check_int "indirect before commit" 1 (run s "dispatch" []);
  ignore (Runtime.commit s.runtime);
  check_int "direct after commit" 1 (run s "dispatch" []);
  (* the site is now a direct call (or inlined body), not Call_ind *)
  let sites = Core.Descriptor.parse_callsites img in
  let site = (List.hd sites).Core.Descriptor.cs_site in
  let insn, _ = Mv_isa.Decode.decode img.Image.mem ~off:site in
  check_bool "no longer indirect" true
    (match insn with Insn.Call_ind _ -> false | _ -> true);
  (* rebinding the pointer and re-committing retargets *)
  Image.write img (Image.symbol img "handler") (Image.symbol img "mode_b") 8;
  ignore (Runtime.commit s.runtime);
  check_int "retargeted" 2 (run s "dispatch" []);
  (* revert restores the original indirect call, which follows the pointer *)
  ignore (Runtime.revert s.runtime);
  check_int "indirect again, current pointer" 2 (run s "dispatch" []);
  Image.write img (Image.symbol img "handler") (Image.symbol img "mode_a") 8;
  check_int "dynamic dispatch follows writes again" 1 (run s "dispatch" [])

let test_fnptr_null_falls_back () =
  let src =
    {|
    int mode_a() { return 1; }
    multiverse fnptr handler = &mode_a;
    int dispatch() { return handler(); }
  |}
  in
  let s = session src in
  let img = s.program.Core.Compiler.p_image in
  Image.write img (Image.symbol img "handler") 0 8;
  ignore (Runtime.commit s.runtime);
  check_bool "null pointer signalled" true (Runtime.fallbacks s.runtime <> [])

let test_commit_with_many_functions () =
  (* a larger program: every function must bind independently *)
  let src =
    {|
    multiverse int m;
    int w;
    multiverse void f0() { if (m) { w = w + 1; } }
    multiverse void f1() { if (m) { w = w + 2; } }
    multiverse void f2() { if (m) { w = w + 4; } }
    multiverse void f3() { if (m) { w = w + 8; } }
    int all() { w = 0; f0(); f1(); f2(); f3(); return w; }
  |}
  in
  let s = session src in
  set_global s "m" 1;
  check_int "four bound" 4 (Runtime.commit s.runtime);
  check_int "all run" 15 (run s "all" []);
  set_global s "m" 0;
  check_int "still bound to 1" 15 (run s "all" []);
  check_int "rebind" 4 (Runtime.commit s.runtime);
  check_int "all elided" 0 (run s "all" [])

let test_stats_shape () =
  let s = session fig2 in
  let st0 = Runtime.stats s.runtime in
  check_int "functions" 1 st0.Runtime.st_functions;
  check_int "variants" 3 st0.Runtime.st_variants;
  check_int "callsites" 1 st0.Runtime.st_callsites;
  check_int "nothing patched yet" 0 st0.Runtime.st_patches;
  set_global s "a" 1;
  set_global s "b" 1;
  ignore (Runtime.commit s.runtime);
  let st1 = Runtime.stats s.runtime in
  check_bool "patches recorded" true (st1.Runtime.st_patches > 0);
  check_bool "bytes recorded" true (st1.Runtime.st_bytes_patched > 0)

let test_inlineable_body_detection () =
  let s = session "void tiny() { __cli(); } int w; void big() { w = 1; w = 2; }" in
  let img = s.program.Core.Compiler.p_image in
  let patch = Patch.create img ~flush:(fun ~addr:_ ~len:_ -> ()) in
  let tiny = Image.symbol img "tiny" in
  (match
     Patch.inlineable_body patch ~fn_addr:tiny ~fn_size:(Image.symbol_size img "tiny")
       ~budget:5
   with
  | Some body -> check_int "cli body is 1 byte" 1 (Bytes.length body)
  | None -> Alcotest.fail "cli body must be inlineable");
  let big = Image.symbol img "big" in
  match
    Patch.inlineable_body patch ~fn_addr:big ~fn_size:(Image.symbol_size img "big")
      ~budget:5
  with
  | None -> ()
  | Some _ -> Alcotest.fail "a 2-store body must not fit a 5-byte site"

(* A rebind writes each changed site once.  On the 1,170-site spinlock
   farm a config_smp toggle after warm-up rewrites every call site and
   both prologue jumps exactly once — as many writes, bytes and icache
   flushes as a first bind — and leaves the text a fresh session
   committed straight to the new value holds. *)
let test_toggle_writes_each_site_once () =
  let src = Mv_workloads.Callsite_farm.source ~callers:117 ~pairs:5 in
  let text s =
    let img = s.program.Core.Compiler.p_image in
    Image.read_bytes img img.Image.text.Image.sr_base img.Image.text.Image.sr_size
  in
  let s = session src in
  set_global s "config_smp" 1;
  ignore (Runtime.commit s.runtime);
  let flushes = ref 0 in
  Mv_vm.Machine.set_tracer s.machine
    (Some (function Mv_obs.Trace.Icache_flush _ -> incr flushes | _ -> ()));
  let before = Runtime.stats s.runtime in
  set_global s "config_smp" 0;
  ignore (Runtime.commit s.runtime);
  let after = Runtime.stats s.runtime in
  check_int "farm call sites" 1170 after.Runtime.st_callsites;
  check_int "one write per site and prologue" 1172
    (after.Runtime.st_patches - before.Runtime.st_patches);
  check_int "bytes written" 5860
    (after.Runtime.st_bytes_patched - before.Runtime.st_bytes_patched);
  check_int "one flush per write" 1172 !flushes;
  let fresh = session src in
  set_global fresh "config_smp" 0;
  ignore (Runtime.commit fresh.runtime);
  check_bool "text equals a fresh commit to the new value" true
    (Bytes.equal (text s) (text fresh))

let suite =
  [
    tc "protection restored after commit (W^X)" test_protection_restored_after_commit;
    tc "raw text writes fault" test_patching_without_mprotect_faults;
    tc "icache flushed by the runtime" test_icache_flushed_after_commit;
    tc "site verification skips foreign bytes" test_site_verification_skips_foreign_bytes;
    tc "fallback leaves a foreign site alone" test_fallback_leaves_foreign_site_alone;
    tc "inlining can be toggled" test_inline_toggle;
    tc "API return values" test_commit_returns_bound_count;
    tc "fnptr commit, retarget, revert" test_fnptr_commit_and_retarget;
    tc "null fnptr falls back" test_fnptr_null_falls_back;
    tc "many functions bind independently" test_commit_with_many_functions;
    tc "runtime statistics" test_stats_shape;
    tc "inlineable body detection" test_inlineable_body_detection;
    tc "a toggle writes each site once" test_toggle_writes_each_site_once;
  ]
