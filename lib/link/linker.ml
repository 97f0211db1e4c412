(* The static linker.

   Sections with the same name are concatenated across objects — this is how
   the multiverse descriptor arrays from separate translation units become
   one contiguous array in the image (Section 5 of the paper).  Relocations
   are ELF-style: absolute fields receive [S + A]; pc-relative fields
   receive [S + A - P]. *)

module Objfile = Mv_codegen.Objfile

exception Link_error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Link_error m)) fmt

let text_base = 0x1000

let align_up v a = (v + a - 1) / a * a

let section_align = function
  | Objfile.Text -> 16
  | Objfile.Data -> 16
  | Objfile.Mv_variables | Objfile.Mv_functions | Objfile.Mv_callsites
  | Objfile.Mv_framemaps -> 8

(** Default capacity of the runtime-growable variant-text region. *)
let default_vtext_size = 1 lsl 19

(** Store relocation [r] into [buf] at [off]: [S + A] for absolute
    fields, [S + A - P] for pc-relative ones, where [s] is the resolved
    symbol address and [p] the field's absolute address. *)
let patch_reloc buf ~off ~p ~s (r : Objfile.reloc) =
  match r.r_kind with
  | Objfile.Abs64 -> Bytes.set_int64_le buf off (Int64.of_int (s + r.r_addend))
  | Objfile.Abs32 ->
      let v = s + r.r_addend in
      if v < 0 || v > 0xFFFF_FFFF then errf "Abs32 overflow for %s" r.r_sym;
      Bytes.set_int32_le buf off (Int32.of_int v)
  | Objfile.Rel32 ->
      let v = s + r.r_addend - p in
      if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
        errf "Rel32 overflow for %s" r.r_sym;
      Bytes.set_int32_le buf off (Int32.of_int v)

(** Link objects into a runnable image. *)
let link ?(mem_size = 1 lsl 22) ?(vtext_size = default_vtext_size)
    (objs : Objfile.t list) : Image.t =
  if objs = [] then errf "no input objects";
  (* 1. place sections: all text first, then data, then descriptor sections,
        each segment starting on a page boundary *)
  let cursor = ref text_base in
  let placements = ref [] in
  let section_ranges = ref [] in
  let place_section sec =
    let seg_base = align_up !cursor Image.page_size in
    cursor := seg_base;
    List.iter
      (fun obj ->
        let base = align_up !cursor (section_align sec) in
        placements := ((obj.Objfile.o_name, sec), base) :: !placements;
        cursor := base + Objfile.section_size obj sec)
      objs;
    section_ranges :=
      (sec, { Image.sr_base = seg_base; sr_size = !cursor - seg_base }) :: !section_ranges
  in
  List.iter place_section Objfile.all_sections;
  (* reserve the variant-text region: page-aligned, after every static
     section, so the image can gain code after load *)
  let vtext_base = align_up !cursor Image.page_size in
  let vtext_size = align_up (max 0 vtext_size) Image.page_size in
  cursor := vtext_base + vtext_size;
  let end_of_sections = !cursor in
  if end_of_sections >= mem_size - 65536 then
    errf "image does not fit in %d bytes" mem_size;
  let base_of obj sec =
    match List.assoc_opt (obj.Objfile.o_name, sec) !placements with
    | Some b -> b
    | None -> errf "internal: unplaced section %s of %s" (Objfile.section_name sec) obj.o_name
  in
  (* 2. copy section contents *)
  let mem = Bytes.make mem_size '\000' in
  List.iter
    (fun obj ->
      List.iter
        (fun sec ->
          let contents = Objfile.section_contents obj sec in
          Bytes.blit contents 0 mem (base_of obj sec) (Bytes.length contents))
        Objfile.all_sections)
    objs;
  (* 3. global symbol table *)
  let symbols = Hashtbl.create 256 in
  let symbol_sizes = Hashtbl.create 256 in
  List.iter
    (fun obj ->
      List.iter
        (fun (s : Objfile.symbol) ->
          if Hashtbl.mem symbols s.s_name then
            errf "duplicate symbol %s (in %s)" s.s_name obj.Objfile.o_name;
          Hashtbl.replace symbols s.s_name (base_of obj s.s_section + s.s_offset);
          Hashtbl.replace symbol_sizes s.s_name s.s_size)
        (Objfile.symbols obj))
    objs;
  (* 4. apply relocations *)
  List.iter
    (fun obj ->
      List.iter
        (fun (r : Objfile.reloc) ->
          let p = base_of obj r.r_section + r.r_offset in
          let s =
            match Hashtbl.find_opt symbols r.r_sym with
            | Some a -> a
            | None -> errf "undefined symbol %s (referenced from %s)" r.r_sym obj.o_name
          in
          patch_reloc mem ~off:p ~p ~s r)
        (Objfile.relocs obj))
    objs;
  (* 5. page protections: text r-x, everything else rw- *)
  let npages = (mem_size + Image.page_size - 1) / Image.page_size in
  let prot = Array.make npages Image.prot_rw in
  let text_range = List.assoc Objfile.Text !section_ranges in
  let first = text_range.Image.sr_base / Image.page_size in
  let last =
    (text_range.Image.sr_base + max 0 (text_range.Image.sr_size - 1)) / Image.page_size
  in
  for page = first to last do
    prot.(page) <- Image.prot_rx
  done;
  (* the variant-text region is executable from the start; the runtime
     opens mprotect windows to write bodies into it, exactly like text *)
  if vtext_size > 0 then begin
    let first = vtext_base / Image.page_size in
    let last = (vtext_base + vtext_size - 1) / Image.page_size in
    for page = first to last do
      prot.(page) <- Image.prot_rx
    done
  end;
  let heap_base = align_up end_of_sections Image.page_size in
  {
    Image.mem;
    prot;
    symbols;
    symbol_sizes;
    symbol_at_memo = Hashtbl.create 64;
    sections = List.rev !section_ranges;
    text = text_range;
    vtext = { Image.sr_base = vtext_base; sr_size = vtext_size };
    heap_base;
    stack_base = mem_size - 16;
  }
