(* Lazy variant materialization: the demand-driven variant cache.

   With [Runtime.enable_lazy] the image carries no pre-expanded variants;
   instead the compiler hands over one specialization recipe per
   multiversed function.  The first commit of an unseen switch valuation
   specializes the recipe, optimizes and assembles the body, and links it
   into the image's reserved variant-text region.  Bodies are cached under
   their post-optimization canonical form — the same key the eager
   pipeline merges equal clones by — so a structurally equal body is never
   stored twice: a hash hit adds only a descriptor alias.  A configurable
   byte budget bounds residency; eviction drops cold aliases
   (advisor-ordered, least-recently-selected as the deterministic
   fallback) and hands installed victims back to the runtime, whose
   revert / safe-commit / OSR machinery releases them. *)

module Image = Mv_link.Image
module Trace = Mv_obs.Trace
module Emit = Mv_codegen.Emit
module Objfile = Mv_codegen.Objfile

exception Error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type variant = {
  vn_name : string;
  vn_addr : int;
  vn_size : int;
  vn_guards : Descriptor.guard_record list;
  mutable vn_stamp : int;
}

type 'fn host = {
  emit : Trace.event -> unit;
  read : int -> int;
  release : 'fn -> variant -> bool;
  in_use : 'fn -> variant -> bool;
  journaled : unit -> int list;
}

(** One resident variant body, shared by every alias whose specialized
    clone has the same canonical form. *)
type dedup_entry = {
  de_addr : int;  (** body address in the variant-text region *)
  de_size : int;  (** encoded body size *)
  de_alloc : int;  (** allocated block size (16-aligned) *)
  mutable de_refs : int;  (** descriptor aliases sharing the body *)
}

(** What materializing one (recipe, assignment) pair needs besides the
    IR, kept so a re-materialization after eviction skips specializing,
    optimizing, hashing and emitting.  Eviction keeps it: it describes
    the assignment, not a resident body. *)
type spec = {
  sp_symbol : string;  (** the variant symbol *)
  sp_key : string;  (** the specialized body's canonical form *)
  sp_guards : Descriptor.guard_record list;
  mutable sp_frag : Emit.fragment option;
      (** emitted on the first dedup miss; [materialize] relocates a
          copy, so nothing writes these bytes *)
}

(** A function's specialization recipe, its memo, and its resident
    aliases. *)
type recipe = {
  lr_recipe : Variantgen.recipe;
  lr_memo : spec option array;
      (** one slot per assignment of the recipe's cross product, numbered
          as [recipe_assignment] numbers them; [[||]] when the cross
          product exceeds [Variantgen.default_max_variants] (the most
          variants eager generation emits for one function), and then
          every materialization specializes afresh *)
  mutable lr_aliases : variant list;  (** resident, in link order *)
}

(** Book-keeping for one materialized descriptor alias. *)
type 'fn alias = {
  mi_fn : 'fn;  (** the runtime's handle on the function *)
  mi_recipe : recipe;
  mi_key : string;  (** the body's canonical form — its dedup key *)
  mi_alias : variant;
}

type counters = {
  mutable materialized : int;
  mutable dedup_hits : int;
  mutable cache_hits : int;
  mutable evictions : int;
  mutable budget_denials : int;
  mutable bytes : int;
  mutable specialized : int;
}

type 'fn t = {
  image : Image.t;
  patch : Patch.t;
  osr : Osr.t;  (** where materialized bodies register their frame maps *)
  mutable host : 'fn host;
  recipes : (string, recipe) Hashtbl.t;  (** by function symbol *)
  mutable call_pad : string -> int;
      (** the program's call-site padding rule, so materialized bodies are
          assembled byte-compatible with the eager pipeline's *)
  mutable budget : int;  (** resident variant-text byte budget; 0 until enabled *)
  mutable cursor : int;  (** bump pointer into the variant-text region *)
  mutable free : (int * int) list;
      (** freed (addr, size) blocks, address-sorted and coalesced *)
  dedup : (string, dedup_entry) Hashtbl.t;  (** canonical form -> body *)
  resident : (string, 'fn alias) Hashtbl.t;  (** by variant symbol *)
  mutable tick : int;  (** LRU clock, bumped per selection *)
  mutable evict_pending : string list;
      (** victims whose body is still in use (a live activation, or an
          undrained unbind): freed at a later safepoint, oldest first *)
  mutable advisor : (unit -> string list) option;
      (** preferred eviction order (e.g. [Heat.evict_plan] victims) *)
  mutable stale_cache : bool;
      (** fuzzing chaos: skip the dedup-table invalidation on free, so a
          later hash hit links a recycled block (must be caught by the
          lazy-eager-equiv oracle) *)
  counters : counters;
}

(* A cache that was never enabled has no recipes, so it never calls its
   host. *)
let idle =
  {
    emit = ignore;
    read = (fun _ -> 0);
    release = (fun _ _ -> false);
    in_use = (fun _ _ -> false);
    journaled = (fun () -> []);
  }

let create image patch osr =
  {
    image;
    patch;
    osr;
    host = idle;
    recipes = Hashtbl.create 16;
    call_pad = (fun _ -> 0);
    budget = 0;
    cursor = image.Image.vtext.Image.sr_base;
    free = [];
    dedup = Hashtbl.create 16;
    resident = Hashtbl.create 16;
    tick = 0;
    evict_pending = [];
    advisor = None;
    stale_cache = false;
    counters =
      {
        materialized = 0;
        dedup_hits = 0;
        cache_hits = 0;
        evictions = 0;
        budget_denials = 0;
        bytes = 0;
        specialized = 0;
      };
  }

let enable c host ~recipes ~call_pad ~budget =
  List.iter
    (fun (r : Variantgen.recipe) ->
      let n = Domain.cross_product_size r.rc_switches in
      let memo = if n <= Variantgen.default_max_variants then Array.make n None else [||] in
      Hashtbl.replace c.recipes r.rc_name { lr_recipe = r; lr_memo = memo; lr_aliases = [] })
    recipes;
  c.host <- host;
  c.call_pad <- call_pad;
  c.budget <- budget

let enabled c = c.budget > 0
let set_advisor c adv = c.advisor <- adv
let set_stale_cache c flag = c.stale_cache <- flag
let counters c = c.counters
let recipe c fn = Option.map (fun r -> r.lr_recipe) (Hashtbl.find_opt c.recipes fn)

let aliases c fn =
  match Hashtbl.find_opt c.recipes fn with Some r -> r.lr_aliases | None -> []

let resident c =
  Hashtbl.fold
    (fun sym mi acc -> (sym, mi.mi_alias.vn_addr, mi.mi_alias.vn_size) :: acc)
    c.resident []
  |> List.sort compare

(* The current point assignment of a recipe's switches with its number
   in the recipe's cross product (mixed radix over [rc_switches], each
   digit the value's position in its domain), or [None] when any switch
   value is outside its specialization domain (the generic fallback
   covers those, exactly as under eager generation). *)
let recipe_assignment c (r : Variantgen.recipe) : ((string * int) list * int) option =
  let ok = ref true and index = ref 0 in
  let a =
    List.map
      (fun (name, dom) ->
        match Image.symbol_opt c.image name with
        | None ->
            ok := false;
            (name, 0)
        | Some addr ->
            let v = c.host.read addr in
            (match List.find_index (Int.equal v) dom with
            | Some i -> index := (!index * List.length dom) + i
            | None -> ok := false);
            (name, v))
      r.rc_switches
  in
  if !ok then Some (a, !index) else None

(* First-fit allocation from the free list, else from the bump cursor;
   blocks are 16-aligned like the static text layout. *)
let vtext_alloc c size : (int * int) option =
  let size = (size + 15) / 16 * 16 in
  let rec take acc = function
    | [] -> None
    | (a, s) :: rest when s >= size ->
        let rest' = if s > size then (a + size, s - size) :: rest else rest in
        Some (a, List.rev_append acc rest')
    | blk :: rest -> take (blk :: acc) rest
  in
  match take [] c.free with
  | Some (a, free') ->
      c.free <- free';
      Some (a, size)
  | None ->
      let vt = c.image.Image.vtext in
      let a = c.cursor in
      if a + size <= vt.Image.sr_base + vt.Image.sr_size then begin
        c.cursor <- a + size;
        Some (a, size)
      end
      else None

let vtext_free c ~addr ~size =
  let rec insert = function
    | [] -> [ (addr, size) ]
    | (a, s) :: rest when addr < a -> (addr, size) :: (a, s) :: rest
    | blk :: rest -> blk :: insert rest
  in
  let rec coalesce = function
    | (a1, s1) :: (a2, s2) :: rest when a1 + s1 = a2 -> coalesce ((a1, s1 + s2) :: rest)
    | blk :: rest -> blk :: coalesce rest
    | [] -> []
  in
  c.free <- coalesce (insert c.free)

(* Every touch takes a fresh tick, so no two resident aliases share a
   stamp and ordering by stamp alone is a total order ([make_room]
   relies on it). *)
let touch c (v : variant) =
  c.tick <- c.tick + 1;
  v.vn_stamp <- c.tick

(* Drop the descriptor alias [sym]; release its body block — and the
   block's frame map — when it was the last alias. *)
let drop_alias c sym (mi : _ alias) =
  let r = mi.mi_recipe in
  r.lr_aliases <- List.filter (fun v -> v != mi.mi_alias) r.lr_aliases;
  Hashtbl.remove c.resident sym;
  Image.remove_symbol c.image sym;
  let freed =
    match Hashtbl.find_opt c.dedup mi.mi_key with
    | Some de when de.de_addr = mi.mi_alias.vn_addr ->
        de.de_refs <- de.de_refs - 1;
        if de.de_refs > 0 then 0
        else begin
          (* last alias gone: release the block.  The stale-cache chaos
             mode skips the dedup invalidation — a later hash hit would
             link the recycled block, which the lazy-eager-equiv fuzz
             oracle exists to catch. *)
          if not c.stale_cache then Hashtbl.remove c.dedup mi.mi_key;
          Osr.remove c.osr de.de_addr;
          vtext_free c ~addr:de.de_addr ~size:de.de_alloc;
          c.counters.bytes <- c.counters.bytes - de.de_alloc;
          de.de_alloc
        end
    | _ -> 0
  in
  c.counters.evictions <- c.counters.evictions + 1;
  c.host.emit (Trace.Variant_evicted { fn = r.lr_recipe.rc_name; variant = sym; freed })

(* Evict one victim: the host releases it (an installed victim is
   unbound now, or its unbind journaled while the body is live), and the
   alias goes now or — while its body is live — at a later sweep. *)
let evict_one c sym mi =
  if c.host.release mi.mi_fn mi.mi_alias then begin
    if not (List.mem sym c.evict_pending) then c.evict_pending <- c.evict_pending @ [ sym ]
  end
  else drop_alias c sym mi

(* Make room for [need] more resident bytes: evict candidates — advisor
   order first, then least-recently-selected — until the budget fits.
   Aliases journaled for a pending bind and victims already draining are
   never candidates.  Returns [false] when the budget still does not fit
   (deferred victims free their bytes only at a safepoint). *)
let make_room c ~need : bool =
  let fits () = c.counters.bytes + need <= c.budget in
  if fits () then true
  else begin
    let protected_addrs = c.host.journaled () in
    let evictable sym mi =
      (not (List.mem sym c.evict_pending))
      && not (List.mem mi.mi_alias.vn_addr protected_addrs)
    in
    let by_lru =
      Hashtbl.fold (fun sym mi acc -> (sym, mi) :: acc) c.resident []
      |> List.filter (fun (sym, mi) -> evictable sym mi)
      |> List.sort (fun (_, ma) (_, mb) -> Int.compare ma.mi_alias.vn_stamp mb.mi_alias.vn_stamp)
    in
    let advised =
      match c.advisor with
      | None -> []
      | Some f ->
          List.filter_map
            (fun sym ->
              match Hashtbl.find_opt c.resident sym with
              | Some mi when evictable sym mi -> Some (sym, mi)
              | _ -> None)
            (f ())
    in
    let rec go seen = function
      | _ when fits () -> true
      | [] -> false
      | (sym, mi) :: rest ->
          if List.mem sym seen then go seen rest
          else begin
            evict_one c sym mi;
            go (sym :: seen) rest
          end
    in
    go [] (advised @ by_lru)
  end

let set_budget c b =
  c.budget <- b;
  ignore (make_room c ~need:0)

(* Link one alias: append it to the function's resident aliases under its
   own symbol, register the symbol and the book-keeping, stamp the LRU,
   report the materialization.  Returns the new alias. *)
let link_alias c fn r ~symbol ~key ~addr ~size ~guards ~dedup =
  let alias =
    { vn_name = symbol; vn_addr = addr; vn_size = size; vn_guards = guards; vn_stamp = 0 }
  in
  r.lr_aliases <- r.lr_aliases @ [ alias ];
  Image.add_symbol c.image symbol ~addr ~size;
  Hashtbl.replace c.resident symbol { mi_fn = fn; mi_recipe = r; mi_key = key; mi_alias = alias };
  touch c alias;
  c.counters.materialized <- c.counters.materialized + 1;
  c.host.emit
    (Trace.Variant_materialized
       { fn = r.lr_recipe.rc_name; variant = symbol; addr; size; dedup });
  alias

let specialize c (r : Variantgen.recipe) assignment =
  c.counters.specialized <- c.counters.specialized + 1;
  Variantgen.specialize_recipe r assignment

(* The spec of assignment number [index] of [r]: its memo entry, or a
   fresh specialization — memoized when the recipe has a memo — returned
   with the variant whose IR a dedup miss emits. *)
let spec_of c r assignment index : spec * Variantgen.variant option =
  let memoized = Array.length r.lr_memo > 0 in
  match if memoized then r.lr_memo.(index) else None with
  | Some sp -> (sp, None)
  | None ->
      let v = specialize c r.lr_recipe assignment in
      let key = Mv_opt.Merge.canonical_form v.v_fn in
      let guards =
        List.concat_map
          (List.map (fun (g : Guard.range) ->
               { Descriptor.gr_var = Image.symbol c.image g.g_var; gr_lo = g.g_lo; gr_hi = g.g_hi }))
          v.v_guards
      in
      let sp = { sp_symbol = v.v_symbol; sp_key = key; sp_guards = guards; sp_frag = None } in
      if memoized then r.lr_memo.(index) <- Some sp;
      (sp, Some v)

(* Materialize the variant for [assignment] (number [index] of its
   recipe's cross product): specialize the recipe and optimize — or find
   both done in the memo — then either link the structurally-equal
   resident body (hash hit: no new bytes) or assemble the fragment (once
   per memoized spec), apply its relocations against the image's symbols
   to a copy, write it into the variant-text region, and register its
   frame map so OSR can transfer activations in and out of it.  A spec
   whose first materialization was a hash hit has no fragment: its first
   miss specializes again to emit one.  Returns the linked alias.  A
   budget (or region-capacity) miss denies the materialization: no alias
   is linked ([None]), the function stays generic, and a later commit
   retries. *)
let materialize c fn r assignment index : variant option =
  let sp, fresh = spec_of c r assignment index in
  let symbol = sp.sp_symbol and key = sp.sp_key and guards = sp.sp_guards in
  match Hashtbl.find_opt c.dedup key with
  | Some de ->
      (* structural-hash hit: the body is already resident *)
      de.de_refs <- de.de_refs + 1;
      c.counters.dedup_hits <- c.counters.dedup_hits + 1;
      Some
        (link_alias c fn r ~symbol ~key ~addr:de.de_addr ~size:de.de_size ~guards ~dedup:true)
  | None -> (
      let frag =
        match sp.sp_frag with
        | Some frag -> frag
        | None ->
            let v =
              match fresh with Some v -> v | None -> specialize c r.lr_recipe assignment
            in
            let frag =
              try Emit.emit_fn ~call_pad:c.call_pad v.v_fn
              with Emit.Error m -> errf "materialize %s: %s" symbol m
            in
            sp.sp_frag <- Some frag;
            frag
      in
      let code = Bytes.copy frag.fr_code in
      let size = Bytes.length code in
      let denied () =
        c.counters.budget_denials <- c.counters.budget_denials + 1;
        None
      in
      if not (make_room c ~need:((size + 15) / 16 * 16)) then denied ()
      else
        match vtext_alloc c size with
        | None -> denied () (* the region itself is exhausted (or too fragmented) *)
        | Some (addr, alloc) ->
            List.iter
              (fun (rl : Objfile.reloc) ->
                let s =
                  match Image.symbol_opt c.image rl.r_sym with
                  | Some a -> a
                  | None -> errf "materialize %s: undefined symbol %s" symbol rl.r_sym
                in
                let off = rl.r_offset in
                try Mv_link.Linker.patch_reloc code ~off ~p:(addr + off) ~s rl
                with Mv_link.Linker.Link_error m -> errf "materialize %s: %s" symbol m)
              frag.fr_relocs;
            Patch.write_text c.patch ~addr code;
            Osr.add c.osr (Descriptor.framemap_of_fragment ~addr frag);
            Hashtbl.replace c.dedup key
              { de_addr = addr; de_size = size; de_alloc = alloc; de_refs = 1 };
            c.counters.bytes <- c.counters.bytes + alloc;
            Some (link_alias c fn r ~symbol ~key ~addr ~size ~guards ~dedup:false))

let select c fn ~name ~sat found =
  match Hashtbl.find_opt c.recipes name with
  | None -> found
  | Some r -> (
      let found = match found with None -> List.find_opt sat r.lr_aliases | Some _ -> found in
      match (recipe_assignment c r.lr_recipe, found) with
      | None, _ -> found (* out of domain: the generic fallback handles it *)
      | Some _, Some v ->
          c.counters.cache_hits <- c.counters.cache_hits + 1;
          touch c v;
          found
      | Some (assignment, index), None ->
          (* the fresh alias is guarded by this very assignment, so it is
             the one candidate that now matches *)
          materialize c fn r assignment index)

let sweeping c = c.evict_pending <> []

let sweep c =
  if c.evict_pending <> [] then
    c.evict_pending <-
      List.filter
        (fun sym ->
          match Hashtbl.find_opt c.resident sym with
          | None -> false (* already gone *)
          | Some mi when c.host.in_use mi.mi_fn mi.mi_alias -> true
          | Some mi ->
              drop_alias c sym mi;
              false)
        c.evict_pending
