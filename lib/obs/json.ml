(* A minimal JSON tree with a writer and a parser.  The observability layer
   emits machine-readable artifacts (Chrome traces, metrics snapshots,
   bench rows) and the test suite parses them back; depending on a JSON
   package for that would drag a new dependency into every library that
   emits events, so this ~150-line implementation stays local. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_finite f then begin
    (* 12 significant digits, never bare "1.": exact for the simulator's
       cycle counts (multiples of 1/4 below 2^30), but not a round trip
       for every float — 0.1 +. 0.2 reads back as 0.3 *)
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf s;
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf "null"

let rec write ~indent ~level buf j =
  let nl lvl =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to 2 * lvl do
        Buffer.add_char buf ' '
      done
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          write ~indent ~level:(level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape buf k;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf v)
        fields;
      nl level;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write ~indent:false ~level:0 buf j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 256 in
  write ~indent:true ~level:0 buf j;
  Buffer.contents buf

let pp fmt j = Format.pp_print_string fmt (to_string_pretty j)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else err (Printf.sprintf "expected '%s'" word)
  in
  (* Exactly four hex digits, as a code unit. *)
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> err "bad \\u escape"
    in
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      v := (!v lsl 4) lor digit s.[i]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then err "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              loop ()
          | 'n' ->
              Buffer.add_char buf '\n';
              loop ()
          | 'r' ->
              Buffer.add_char buf '\r';
              loop ()
          | 't' ->
              Buffer.add_char buf '\t';
              loop ()
          | 'b' ->
              Buffer.add_char buf '\b';
              loop ()
          | 'f' ->
              Buffer.add_char buf '\012';
              loop ()
          | 'u' ->
              let code = hex4 () in
              let code =
                if code land 0xFC00 = 0xD800 then begin
                  (* a high surrogate pairs with the \u low surrogate after it *)
                  if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
                    err "lone surrogate";
                  pos := !pos + 2;
                  let low = hex4 () in
                  if low land 0xFC00 <> 0xDC00 then err "lone surrogate";
                  0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                end
                else if code land 0xFC00 = 0xDC00 then err "lone surrogate"
                else code
              in
              Buffer.add_utf_8_uchar buf (Uchar.of_int code);
              loop ()
          | _ -> err "bad escape")
      | c when Char.code c < 0x20 -> err "control character in string"
      | c ->
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  (* JSON's number grammar, checked while scanning, so [float_of_string]
     only ever sees text it accepts:
     -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let consume p = match peek () with Some c when p c -> advance () | _ -> () in
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          digits ()
      | _ -> ()
    in
    let digits1 () =
      match peek () with Some ('0' .. '9') -> digits () | _ -> err "expected a digit"
    in
    consume (fun c -> c = '-');
    if peek () = Some '0' then advance () else digits1 ();
    let is_float = ref false in
    (match peek () with
    | Some '.' ->
        is_float := true;
        advance ();
        digits1 ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        consume (fun c -> c = '+' || c = '-');
        digits1 ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> err "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> err "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) -> Error (Printf.sprintf "%s at byte %d" msg at)
