(* lib/obs/json.ml parser and printer edge cases.

   The corpus files and observability exports both ride on this parser,
   so the fuzzing subsystem depends on it being exact: escapes, numeric
   extremes, nesting, and rejection of malformed input. *)

open Util
module Json = Mv_obs.Json

let parse_ok src =
  match Json.parse src with
  | Ok j -> j
  | Error m -> Alcotest.failf "parse %S failed: %s" src m

let parse_err name src =
  match Json.parse src with
  | Ok _ -> Alcotest.failf "%s: %S should have been rejected" name src
  | Error m ->
      check_bool (name ^ ": error message is not empty") true (String.length m > 0)

let check_json name expected actual =
  check_string name (Json.to_string expected) (Json.to_string actual)

(* round-trip through both serializers *)
let roundtrip name j =
  check_json (name ^ " (compact)") j (parse_ok (Json.to_string j));
  check_json (name ^ " (pretty)") j (parse_ok (Json.to_string_pretty j))

(* ------------------------------------------------------------------ *)
(* String escapes                                                      *)
(* ------------------------------------------------------------------ *)

let test_u_escapes () =
  check_json "ascii \\u" (Json.String "A") (parse_ok "\"\\u0041\"");
  check_json "\\u hex is case-insensitive" (Json.String "J") (parse_ok "\"\\u004A\"");
  (* 2- and 3-byte UTF-8 expansions *)
  check_json "latin-1 \\u" (Json.String "\xc3\xa9") (parse_ok "\"\\u00e9\"");
  check_json "bmp \\u" (Json.String "\xe2\x82\xac") (parse_ok "\"\\u20ac\"");
  check_json "\\u0000" (Json.String "\x00") (parse_ok "\"\\u0000\"");
  parse_err "truncated \\u" "\"\\u00\"";
  parse_err "non-hex \\u" "\"\\uZZZZ\""

let test_quote_backslash_escapes () =
  check_json "escaped quote" (Json.String {|say "hi"|}) (parse_ok {|"say \"hi\""|});
  check_json "escaped backslash" (Json.String {|a\b|}) (parse_ok {|"a\\b"|});
  check_json "newline tab" (Json.String "a\n\tb") (parse_ok {|"a\n\tb"|});
  (* printer escapes what the parser must re-read *)
  roundtrip "quotes and backslashes" (Json.String {|"\"\\|});
  roundtrip "control characters" (Json.String "\x01\x02\x1f\n\r\t");
  roundtrip "already-utf8 text" (Json.String "caf\xc3\xa9");
  parse_err "lone backslash" {|"a\"|};
  parse_err "unknown escape" {|"\q"|};
  parse_err "unterminated string" {|"abc|}

(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)
(* ------------------------------------------------------------------ *)

let test_numerics () =
  check_json "zero" (Json.Int 0) (parse_ok "0");
  check_json "negative" (Json.Int (-42)) (parse_ok "-42");
  check_json "negative zero stays an int" (Json.Int 0) (parse_ok "-0");
  check_json "min_int" (Json.Int min_int) (parse_ok (string_of_int min_int));
  check_json "max_int" (Json.Int max_int) (parse_ok (string_of_int max_int));
  roundtrip "min_int" (Json.Int min_int);
  roundtrip "max_int" (Json.Int max_int);
  (* a fractional part must come back as a float, not be truncated *)
  (match parse_ok "1.5" with
  | Json.Float f -> check_bool "1.5 parses as float" true (f = 1.5)
  | j -> Alcotest.failf "1.5 parsed as %s" (Json.to_string j));
  (* floats that look integral must still round-trip as floats *)
  (match parse_ok (Json.to_string (Json.Float 3.0)) with
  | Json.Float f -> check_bool "3.0 stays a float" true (f = 3.0)
  | j -> Alcotest.failf "3.0 reparsed as %s" (Json.to_string j));
  check_string "non-finite floats serialize as null" "null"
    (Json.to_string (Json.Float Float.nan));
  (* the writer's %.12g exponents, and the other standard forms *)
  check_json "exponent with sign and leading zero" (Json.Float 1e-05) (parse_ok "1e-05");
  check_json "capital E with plus" (Json.Float 100.0) (parse_ok "1E+2");
  check_json "negative fraction" (Json.Float (-0.5)) (parse_ok "-0.5");
  roundtrip "large exponent" (Json.Float 1e+20);
  parse_err "bare minus" "-";
  parse_err "double minus" "--1";
  (* malformed numbers are errors, never an escaping exception *)
  List.iter
    (fun (name, src) -> parse_err name src)
    [
      ("exponent without digits", "1e");
      ("zero exponent without digits", "0e");
      ("signed exponent without digits", "1e+");
      ("minus then exponent", "-e");
      ("exponent without digits in a list", "[1e]");
      ("fraction without digits", "1.");
      ("fraction without integer part", ".5");
      ("leading zero", "01");
      ("empty fraction before exponent", "1.e5");
    ]

(* ------------------------------------------------------------------ *)
(* Nesting                                                             *)
(* ------------------------------------------------------------------ *)

let test_deep_nesting () =
  let depth = 200 in
  let deep = ref (Json.Int 7) in
  for _ = 1 to depth do
    deep := Json.List [ !deep ]
  done;
  roundtrip "deep list" !deep;
  let deep_obj = ref (Json.String "leaf") in
  for _ = 1 to depth do
    deep_obj := Json.Obj [ ("k", !deep_obj) ]
  done;
  roundtrip "deep object" !deep_obj;
  (* mixed, as produced by real exports *)
  roundtrip "mixed structure"
    (Json.Obj
       [
         ("events", Json.List [ Json.Obj [ ("ts", Json.Float 0.5) ]; Json.Null ]);
         ("ok", Json.Bool true);
         ("empty", Json.Obj []);
         ("none", Json.List []);
       ])

(* ------------------------------------------------------------------ *)
(* Rejection of malformed input                                        *)
(* ------------------------------------------------------------------ *)

let test_reject_invalid () =
  parse_err "empty input" "";
  parse_err "whitespace only" "   ";
  parse_err "trailing garbage" "1 2";
  parse_err "trailing garbage after object" {|{"a":1} x|};
  parse_err "unclosed list" "[1, 2";
  parse_err "unclosed object" {|{"a": 1|};
  parse_err "missing colon" {|{"a" 1}|};
  parse_err "unquoted key" "{a: 1}";
  parse_err "trailing comma in list" "[1,]";
  parse_err "trailing comma in object" {|{"a":1,}|};
  parse_err "bare word" "nope";
  parse_err "single quotes" "'a'";
  check_bool "error names a byte offset" true
    (match Json.parse "[1, 2" with
    | Error m ->
        (* offsets render as digits somewhere in the message *)
        String.exists (fun c -> c >= '0' && c <= '9') m
    | Ok _ -> false)

(* member on non-objects and missing keys *)
let test_member () =
  let j = parse_ok {|{"a": 1, "b": {"c": true}}|} in
  check_bool "present key" true (Json.member "a" j = Some (Json.Int 1));
  check_bool "missing key" true (Json.member "z" j = None);
  check_bool "member of a list" true (Json.member "a" (Json.List []) = None);
  check_bool "member of a scalar" true (Json.member "a" (Json.Int 3) = None)

let suite =
  [
    tc "unicode escapes" test_u_escapes;
    tc "quote and backslash escapes" test_quote_backslash_escapes;
    tc "numeric extremes" test_numerics;
    tc "deep nesting round-trips" test_deep_nesting;
    tc "malformed input is rejected" test_reject_invalid;
    tc "member lookup" test_member;
  ]
