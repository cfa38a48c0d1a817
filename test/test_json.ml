(* The JSON codec (lib/util/json.ml): the integer/float split, strict
   rejection with byte offsets, the escaper round-trip, typed accessors, and
   qcheck fuzzing — the parser and every reader built on it return [Ok] or
   [Error] on any input, never an exception. *)

module Json = Ccdsm_util.Json
module Trace = Ccdsm_tempest.Trace
module Profile = Ccdsm_rdist.Profile
module Timeline = Ccdsm_obs.Timeline
module Job = Ccdsm_serve.Job

let check = Alcotest.check
let qtest ?(count = 500) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
let read path = In_channel.with_open_bin path In_channel.input_all

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* -- unit ------------------------------------------------------------------ *)

let test_values () =
  let ok s v = check Alcotest.bool s true (Json.parse s = Ok v) in
  ok {| {"a": [1, -2, 3.5, 1e3, true, false, null, "x"]} |}
    (Json.Object
       [
         ( "a",
           Json.Array
             [
               Json.Int 1;
               Json.Int (-2);
               Json.Float 3.5;
               Json.Float 1000.;
               Json.Bool true;
               Json.Bool false;
               Json.Null;
               Json.String "x";
             ] );
       ]);
  ok (string_of_int max_int) (Json.Int max_int);
  ok (string_of_int min_int) (Json.Int min_int);
  ok "4611686018427387904" (Json.Float 4611686018427387904.);
  ok {|"\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00"|}
    (Json.String "\"\\/\b\012\n\r\tA\xc3\xa9\xf0\x9f\x98\x80");
  ok "[]" (Json.Array []);
  ok "{}" (Json.Object [])

let test_errors () =
  let err s needle =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error msg ->
        if not (contains msg needle) then Alcotest.failf "%S: %S lacks %S" s msg needle
  in
  err {|{"a":1} x|} "trailing content at byte 8";
  err {|{"a":1,"a":2}|} {|duplicate key "a" at byte 7|};
  err {|{"a":1|} "expected ',' or '}' at byte 6";
  err "" "end of input";
  err "[01]" "at byte 2";
  err "[1.]" "invalid number";
  err "+1" "expected a value at byte 0";
  err "\"a\tb\"" "control character";
  err {|"\x"|} "invalid escape at byte 1";
  err {|"\ud800"|} "unpaired surrogate";
  err {|"abc|} "unterminated string at byte 0";
  err "nul" "expected a value";
  (* Duplicate detection past the linear-scan size. *)
  let keys = List.init 100 (fun i -> Printf.sprintf "\"k%d\":%d" i i) in
  err ("{" ^ String.concat "," (keys @ [ {|"k7":0|} ]) ^ "}") {|duplicate key "k7"|}

let test_accessors () =
  let j =
    match Json.parse {|{"n":3,"x":2.5,"s":"t","l":[1,2],"o":{"a":1,"b":2.5}}|} with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let res = Alcotest.(result int string) in
  check res "int" (Ok 3) Json.(field "n" int j);
  check Alcotest.(result (float 0.0) string) "int as float" (Ok 3.0) Json.(field "n" float j);
  check res "float is not int" (Error {|field "x": expected an integer|}) Json.(field "x" int j);
  check res "missing" (Error {|missing field "m"|}) Json.(field "m" int j);
  check Alcotest.(result (list int) string) "list" (Ok [ 1; 2 ]) Json.(field "l" (list int) j);
  check
    Alcotest.(result (list int) string)
    "bad element"
    (Error {|field "o": field "b": expected an integer|})
    (Result.map (List.map snd) Json.(field "o" (assoc int) j));
  check res "not an object" (Error {|expected an object with field "n"|})
    Json.(field "n" int (Int 1))

(* -- fuzzing --------------------------------------------------------------- *)

let no_raise f x = match f x with _ -> true | exception _ -> false

let all_bytes = String.init 256 Char.chr

(* A string boundary, an escape, nesting, a separator, a digit, a letter
   and a high byte: the replacement set for goldens too large to try all
   256 values at every position. *)
let structural = "\"\\{],0x\255"

(* Every prefix of [s], then [s] with each byte in turn replaced by each
   byte of [alphabet]. *)
let iter_variants alphabet s f =
  for n = 0 to String.length s do
    f (String.sub s 0 n)
  done;
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    String.iter
      (fun c ->
        Bytes.set b i c;
        f (Bytes.to_string b))
      alphabet;
    Bytes.set b i orig
  done

let exhaustive ?(alphabet = all_bytes) name s readers =
  iter_variants alphabet s (fun v ->
      List.iter
        (fun (what, f) ->
          if not (no_raise f v) then Alcotest.failf "%s raised on %s variant %S" what name v)
        readers)

(* Random single-byte mutations, over all 256 byte values, of the golden
   that [load] returns. *)
let mutations name load f =
  let golden = lazy (load ()) in
  qtest (name ^ ": single-byte mutations never raise")
    QCheck2.Gen.(pair nat char)
    (fun (i, c) ->
      let b = Bytes.of_string (Lazy.force golden) in
      Bytes.set b (i mod Bytes.length b) c;
      no_raise f (Bytes.to_string b))

let json_bytes =
  QCheck2.Gen.(string_of (oneof [ char; oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '1'; 'u' ] ]))

let trace_lines () =
  (* One line of each event type in the faulted golden. *)
  let seen = Hashtbl.create 16 in
  String.split_on_char '\n' (read "golden/jacobi_faulted.trace")
  |> List.filter (fun l ->
         match Trace.of_json l with
         | Ok ev when not (Hashtbl.mem seen (Trace.type_name ev)) ->
             Hashtbl.add seen (Trace.type_name ev) ();
             true
         | _ -> false)

let spec =
  {|{"id":17,"app":"water","protocol":"predictive","nodes":8,"block_bytes":32,"migratory_threshold":1,"faults":"drop=0.05,seed=42","scale":"scaled"}|}

let parse = ("Json.parse", fun s -> ignore (Json.parse s))

(* Each format reader starts with [Json.parse] on the same bytes, so for the
   two large goldens the reader alone covers both. *)
let test_fuzz_exhaustive () =
  List.iter
    (fun l -> exhaustive "trace line" l [ parse; ("Trace.of_json", fun s -> ignore (Trace.of_json s)) ])
    (trace_lines ());
  exhaustive "serve spec" spec [ parse; ("Job.parse", fun s -> ignore (Job.parse s)) ];
  exhaustive ~alphabet:structural "profile" (read "golden/jacobi_stache.profile.json")
    [ ("Profile.of_json", fun s -> ignore (Profile.of_json s)) ];
  (* The timeline golden is large; its head (the header and the first
     spans) gets the exhaustive pass, the whole file the random mutations
     below. *)
  let tl = read "golden/jacobi.timeline.jsonl" in
  let head = String.concat "\n" (List.filteri (fun i _ -> i < 4) (String.split_on_char '\n' tl)) in
  exhaustive ~alphabet:structural "timeline head" head
    [ ("Timeline.of_jsonl", fun s -> ignore (Timeline.of_jsonl s)) ]

let test_deep_nesting () =
  List.iter
    (fun s -> check Alcotest.bool "deep nesting is an error" true (Result.is_error (Json.parse s)))
    [ String.make 100_000 '['; String.concat "" (List.init 100_000 (fun _ -> {|{"a":|})) ]

let suite =
  [
    ( "json",
      [
        Alcotest.test_case "values: ints apart from floats" `Quick test_values;
        Alcotest.test_case "errors carry byte offsets" `Quick test_errors;
        Alcotest.test_case "typed accessors name the field" `Quick test_accessors;
        qtest "quote round-trips any bytes" json_bytes (fun s ->
            Json.parse (Json.quote s) = Ok (Json.String s));
        qtest "parse never raises on arbitrary bytes" json_bytes (no_raise Json.parse);
        Alcotest.test_case "no raise on every prefix and mutation of the goldens" `Quick
          test_fuzz_exhaustive;
        Alcotest.test_case "100,000 nested brackets" `Quick test_deep_nesting;
        mutations "profile" (fun () -> read "golden/jacobi_stache.profile.json") Profile.of_json;
        mutations "timeline" (fun () -> read "golden/jacobi.timeline.jsonl") Timeline.of_jsonl;
        mutations "trace" (fun () -> read "golden/jacobi_faulted.trace") (fun s ->
            List.map Trace.of_json (String.split_on_char '\n' s));
        mutations "serve spec" (fun () -> spec) Job.parse;
      ] );
  ]
