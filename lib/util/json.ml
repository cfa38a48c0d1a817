(* A strict JSON reader, the one string escaper, and typed accessors. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* The parser is recursive descent over a cursor; every failure raises
   [Fail] with a byte offset, which [parse] turns into an [Error]. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Fail of int * string

let fail_at p msg = raise_notrace (Fail (p, msg))
let fail c msg = fail_at c.pos msg
let at c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch
let expect c ch what = if at c ch then c.pos <- c.pos + 1 else fail c ("expected " ^ what)

let rec skip_ws c =
  if c.pos < c.n then
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let hex4 c =
  if c.pos + 4 > c.n then fail c "invalid \\u escape";
  let v = ref 0 in
  for k = c.pos to c.pos + 3 do
    let d =
      match c.s.[k] with
      | '0' .. '9' as h -> Char.code h - 48
      | 'a' .. 'f' as h -> Char.code h - 87
      | 'A' .. 'F' as h -> Char.code h - 55
      | _ -> fail c "invalid \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

(* [\u] escape, cursor just past the 'u'; a high surrogate must be
   followed by an escaped low one. *)
let code_point c =
  let start = c.pos - 2 in
  let u = hex4 c in
  if u >= 0xD800 && u <= 0xDBFF && at c '\\' && c.pos + 1 < c.n && c.s.[c.pos + 1] = 'u' then begin
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo < 0xDC00 || lo > 0xDFFF then fail_at start "unpaired surrogate";
    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else if u >= 0xD800 && u <= 0xDFFF then fail_at start "unpaired surrogate"
  else u

let rec unescape c b start =
  if c.pos >= c.n then fail_at start "unterminated string";
  match c.s.[c.pos] with
  | '"' -> c.pos <- c.pos + 1
  | '\\' ->
      if c.pos + 1 >= c.n then fail_at start "unterminated string";
      let e = c.s.[c.pos + 1] in
      c.pos <- c.pos + 2;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char b e
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point c))
      | _ -> fail_at (c.pos - 2) "invalid escape");
      unescape c b start
  | ch when ch < ' ' -> fail c "control character in string"
  | ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      unescape c b start

(* Cursor on the opening quote.  A string without escapes is one
   [String.sub]. *)
let string_lit c =
  let start = c.pos in
  let j = ref (start + 1) in
  while !j < c.n && match String.unsafe_get c.s !j with '"' | '\\' -> false | ch -> ch >= ' ' do
    incr j
  done;
  if !j < c.n && c.s.[!j] = '"' then begin
    c.pos <- !j + 1;
    String.sub c.s (start + 1) (!j - start - 1)
  end
  else begin
    let b = Buffer.create (!j - start + 16) in
    Buffer.add_substring b c.s (start + 1) (!j - start - 1);
    c.pos <- !j;
    unescape c b start;
    Buffer.contents b
  end

let digits c =
  let d = c.pos in
  while c.pos < c.n && match String.unsafe_get c.s c.pos with '0' .. '9' -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  if c.pos = d then fail c "invalid number"

let number c =
  let start = c.pos in
  let neg = at c '-' in
  if neg then c.pos <- c.pos + 1;
  let d0 = c.pos in
  if at c '0' then c.pos <- c.pos + 1 else digits c;
  let d1 = c.pos in
  let next = if c.pos < c.n then String.unsafe_get c.s c.pos else ' ' in
  if next <> '.' && next <> 'e' && next <> 'E' && d1 - d0 <= 18 then begin
    (* Up to 18 digits cannot overflow: no substring needed. *)
    let v = ref 0 in
    for k = d0 to d1 - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get c.s k) - 48)
    done;
    Int (if neg then - !v else !v)
  end
  else begin
    if at c '.' then begin
      c.pos <- c.pos + 1;
      digits c
    end;
    if at c 'e' || at c 'E' then begin
      c.pos <- c.pos + 1;
      if at c '+' || at c '-' then c.pos <- c.pos + 1;
      digits c
    end;
    let lit = String.sub c.s start (c.pos - start) in
    match if c.pos = d1 then int_of_string_opt lit else None with
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  end

let literal c word v =
  let m = String.length word in
  if c.pos + m <= c.n && String.sub c.s c.pos m = word then begin
    c.pos <- c.pos + m;
    v
  end
  else fail c "expected a value"

(* Objects check for duplicate keys with a scan over the members read so
   far, and switch to a hash set past this many, so a huge object stays
   linear. *)
let small_object = 32

let rec value c =
  skip_ws c;
  if c.pos >= c.n then fail c "expected a value, got end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Object []
      end
      else members c [] 0 None
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        Array []
      end
      else items c []
  | '"' -> String (string_lit c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> number c
  | _ -> fail c "expected a value"

and items c acc =
  let acc = value c :: acc in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    items c acc
  end
  else begin
    expect c ']' "',' or ']'";
    Array (List.rev acc)
  end

and members c acc count seen =
  skip_ws c;
  if not (at c '"') then fail c "expected a string key";
  let kpos = c.pos in
  let k = string_lit c in
  let dup () = fail_at kpos (Printf.sprintf "duplicate key %S" k) in
  let seen =
    match seen with
    | Some tbl ->
        if Hashtbl.mem tbl k then dup ();
        Hashtbl.add tbl k ();
        seen
    | None ->
        if List.exists (fun (key, _) -> String.equal key k) acc then dup ();
        if count < small_object then None
        else begin
          let tbl = Hashtbl.create (2 * small_object) in
          List.iter (fun (key, _) -> Hashtbl.add tbl key ()) acc;
          Hashtbl.add tbl k ();
          Some tbl
        end
  in
  skip_ws c;
  expect c ':' "':'";
  let acc = (k, value c) :: acc in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    members c acc (count + 1) seen
  end
  else begin
    expect c '}' "',' or '}'";
    Object (List.rev acc)
  end

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = value c in
    skip_ws c;
    if c.pos < c.n then fail c "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (p, msg) -> Error (Printf.sprintf "%s at byte %d" msg p)
  | exception Stack_overflow -> Error (Printf.sprintf "nesting too deep at byte %d" c.pos)

let needs_escape c = c < ' ' || c = '"' || c = '\\'

let quote s =
  if not (String.exists needs_escape s) then "\"" ^ s ^ "\""
  else begin
    let b = Buffer.create (String.length s + 16) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* -- typed access ---------------------------------------------------------- *)

let int = function Int i -> Ok i | _ -> Error "expected an integer"
let float = function Int i -> Ok (float_of_int i) | Float f -> Ok f | _ -> Error "expected a number"
let string = function String s -> Ok s | _ -> Error "expected a string"
let bool = function Bool b -> Ok b | _ -> Error "expected a boolean"

let list conv = function
  | Array items ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match conv x with
            | Ok v -> go (i + 1) (v :: acc) rest
            | Error e -> Error (Printf.sprintf "element %d: %s" i e))
      in
      go 0 [] items
  | _ -> Error "expected an array"

let assoc conv = function
  | Object members ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, x) :: rest -> (
            match conv x with
            | Ok v -> go ((k, v) :: acc) rest
            | Error e -> Error (Printf.sprintf "field %S: %s" k e))
      in
      go [] members
  | _ -> Error "expected an object"

let field key conv = function
  | Object members -> (
      match List.find_opt (fun (k, _) -> String.equal k key) members with
      | None -> Error (Printf.sprintf "missing field %S" key)
      | Some (_, v) -> (
          match conv v with Ok _ as ok -> ok | Error e -> Error (Printf.sprintf "field %S: %s" key e)))
  | _ -> Error (Printf.sprintf "expected an object with field %S" key)

module Syntax = struct
  let ( let* ) = Result.bind

  let ( and* ) a b =
    match (a, b) with
    | Ok a, Ok b -> Ok (a, b)
    | Error e, _ | _, Error e -> Error e
end
