(** The JSON codec shared by every artifact reader in the tree: event
    traces, rdist profiles, span timelines, serve job specs and the bench
    baseline.

    It has four parts: a value type that keeps integers apart from floats,
    a strict parser that never raises, one string escaper, and typed field
    accessors whose errors name the field.  There is deliberately no value
    printer: each writer keeps its own fixed [Printf] layout, because a
    golden file or a serve content address pins those bytes, and uses only
    {!quote} for its strings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
      (** a number literal with no fraction and no exponent that fits an
          OCaml [int]: profile counters and trace fields reload exactly *)
  | Float of float  (** every other number literal *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in input order, keys unique *)

val parse : string -> (t, string) result
(** Parse exactly one JSON value (RFC 8259), with optional surrounding
    whitespace.  Never raises.  [Error] reads ["<what> at byte <offset>"].
    Rejected beyond the grammar: trailing content after the value,
    duplicate keys in one object, raw control characters inside strings and
    unpaired UTF-16 surrogates in [\u] escapes.  Bytes [>= 0x20] inside
    strings are taken as they are (no UTF-8 validation), and [\u] escapes
    decode to UTF-8. *)

val quote : string -> string
(** [quote s] is [s] as a JSON string literal, quotes included — the one
    escaper every writer uses.  It writes [\"], [\\], [\n], [\r], [\t], [\b]
    and [\f], every other byte below [0x20] as [\u00XX], and all remaining
    bytes unchanged.  [parse (quote s) = Ok (String s)] for every byte
    string [s]. *)

(** {1 Typed access}

    A converter turns a value into an OCaml value or says what it expected.
    {!field} wraps a converter with the field's name, so a decoder's error
    reads like ["field \"segments\": element 3: field \"ev\": expected an
    integer"]. *)

val int : t -> (int, string) result
(** An {!Int}. *)

val float : t -> (float, string) result
(** An {!Int} or a {!Float}, as a float. *)

val string : t -> (string, string) result
val bool : t -> (bool, string) result

val list : (t -> ('a, string) result) -> t -> ('a list, string) result
(** An array whose every element converts. *)

val assoc : (t -> ('a, string) result) -> t -> ((string * 'a) list, string) result
(** An object whose every member value converts, in input order. *)

val field : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field key conv obj] converts member [key] of object [obj]; an error
    when [obj] is not an object, lacks [key], or the conversion fails. *)

(** Binding operators over [result], for decoders that read several
    fields: [let* a = ... and* b = ... in Ok (f a b)].  [and*] keeps the
    leftmost error. *)
module Syntax : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
  val ( and* ) : ('a, 'e) result -> ('b, 'e) result -> ('a * 'b, 'e) result
end
