(** A minimal self-contained JSON value type, printer, and parser.

    The telemetry event log is JSONL (one object per line); the environment
    ships no JSON library, so this module implements the subset we need:
    objects, arrays, strings with the standard escapes, booleans, null, and
    numbers. Floats are always printed in a form JSON accepts (never [nan],
    [inf], or a bare trailing dot). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no newlines, suitable for JSONL). *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is an error. *)

val parse_located : string -> (t, int * string) result
(** Like {!parse} but the error carries the byte offset separately, for
    callers that want to point at the failure position in their own
    diagnostics (e.g. truncated-checkpoint detection). [parse] is
    [parse_located] with the offset folded into the message. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Int] and [Float] both coerce. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option

val equal : t -> t -> bool
(** Structural equality, except [Int n] and [Float f] compare equal when
    [float_of_int n = f] (the printer may legally narrow [2.0] to [2]). *)

(** {1 Decoding}

    The field-decoder kit every JSON codec in the tree shares. [ctx] names
    the format (["checkpoint"], ["wire"], ...) and prefixes each error:
    [ctx ^ ": missing or invalid field \"name\""]. *)

module Decode : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

  val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
  (** Map in order, stopping at the first error. *)

  val invalid : string -> string -> ('a, string) result
  (** [invalid ctx name] is the missing-or-invalid-field error. *)

  val req : string -> string -> (t -> 'a option) -> t -> ('a, string) result
  (** [req ctx name conv json]: field [name] of [json], converted by
      [conv]. *)

  val list_field : string -> string -> t -> (t list, string) result
  val obj_field : string -> string -> t -> ((string * t) list, string) result
end
