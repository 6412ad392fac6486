(** Registry of SMT theories known to the system, with the metadata the
    Once4All pipeline consumes: operator inventories, documentation prose
    (the LLM's input for grammar summarization), ground-truth EBNF grammars
    (what a perfect summarization would produce), and a synthesis-difficulty
    rating that drives the simulated LLM's initial error rate (§5.1 reports
    <30% initial validity for finite fields vs >90% for reals). *)

open Smtlib

type id =
  | Core
  | Ints
  | Reals
  | Reals_ints
  | Bitvectors
  | Strings
  | Arrays
  | Datatypes
  | Seq
  | Sets
  | Bags
  | Finite_fields

type info = {
  id : id;
  name : string;  (** display name, e.g. ["Ints"] *)
  key : string;  (** short tag, e.g. ["ints"]; matches [Script.theories_used] *)
  standard : bool;  (** part of the SMT-LIB standard (vs solver extension) *)
  extension_of : string option;  (** e.g. [Some "cove"] for cvc5-style extensions *)
  ops : string list;  (** plain operator symbols contributed by the theory *)
  base_sorts : Sort.t list;  (** representative sorts for variable pools *)
  difficulty : float;  (** 0 = trivial syntax, 1 = very error-prone *)
  year_introduced : int;  (** when the theory landed in the solver (lifespan exp.) *)
}

val all : info list

val find : id -> info

val find_by_key : string -> info option

val standard_theories : info list

val extension_theories : info list

val doc : id -> string
(** Documentation prose for the theory (input to grammar summarization). *)

val ground_truth_cfg : id -> string
(** The EBNF a faithful summarization would produce. See {!Grammar_kit.Ebnf}
    for the concrete syntax: quoted literals, bare nonterminals, [@hooks]. *)

val ground_truth_grammar : id -> Grammar_kit.Cfg.t
(** [ground_truth_cfg] parsed. Every theory's text is parsed once, when the
    module is initialised. *)

val id_to_string : id -> string

val of_string : string -> id option
