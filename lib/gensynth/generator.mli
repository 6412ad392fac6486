(** LLM-synthesized term generators.

    A generator is the structured counterpart of the Python program the paper
    has the LLM write: the (possibly defective) summarized CFG plus a set of
    runtime flaws in its emission logic. [generate] derives one Boolean term
    and the declarations it needs — the exact interface of the paper's
    [generate_<theory>_formula_with_decls()]. *)

open Theories

type t = private {
  theory : Theory.info;
  defects : Flaw.grammar_defect list;
  runtime_flaws : Flaw.runtime list;
  version : int;  (** refinement iteration that produced this generator *)
  profile_name : string;  (** which LLM profile synthesized it *)
  grammar : Grammar_kit.Generate.compiled;
      (** [effective_cfg], compiled once by {!make}; private so that no
          record update can pair it with other defects *)
}

type emitted = {
  decls : string list;  (** SMT-LIB declaration commands, in order *)
  term : string;  (** a Boolean term *)
}

val make :
  ?defects:Flaw.grammar_defect list ->
  ?runtime_flaws:Flaw.runtime list ->
  ?version:int ->
  ?profile_name:string ->
  Theory.info ->
  t
(** Applies the defects to the theory's ground-truth grammar and compiles the
    result. Defaults are those of {!perfect}: no defects or flaws, version 0,
    profile ["perfect"]. *)

val perfect : Theory.info -> t
(** Defect-free generator over the ground-truth grammar (what an ideal
    synthesis would produce; used as a test oracle and by ablations). *)

val effective_cfg : t -> Grammar_kit.Cfg.t
(** Ground-truth grammar with this generator's defects applied, as compiled
    into [grammar]. *)

val generate : ?max_depth:int -> t -> rng:O4a_util.Rng.t -> emitted

(** {1 Mixed-sorts extension (paper 5.3, future work)} *)

val supports_sort : t -> Smtlib.Sort.t -> bool
(** Whether this generator's grammar has a nonterminal for the sort (over the
    bounded width/order menu). *)

val generate_of_sort :
  ?max_depth:int -> t -> rng:O4a_util.Rng.t -> Smtlib.Sort.t -> emitted option
(** Emit a term of the requested sort by starting the derivation at the
    matching nonterminal, pinning the bit-width / field-order context to the
    request. [None] when the grammar has no production for the sort. *)

val render_script : emitted list -> string
(** Wrap emissions into a full script: merged declarations, one assert per
    term, and a final [check-sat] — the harness used to validate samples. *)

val describe : t -> string
(** Pseudo-implementation digest included in self-correction prompts. *)

val is_clean : t -> bool
(** No validity-affecting defects remain (omissions are allowed — they only
    reduce diversity). *)
