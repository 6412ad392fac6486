(** Random sentence generation from a {!Cfg.t}.

    Derivation is depth-budgeted: once the remaining budget cannot cover an
    alternative's minimal derivation depth, that alternative is excluded, so
    generation always terminates on a validated grammar. Hooks are rendered
    through a caller-supplied function that owns all context-sensitive state
    (variable pools, bit-widths, field orders). *)

type hook_fn = string -> string
(** Maps a hook name to the text to substitute. May raise. *)

type compiled
(** A grammar prepared for repeated derivation: every nonterminal resolved
    to its first production, every alternative paired with its minimal
    derivation depth. Immutable, so one value can be shared by domains. *)

val compile : Cfg.t -> compiled
(** Solves {!Cfg.min_depths} once. The alternatives are shared with the
    grammar, not copied. *)

val cfg : compiled -> Cfg.t
(** The grammar [compile] was given. *)

val defines : compiled -> string -> bool
(** Whether the grammar has a production for the nonterminal. *)

val derive :
  ?max_depth:int ->
  compiled ->
  hook:hook_fn ->
  rng:O4a_util.Rng.t ->
  string ->
  (string, string) result
(** [derive c ~hook ~rng start] derives one sentence from [start] (default
    depth budget 8). [Error] on unknown start symbols or grammars where no
    alternative fits the budget. *)

val sentence :
  ?max_depth:int ->
  cfg:Cfg.t ->
  hook:hook_fn ->
  rng:O4a_util.Rng.t ->
  string ->
  (string, string) result
(** [compile] followed by one [derive]. *)

val sentences :
  ?max_depth:int ->
  cfg:Cfg.t ->
  hook:hook_fn ->
  rng:O4a_util.Rng.t ->
  count:int ->
  string ->
  string list
(** Best-effort batch over one compilation: failures are skipped. *)
