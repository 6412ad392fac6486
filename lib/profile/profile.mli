(** Deterministic per-stage campaign profiling.

    A profile ledger rides the existing telemetry span boundaries (via
    {!O4a_telemetry.Telemetry.with_span_hook}) and attributes {e exclusive}
    ("self") cost to whichever stage is on top of the span stack: wall time,
    words allocated by this domain ([Gc.counters]), solver consults and the
    evaluator fuel they burned. Time spent outside any span is charged to the
    synthetic root stage ["other"], so a shard's whole execution is accounted
    for.

    Like the coverage and health ledgers, a profile ledger is created fresh
    per shard attempt, installed ambient on the worker domain with {!using},
    exported as plain sorted counters, and merged commutatively by the single
    merge owner — so the campaign profile does not depend on shard completion
    order.

    {b Determinism.} The exported fields split into two tiers. {e Counts} —
    [calls], [consults], [fuel], [ticks], and the ledger-level
    [alloc_words] total — are pure functions of the executed code:
    {!strip_timing}, the projection the determinism gates compare, keeps
    exactly these and is byte-identical across [--jobs] values.
    {e Measurements} — per-stage [wall_ns], [alloc_words], and
    [promoted_words] — ride the GC and the clock and are zeroed by the
    projection. Per-stage allocation is a measurement because the runtime's
    raw [Gc.counters] reading carries an error term that moves with the GC
    schedule (on OCaml 5, even other domains' stop-the-world minor
    collections shift it). The ledger total escapes this: sampling behind a
    forced minor collection at the {!using} boundaries — where a collection
    costs nothing measurable — empties the minor heap's fill term, making
    the per-shard total [minor + major - promoted] words exact, per-domain,
    and independent of the shard schedule. *)

type entry = {
  stage : string;  (** telemetry span name, or ["other"] for the root *)
  calls : int;  (** span entries (for ["other"]: {!using} scopes) *)
  wall_ns : int;  (** exclusive wall time; measurement, not deterministic *)
  alloc_words : int;
      (** exclusive words allocated ([minor + major - promoted]), from raw
          counter samples at span boundaries; a measurement — see the
          determinism note above *)
  promoted_words : int;
      (** exclusive words promoted out of the minor heap; GC-timing
          dependent, excluded from {!strip_timing} *)
  consults : int;  (** solver queries recorded while this stage was on top *)
  fuel : int;  (** evaluator steps those queries burned *)
}

type t = {
  ticks : int;  (** fuzz-loop tests executed under this profile *)
  alloc_words : int;
      (** total words allocated across the profile's {!using} scopes,
          sampled behind forced minor collections at the scope boundaries:
          exact and deterministic, unlike the per-stage figures *)
  stages : entry list;  (** canonical: sorted by [stage], no duplicates *)
}

val empty : t

val merge : t -> t -> t
(** Pointwise sum by stage; commutative and associative, output canonical. *)

val strip_timing : t -> t
(** The deterministic projection: per-stage [wall_ns], [alloc_words], and
    [promoted_words] zeroed; [ticks], the ledger-level [alloc_words] total,
    and per-stage [calls]/[consults]/[fuel] kept. Byte-identical across
    [--jobs] values for the same campaign. *)

val total_wall_ns : t -> int

val total_alloc_words : t -> int
(** The deterministic ledger-level total ([t.alloc_words]), {e not} the sum
    of the per-stage measurements. *)

val total_consults : t -> int
val total_fuel : t -> int

val display_name : string -> string
(** The paper's stage vocabulary for reports: ["synthesize"] → ["fill"],
    ["adapt"] → ["sort-adapt"], ["solver.run"] → ["solve"],
    ["oracle.compare"] → ["oracle"], ["seed.select"] → ["seed-select"];
    everything else unchanged. *)

val entry_to_json : entry -> O4a_telemetry.Json.t
val to_json : t -> O4a_telemetry.Json.t

val of_json : O4a_telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}; shard outcomes ship profiles between hosts with
    this pair. *)

(** {1 Ledgers} *)

type ledger

val make_ledger : unit -> ledger
(** A live ledger. Single-owner: one domain, one shard attempt. *)

val disabled : ledger
(** Records nothing; the ambient default. Safe to share across domains. *)

val enabled : ledger -> bool

val export : ledger -> t
(** The accumulated profile, canonical. {!empty} for {!disabled}. *)

val using : ledger -> (unit -> 'a) -> 'a
(** Run [f] with [ledger] ambient on this domain {e and} installed as the
    domain's telemetry span hook, restoring both afterwards (also on
    exception). Opens the root ["other"] frame for the duration, so cost
    outside any span is still attributed. A {!disabled} ledger installs no
    hook and adds no overhead beyond one branch. *)

val ambient : unit -> ledger

val recording : unit -> bool
(** Whether the calling domain's ambient ledger is live — the cheap guard
    instrumentation sites check before computing attribution inputs. *)

val consult : ?fuel:int -> unit -> unit
(** Record one solver query (and the fuel it burned) against the stage
    currently on top of the ambient ledger's span stack. No-op when not
    {!recording}. *)

val tick : unit -> unit
(** Count one fuzz-loop test against the ambient ledger. *)
