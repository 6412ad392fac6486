(** A campaign submission: everything that determines a campaign's identity
    and outputs, as one JSON-serializable record.

    Both entry points derive their campaign from a spec through the same
    functions here — the CLI's [fuzz] from its flags, the server from a
    submitted JSON object — so a spec names {e one} campaign: same
    generators, same shard plan, same fault plan, same breaker config, same
    checkpoint provenance ({!extra}). That sharing is what makes a server-run
    campaign byte-identical to the standalone run, and their checkpoints
    interchangeable. *)

type t = {
  name : string;  (** job identifier: 1-64 chars of [a-zA-Z0-9._-] *)
  seed : int;  (** the CLI-facing seed; fuzzing itself uses {!fuzz_seed} *)
  budget : int;
  shard_size : int;
  quota : int;
      (** fair-share weight: shards this job may run per scheduling round
          when the server pool is contended (>= 1) *)
  profile : string;  (** LLM profile name, e.g. ["gpt-4"] *)
  use_skeletons : bool;  (** [false] is the w/oS ablation *)
  trace : bool;  (** record provenance traces and write repro bundles *)
  telemetry : bool;  (** write a JSONL event log next to the job *)
  chaos_profile : string;  (** fault-injection profile name, ["off"] = none *)
  chaos_seed : int;
  chaos_rate : float;
  breakers : bool;
  breaker_window : int;
  breaker_threshold : int;
}

val default : name:string -> t
(** The CLI [fuzz] defaults (seed 42, budget 2000, breakers on, chaos off). *)

val validate : t -> (unit, string) result
(** Reject malformed specs with a message fit for the wire: bad name, non-
    positive numbers, unknown LLM or chaos profile. *)

val llm_profile : t -> Llm_sim.Profile.t
(** Resolve [profile]. Raises [Invalid_argument] on unknown names — call
    {!validate} first. *)

val chaos : t -> O4a_faults.Faults.plan option
(** The fault plan, [None] when the profile is ["off"] (or unknown). *)

val health : t -> O4a_health.Health.config option
(** The breaker config ([cooldown] tracks [breaker_window], as the CLI's
    flag does), [None] when [breakers] is false. *)

val config : t -> Once4all.Fuzz.config

val fuzz_seed : t -> int
(** [seed + 1] — the orchestrator seed, matching the CLI's convention (the
    construction phase consumes [seed] itself). *)

(** A spec's campaign, ready to run. *)
type prepared = {
  generators : Gensynth.Generator.t list;
  seeds : Smtlib.Script.t list;  (** the corpus, filtered by both solvers *)
  env : Orchestrator.exec_env;
      (** for executing the campaign's shards: telemetry buffered for
          forwarding, tracing as [trace] says *)
}

val prepare : t -> prepared
(** The one pipeline from a spec to its campaign — the generator library
    the LLM profile synthesizes at [seed], the seed corpus filtered by both
    solvers, and the shard env at {!fuzz_seed}. [fuzz], [resume], the
    server's jobs and its remote workers all build campaigns here. *)

val extra : t -> (string * string) list
(** The checkpoint provenance record. One definition for both entry points,
    so checkpoints written by either can be resumed by either. *)

val of_checkpoint : name:string -> Orchestrator.Checkpoint.t -> t
(** Rebuild the spec a checkpoint was written under from its {!extra}
    record — the resume path's inverse of {!extra}. [quota], [trace], and
    [telemetry] take defaults: they are runtime choices, not campaign
    identity. *)

val to_json : t -> O4a_telemetry.Json.t

val of_json : O4a_telemetry.Json.t -> (t, string) result
(** Lenient: only ["name"] is required, every other field defaults. The
    result is {!validate}d. *)
