(** Deterministic fault injection for chaos testing.

    A chaos campaign must be byte-for-byte reproducible at any [--jobs N], so
    faults cannot be decided by wall-clock time, scheduling order, or a shared
    mutable RNG. Instead the whole fault plan is a pure function of a chaos
    seed: for every (site, shard, attempt) triple, [decide] derives an
    independent stream via {!O4a_util.Rng.split_indexed} — the same convention
    used for shard RNGs and trace ids — and rolls whether (and after how many
    consults of that site) the fault fires. Workers carry an ambient
    {!Injector} for the shard attempt they are executing; instrumented sites
    consult it with {!triggered} / {!tick} and otherwise cost one branch.

    The supervision contract built on top: any attempt during which at least
    one fault fired is {e tainted} — its results are discarded wholesale and
    the shard is retried with the next attempt index (which re-rolls every
    site). Only an attempt with zero fired faults may merge, which is exactly
    what makes a chaos run whose retries eventually succeed identical to the
    fault-free run. *)

type site =
  | Solver_hang  (** force fuel exhaustion inside [Solver.Runner] *)
  | Solver_crash  (** synthesize a spurious crash result in [Solver.Runner] *)
  | Sink_write  (** fail a telemetry sink write *)
  | Worker_death  (** kill the worker mid-shard, between two ticks *)
  | Checkpoint_corrupt  (** tear a checkpoint write, leaving truncated JSON *)
  | Conn_drop
      (** drop the connection carrying a finished shard result before it
          reaches the merge owner; the attempt is lost in transit *)
  | Stream_stall
      (** stall the result stream past its deadline — indistinguishable from
          a loss downstream, so the attempt is likewise discarded *)
  | Lease_dup
      (** deliver a lease grant twice (a retransmitted/duplicated grant);
          consulted by the coordinator at grant time, never by workers *)

val all_sites : site list
(** In site-code order; stable, used to index fault-plan streams. *)

val net_sites : site list
(** The network fault sites: {!Conn_drop}, {!Stream_stall}, {!Lease_dup}. *)

val site_name : site -> string
val site_of_name : string -> site option

type profile = Off | Solver | Io | Workers | Net | All | Sick_solver
(** [Sick_solver] (spelled ["solver_hang"] on the CLI) arms only
    {!Solver_hang}, and with different semantics: instead of corrupting a
    single answer, a fired hang stays stuck for {!sick_stretch} consecutive
    consults — a solver gone sick for a stretch of the shard. Its firings do
    not {!taints} the attempt, because the resulting timeouts are the
    subject under test for the health/breaker layer, not pollution. *)

val profile_sites : profile -> site list
val profile_to_string : profile -> string
val profile_of_string : string -> profile option

type plan = { chaos_seed : int; profile : profile; rate : float }
(** [rate] is the probability that a given site fires during attempt 0 of a
    shard. Retries decay the probability by {!retry_decay} per attempt so
    campaigns converge; as a special case [rate >= 1.0] fires every armed
    site on every attempt, guaranteeing quarantine (useful in tests). *)

val default_rate : float

val plan : ?rate:float -> ?chaos_seed:int -> profile -> plan

val enabled : plan -> bool
(** [false] exactly when the profile is [Off]. *)

val taints : plan -> site -> bool
(** Whether a firing of [site] under this plan taints the attempt (discard
    and retry). [true] for every profile except [Sick_solver]. *)

val sick_stretch : int
(** Consults a [Sick_solver] hang stays stuck for once fired. *)

val max_retries : int
(** A shard is attempted at most [max_retries + 1] times before quarantine. *)

val retry_decay : float

val decide : plan -> site:site -> shard:int -> attempt:int -> int option
(** [decide plan ~site ~shard ~attempt] is [Some k] when the fault plan calls
    for [site] to fire on the [k]-th consult of that site during the given
    shard attempt, [None] otherwise. Pure: equal arguments always yield the
    same decision, independent of [--jobs], scheduling, or call order. *)

val site_window : site -> int
(** How many consults of the site a scheduled fault may wait before firing:
    {!fire_window} for in-shard sites, [1] for the single-consult network
    sites ([decide] then always answers [Some 0] when it fires). *)

val fire_window : int

(** The per-(shard, attempt) injector a worker arms while executing a shard.
    Each instrumented site consults it once per potential fault point; the
    injector counts consults and fires each armed site exactly once, at the
    consult index chosen by {!decide}. *)
module Injector : sig
  type t

  val disabled : t
  (** Never fires; the ambient default outside chaos runs. *)

  val create : plan -> shard:int -> attempt:int -> t

  val check : t -> site -> bool
  (** [check t site] consumes one consult of [site] and returns whether the
      fault fires now. Fires at most once per site per injector, except
      under [Sick_solver], where a fired hang stays stuck for
      {!sick_stretch} consecutive consults (still listed once in
      {!fired}). *)

  val fired : t -> site list
  (** Sites that have fired so far, in firing order. Non-empty means the
      attempt is tainted and its results must be discarded. *)

  val shard : t -> int
  val attempt : t -> int
end

exception
  Injected of {
    site : site;
    shard : int;
    attempt : int;
  }
(** Raised by sites whose fault is a failure (sink write, worker death) as
    opposed to a wrong-but-returned result (solver hang/crash). *)

val ambient : unit -> Injector.t
(** The calling domain's injector; {!Injector.disabled} unless inside
    {!using}. *)

val using : Injector.t -> (unit -> 'a) -> 'a
(** [using inj f] runs [f] with [inj] ambient on this domain, restoring the
    previous injector afterwards (also on exception). *)

val triggered : site -> bool
(** [Injector.check] against the ambient injector. *)

val raise_injected : site -> 'a
(** Raise {!Injected} for [site], stamped with the ambient injector's shard
    and attempt. *)

val tick : unit -> unit
(** Worker-death probe for the fuzz loop: consults [Worker_death] on the
    ambient injector and raises {!Injected} when it fires. *)

val transit : unit -> unit
(** Result-in-transit probe for the supervisor: one consult each of
    {!Conn_drop} and {!Stream_stall}, made after an attempt completes and
    before its payload reaches the merge owner. A firing taints the attempt
    (the result was lost on the wire), so the shard is discarded and
    deterministically re-executed — identically in standalone campaigns, the
    server's local pool, and remote workers. *)

val backoff : attempt:int -> int
(** Deterministic, fuel-based backoff: burns [1000 * 2^attempt] units of
    generator fuel (no wall-clock sleeping, so retried runs stay
    reproducible) and returns the amount burned, for telemetry. *)

val crash_signature : string
(** Signature carried by injected spurious crashes. Lives in the reserved
    ["chaos:"] namespace so it can never collide with a ground-truth bug
    signature from the solver. *)

val crash_bug_id : string

val is_injected_signature : string -> bool
(** [true] for signatures in the ["chaos:"] namespace. The oracle uses this
    to keep injected crashes out of ground-truth bug attribution. *)
