(** The in-process shard pool: worker domains executing the shards of one or
    more campaigns under a fair {!Scheduler}, with results queued for a
    single merge owner.

    A job is registered under a key together with the function that executes
    one of its shards — in practice [Orchestrator.exec_shard ~env]. Each
    worker domain owns its solver engines, claims [(key, exec, shard)] under
    the pool lock, runs it outside the lock and queues [(key, shard,
    outcome)]. Workers claim nothing once {!Stop.requested} or {!stop}; a
    shard already running finishes and is queued, so stopping always lands on
    a shard boundary.

    [fuzz --jobs N] is one job on an [N]-worker pool; the campaign server is
    many jobs on one pool, possibly with 0 workers when every shard is pulled
    through {!next} and leased to a remote worker pool. *)

type 'o t

type 'o exec =
  worker_id:int -> zeal:Solver.Engine.t -> cove:Solver.Engine.t -> Shard.t -> 'o
(** Execute one shard on the calling worker's private engines. Must not
    raise: an exception ends its worker domain and is re-raised by
    {!close}. *)

val create : workers:int -> wake:(unit -> unit) -> 'o t
(** Spawn [workers] domains (0 is allowed), each mirroring the calling
    domain's {!Printexc.record_backtrace} setting and building its own
    engines. [wake] runs on the worker domain after each queued result — the
    campaign server uses it to wake its select loop. *)

val add : 'o t -> key:string -> quota:int -> exec:'o exec -> Shard.t list -> unit
(** Register a job and its pending shards ({!Scheduler.add}). *)

(** The {!Scheduler} operations of the same names, under the pool lock;
    each wakes idle workers. *)

val set_runnable : 'o t -> key:string -> bool -> unit
val remove : 'o t -> key:string -> unit
val requeue : 'o t -> key:string -> Shard.t -> unit

val next : 'o t -> (string * Shard.t) option
(** Take the next shard off the scheduler to run somewhere other than this
    pool's workers (remote dispatch). *)

val ready : 'o t -> (string * Shard.t * 'o) list
(** Every queued result, in completion order, without blocking. *)

val await : 'o t -> (string * Shard.t * 'o) option
(** Block for the next result. [None] once no more can arrive: nothing is in
    flight and the workers will claim nothing more (the scheduler has no
    runnable work, the pool is stopping, or no worker is left). *)

val stop : 'o t -> unit
(** Claim no new shards; running ones still finish and queue. *)

val stopped : 'o t -> bool

val close : 'o t -> unit
(** {!stop}, then join every worker domain. *)
