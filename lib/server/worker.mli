(** A remote worker pool: the executing half of the distributed campaign
    fabric ([once4all worker --connect HOST:PORT]).

    Connects to a coordinator, registers [slots] executor domains, and runs
    granted shards with the exact pipeline the coordinator's local pool
    uses — {!Jobspec.prepare} on the granted spec, then
    {!Orchestrator.exec_shard} — so a shard executed remotely is bit-for-bit
    the shard the coordinator would have executed itself. Results stream back as they finish; heartbeats carry
    the in-flight lease ids on a timer owned by the socket thread, so a
    shard may legitimately take longer than the lease timeout without
    forfeiting it. *)

type config = {
  addr : Addr.t;  (** coordinator endpoint *)
  slots : int;  (** executor domains (>= 1) *)
  connect_timeout : float;
      (** total retry budget for the initial connect, seconds *)
  heartbeat_interval : float;
      (** seconds between heartbeats; keep well under the coordinator's
          lease timeout (default: a third of it) *)
  quit_after : int option;
      (** test hook: after sending N results, die abruptly with the next
          lease unsettled — the coordinator sees the connection drop and
          reassigns the shard. [None] in production. *)
}

val default_heartbeat_interval : float

val run : config -> int
(** Run until the coordinator sends [Drain] (exit 0, after delivering every
    in-flight result) or the connection is lost / [quit_after] trips
    (exit 1). Exit 2 on bad configuration. *)
