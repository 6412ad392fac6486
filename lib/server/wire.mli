(** Wire codecs for complete shard outcomes — what a remote worker streams
    back to the coordinator over a lease.

    Everything a {!Orchestrator.Merge.t} absorbs must round-trip losslessly:
    the merged report, repro bundles, telemetry, and analytics are
    byte-compared against the standalone run, so a codec that dropped so
    much as a histogram bucket would break the identity. Wherever a
    subsystem already persists the value (checkpoints, telemetry events,
    trace bundles, analytics series, profiles) its codec is reused; only
    metric entries (the telemetry log's histogram form is a lossy sum/count
    summary) get a wire-specific encoding here. *)

val outcome_to_json : Orchestrator.shard_outcome -> O4a_telemetry.Json.t
val outcome_of_json :
  O4a_telemetry.Json.t -> (Orchestrator.shard_outcome, string) result
