(** Domain-local ambient scopes — the pattern behind every per-shard ledger
    ({!Domain.DLS} slot, installed for the duration of a call). *)

val using : 'a Domain.DLS.key -> 'a -> (unit -> 'b) -> 'b
(** [using key v f] runs [f] with [key] holding [v] on the calling domain,
    then restores the previous value, also when [f] raises. Other domains
    never see [v]. *)
