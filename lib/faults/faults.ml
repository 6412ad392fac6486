module Rng = O4a_util.Rng

type site =
  | Solver_hang
  | Solver_crash
  | Sink_write
  | Worker_death
  | Checkpoint_corrupt
  | Conn_drop
  | Stream_stall
  | Lease_dup

(* new sites append with fresh codes: a site's fault-plan stream is keyed by
   its code, so older sites keep their decisions under any existing chaos
   seed *)
let all_sites =
  [
    Solver_hang;
    Solver_crash;
    Sink_write;
    Worker_death;
    Checkpoint_corrupt;
    Conn_drop;
    Stream_stall;
    Lease_dup;
  ]

let n_sites = List.length all_sites

let site_code = function
  | Solver_hang -> 0
  | Solver_crash -> 1
  | Sink_write -> 2
  | Worker_death -> 3
  | Checkpoint_corrupt -> 4
  | Conn_drop -> 5
  | Stream_stall -> 6
  | Lease_dup -> 7

let site_name = function
  | Solver_hang -> "solver_hang"
  | Solver_crash -> "solver_crash"
  | Sink_write -> "sink_write"
  | Worker_death -> "worker_death"
  | Checkpoint_corrupt -> "checkpoint_corrupt"
  | Conn_drop -> "conn_drop"
  | Stream_stall -> "stream_stall"
  | Lease_dup -> "lease_dup"

let site_of_name = function
  | "solver_hang" -> Some Solver_hang
  | "solver_crash" -> Some Solver_crash
  | "sink_write" -> Some Sink_write
  | "worker_death" -> Some Worker_death
  | "checkpoint_corrupt" -> Some Checkpoint_corrupt
  | "conn_drop" -> Some Conn_drop
  | "stream_stall" -> Some Stream_stall
  | "lease_dup" -> Some Lease_dup
  | _ -> None

type profile = Off | Solver | Io | Workers | Net | All | Sick_solver

let net_sites = [ Conn_drop; Stream_stall; Lease_dup ]

let profile_sites = function
  | Off -> []
  | Solver -> [ Solver_hang; Solver_crash ]
  | Io -> [ Sink_write; Checkpoint_corrupt ]
  | Workers -> [ Worker_death ]
  | Net -> net_sites
  | All -> all_sites
  | Sick_solver -> [ Solver_hang ]

let profile_to_string = function
  | Off -> "off"
  | Solver -> "solver"
  | Io -> "io"
  | Workers -> "workers"
  | Net -> "net"
  | All -> "all"
  | Sick_solver -> "solver_hang"

let profile_of_string = function
  | "off" -> Some Off
  | "solver" -> Some Solver
  | "io" -> Some Io
  | "workers" -> Some Workers
  | "net" -> Some Net
  | "all" -> Some All
  | "solver_hang" -> Some Sick_solver
  | _ -> None

type plan = { chaos_seed : int; profile : profile; rate : float }

let default_rate = 0.5
let plan ?(rate = default_rate) ?(chaos_seed = 1) profile =
  { chaos_seed; profile; rate }

let enabled p = p.profile <> Off

(* The sick-solver profile simulates a solver gone sick for a stretch of the
   campaign rather than corrupting a single answer: its hangs are the
   subject under test for the health/breaker layer, not pollution, so they
   do not taint the attempt and the shard's results merge as-is. *)
let taints p _site = p.profile <> Sick_solver

(* How many consecutive consults of Solver_hang stay sick under the
   sick-solver profile: long enough to trip per-(solver, theory) breakers,
   short enough that the shard heals and Half_open probes can re-close
   them within the same shard. *)
let sick_stretch = 120

let max_retries = 3
let retry_decay = 0.5

(* How many consults of a site a fault may wait before firing. Small enough
   that armed faults actually fire within a shard (every site is consulted at
   least once per tick and shards are tens of ticks long). The network sites
   are consulted exactly once per shard attempt — a result either survives
   its trip to the merge owner or it does not — so their window collapses to
   a single consult; a wider window would silently divide the effective fire
   rate by its width. *)
let fire_window = 16

let site_window = function
  | Conn_drop | Stream_stall | Lease_dup -> 1
  | Solver_hang | Solver_crash | Sink_write | Worker_death | Checkpoint_corrupt
    -> fire_window

(* Stream derivation mirrors shard RNGs and trace ids: (site, attempt) picks a
   sub-campaign seed in O(1), then the shard index picks the stream inside it.
   Purely arithmetic, so the plan is identical at any --jobs N. *)
let site_rng p ~site ~shard ~attempt =
  let sub_seed =
    Int64.to_int
      (Rng.bits64
         (Rng.split_indexed ~seed:p.chaos_seed
            ~index:((site_code site * 64) + attempt)))
  in
  Rng.split_indexed ~seed:sub_seed ~index:shard

let decide p ~site ~shard ~attempt =
  if not (List.mem site (profile_sites p.profile)) then None
  else
    let g = site_rng p ~site ~shard ~attempt in
    let prob =
      if p.rate >= 1.0 then 1.0
      else p.rate *. (retry_decay ** float_of_int attempt)
    in
    if Rng.chance g prob then Some (Rng.int g (site_window site)) else None

module Injector = struct
  type armed = {
    shard : int;
    attempt : int;
    fire_at : int option array; (* indexed by site_code *)
    stretch : int array; (* consults a fired site stays fired for *)
    hits : int array;
    mutable fired_rev : site list;
  }

  type t = Disabled | Armed of armed

  let disabled = Disabled

  let create p ~shard ~attempt =
    if not (enabled p) then Disabled
    else
      Armed
        {
          shard;
          attempt;
          fire_at =
            Array.of_list
              (List.map (fun site -> decide p ~site ~shard ~attempt) all_sites);
          stretch =
            Array.of_list
              (List.map
                 (fun site ->
                   if p.profile = Sick_solver && site = Solver_hang then
                     sick_stretch
                   else 1)
                 all_sites);
          hits = Array.make n_sites 0;
          fired_rev = [];
        }

  let check t site =
    match t with
    | Disabled -> false
    | Armed a ->
        let c = site_code site in
        let h = a.hits.(c) in
        a.hits.(c) <- h + 1;
        (match a.fire_at.(c) with
        | Some k when h >= k && h < k + a.stretch.(c) ->
            if not (List.mem site a.fired_rev) then
              a.fired_rev <- site :: a.fired_rev;
            true
        | _ -> false)

  let fired = function Disabled -> [] | Armed a -> List.rev a.fired_rev
  let shard = function Disabled -> 0 | Armed a -> a.shard
  let attempt = function Disabled -> 0 | Armed a -> a.attempt
end

exception Injected of { site : site; shard : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { site; shard; attempt } ->
        Some
          (Printf.sprintf "Faults.Injected(%s, shard %d, attempt %d)"
             (site_name site) shard attempt)
    | _ -> None)

let ambient_key : Injector.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Injector.disabled)

let ambient () = Domain.DLS.get ambient_key
let using inj f = O4a_util.Ambient.using ambient_key inj f

let triggered site = Injector.check (ambient ()) site

let raise_injected site =
  let inj = ambient () in
  raise
    (Injected
       { site; shard = Injector.shard inj; attempt = Injector.attempt inj })

let tick () = if triggered Worker_death then raise_injected Worker_death

(* One consult of each in-path network site, made by the supervisor after an
   attempt finishes and before its payload is handed to the merge owner: a
   fired site means the result was lost in transit (connection dropped, or
   the stream stalled past its deadline). No exception is needed — the fired
   record alone taints the attempt, so the payload is discarded and the
   shard deterministically re-executed. Consulted identically by standalone
   campaigns, the server's local pool, and remote workers, which is what
   keeps a [--chaos net] run byte-identical across venues and job counts. *)
let transit () =
  ignore (triggered Conn_drop : bool);
  ignore (triggered Stream_stall : bool)

let backoff_base_fuel = 1_000

let backoff ~attempt =
  let fuel = backoff_base_fuel * (1 lsl min attempt 10) in
  (* burn generator fuel instead of sleeping: deterministic under any
     scheduler, and proportional work still exercises contention paths *)
  let g = Rng.create fuel in
  for _ = 1 to fuel do
    ignore (Rng.bits64 g)
  done;
  fuel

let chaos_namespace = "chaos:"
let crash_signature = "chaos:injected-solver-crash"
let crash_bug_id = "chaos-injected"
let is_injected_signature s = String.starts_with ~prefix:chaos_namespace s
