(* Distributed campaign fabric tests: lease bookkeeping (grants, heartbeats,
   expiry, sibling revocation), lossless wire codecs for shard outcomes, and
   the end-to-end invariant the whole fabric exists to keep — a campaign
   executed by remote TCP worker pools, even one whose worker dies mid-lease
   or that runs under network chaos, produces a report byte-identical to the
   standalone run. *)

module Jobspec = O4a_server.Jobspec
module Protocol = O4a_server.Protocol
module Daemon = O4a_server.Daemon
module Client = O4a_server.Client
module Addr = O4a_server.Addr
module Lease = O4a_server.Lease
module Wire = O4a_server.Wire
module Worker = O4a_server.Worker
module Render = O4a_server.Render
module Shard = Orchestrator.Shard
module Faults = O4a_faults.Faults
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------- lease bookkeeping ------------------------- *)

let shard i = { Shard.index = i; first_tick = i * 10; ticks = 10 }

let test_lease_grants_and_attempts () =
  let t = Lease.create ~timeout:5. in
  let g0 = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 0) ~worker:1 in
  check_int "first grant is attempt 0" 0 g0.Lease.grant_attempt;
  check_bool "deadline set" true (g0.Lease.deadline = 105.);
  let g1 = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 0) ~worker:2 in
  check_int "regrant of the same shard is attempt 1" 1 g1.Lease.grant_attempt;
  let other = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 1) ~worker:1 in
  check_int "other shards count their own attempts" 0 other.Lease.grant_attempt;
  check_int "three live leases" 3 (Lease.live_count t);
  check_bool "has_lease_for sees the shard" true
    (Lease.has_lease_for t ~job:"j" ~shard_index:0);
  (* settling one lease revokes its duplicate sibling, not bystanders *)
  (match Lease.complete t ~lease:g0.Lease.lease with
  | None -> Alcotest.fail "live lease reported stale"
  | Some (g, siblings) ->
    check_int "settled the right lease" g0.Lease.lease g.Lease.lease;
    check_bool "sibling for the same shard revoked" true
      (List.map (fun s -> s.Lease.lease) siblings = [ g1.Lease.lease ]));
  check_int "only the other shard's lease survives" 1 (Lease.live_count t);
  (* the revoked sibling's result now arrives stale and is dropped *)
  check_bool "revoked sibling is stale" true
    (Lease.complete t ~lease:g1.Lease.lease = None);
  check_bool "unknown lease is stale" true (Lease.complete t ~lease:999 = None)

let test_lease_heartbeat_and_expiry () =
  let t = Lease.create ~timeout:10. in
  let a = Lease.grant t ~now:0. ~job:"j" ~shard:(shard 0) ~worker:1 in
  let b = Lease.grant t ~now:0. ~job:"j" ~shard:(shard 1) ~worker:2 in
  (* worker 1 beats for both leases, but only keeps the one it owns alive *)
  Lease.heartbeat t ~now:5. ~worker:1 ~leases:[ a.Lease.lease; b.Lease.lease ];
  check_bool "own lease extended" true (a.Lease.deadline = 15.);
  check_bool "someone else's lease untouched" true (b.Lease.deadline = 10.);
  (match Lease.expired t ~now:12. with
  | [ g ] -> check_int "only the unbeaten lease expires" b.Lease.lease g.Lease.lease
  | gs -> Alcotest.failf "expected 1 expiry, got %d" (List.length gs));
  check_bool "expiry removes" true (Lease.expired t ~now:12. = []);
  check_int "the beaten lease lives on" 1 (Lease.live_count t);
  (match Lease.expired t ~now:20. with
  | [ g ] -> check_int "it expires at its extended deadline" a.Lease.lease g.Lease.lease
  | _ -> Alcotest.fail "extended lease did not expire on time");
  check_int "table empty" 0 (Lease.live_count t)

let test_lease_drop_paths () =
  let t = Lease.create ~timeout:5. in
  let a = Lease.grant t ~now:0. ~job:"j1" ~shard:(shard 0) ~worker:1 in
  let _b = Lease.grant t ~now:0. ~job:"j1" ~shard:(shard 1) ~worker:2 in
  let c = Lease.grant t ~now:0. ~job:"j2" ~shard:(shard 0) ~worker:1 in
  (* a dropped connection forfeits exactly that worker's leases *)
  let gone = Lease.drop_worker t ~worker:1 in
  check_bool "worker 1's leases forfeited, in lease order" true
    (List.map (fun g -> g.Lease.lease) gone = [ a.Lease.lease; c.Lease.lease ]);
  check_int "worker 2's lease survives" 1 (Lease.live_count t);
  (* cancelling a job revokes its leases *)
  check_int "drop_job revokes the job's leases" 1
    (List.length (Lease.drop_job t ~job:"j1"));
  check_int "empty" 0 (Lease.live_count t)

(* ------------------------- wire codecs ------------------------- *)

let exec_env_for (spec : Jobspec.t) =
  let profile = Jobspec.llm_profile spec in
  let campaign = Once4all.Campaign.prepare ~seed:spec.Jobspec.seed ~profile () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  Orchestrator.make_env ~config:(Jobspec.config spec) ~tel_enabled:true
    ~tracing:spec.Jobspec.trace ?chaos:(Jobspec.chaos spec)
    ?health:(Jobspec.health spec) ~gen_profile:profile.Llm_sim.Profile.name
    ~seed:(Jobspec.fuzz_seed spec)
    ~generators:campaign.Once4all.Campaign.generators ~seeds ()

(* a real executed shard outcome survives the wire byte-for-byte: encode,
   decode, re-encode, compare the JSON strings *)
let outcome_roundtrips what (spec : Jobspec.t) =
  let env = exec_env_for spec in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let sh =
    match Shard.plan ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size with
    | s :: _ -> s
    | [] -> Alcotest.fail "empty plan"
  in
  let outcome = Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove sh in
  let json = Wire.outcome_to_json outcome in
  match Wire.outcome_of_json json with
  | Error msg -> Alcotest.failf "%s: decode failed: %s" what msg
  | Ok outcome' ->
    check_string (what ^ " round-trips losslessly")
      (Json.to_string json)
      (Json.to_string (Wire.outcome_to_json outcome'))

let test_wire_outcome_roundtrip () =
  (* a clean merged outcome, with tracing + telemetry payloads in flight *)
  outcome_roundtrips "merged outcome"
    {
      (Jobspec.default ~name:"wire") with
      Jobspec.seed = 7;
      budget = 120;
      shard_size = 60;
      trace = true;
      telemetry = true;
    };
  (* a chaos outcome: attempt logs (and likely quarantine) on the wire *)
  outcome_roundtrips "chaos outcome"
    {
      (Jobspec.default ~name:"wire-chaos") with
      Jobspec.seed = 7;
      budget = 120;
      shard_size = 60;
      chaos_profile = "all";
      chaos_seed = 3;
      chaos_rate = 1.0;
    }

(* ------------------------- end-to-end fabric ------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "o4a_dist" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* the daemon writes the bound ephemeral port to state_dir/tcp.port *)
let wait_port path =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match int_of_string (String.trim (read_file path)) with
    | port -> port
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "tcp.port never appeared"
      else (
        Unix.sleepf 0.05;
        go ())
  in
  go ()

let connect_tcp port =
  match Client.connect ~timeout:30. (Addr.Tcp ("127.0.0.1", port)) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "cannot connect over TCP: %s" msg

let request_exn c req =
  match Client.request c req with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "request failed: %s" msg

let submit_exn c spec =
  match
    Option.bind
      (Json.member "job" (request_exn c (Protocol.Submit spec)))
      Json.to_str
  with
  | Some id -> id
  | None -> Alcotest.fail "submit reply lacks a job id"

let wait_done c id =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    let states =
      match Json.member "jobs" (request_exn c Protocol.Jobs) with
      | Some (Json.List views) ->
        List.filter_map
          (fun v ->
            match Protocol.job_view_of_json v with
            | Ok view -> Some (view.Protocol.v_id, view.Protocol.v_state)
            | Error _ -> None)
          views
      | _ -> Alcotest.fail "malformed jobs reply"
    in
    match List.assoc_opt id states with
    | Some s when Protocol.job_state_terminal s -> s
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "distributed job did not finish in time"
      else (
        Unix.sleepf 0.05;
        go ())
  in
  go ()

(* the finished job's backlog, replayed over a fresh connection — includes
   every lease lifecycle event the run streamed *)
let backlog_lines c id =
  let lines = ref [] in
  let on_line json =
    lines := json :: !lines;
    match (Option.bind (Json.member "kind" json) Json.to_str, Json.member "data" json) with
    | Some "state", Some data -> (
      match Option.bind (Json.member "state" data) Json.to_str with
      | Some ("done" | "cancelled") -> false
      | Some s when String.length s >= 6 && String.sub s 0 6 = "failed" -> false
      | _ -> true)
    | _ -> true
  in
  (match Client.stream c (Protocol.Watch { job = id; from = 0 }) ~on_line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "watch failed: %s" msg);
  List.rev !lines

let lease_events lines =
  List.filter_map
    (fun json ->
      match Option.bind (Json.member "kind" json) Json.to_str with
      | Some "lease" ->
        Option.bind (Json.member "data" json) (fun d ->
            Option.bind (Json.member "event" d) Json.to_str)
      | _ -> None)
    lines

(* what `once4all fuzz --jobs 1` would print for this spec *)
let standalone_text (spec : Jobspec.t) =
  let campaign =
    Once4all.Campaign.prepare ~seed:spec.Jobspec.seed
      ~profile:(Jobspec.llm_profile spec) ()
  in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let r =
    Orchestrator.run ~jobs:1 ~shard_size:spec.Jobspec.shard_size
      ~config:(Jobspec.config spec) ~extra:(Jobspec.extra spec)
      ?chaos:(Jobspec.chaos spec) ?health:(Jobspec.health spec)
      ~seed:(Jobspec.fuzz_seed spec) ~budget:spec.Jobspec.budget
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  Render.header
    ~generators:(List.length campaign.Once4all.Campaign.generators)
    ~seeds:(List.length seeds) ~budget:spec.Jobspec.budget
  ^ Render.resumed_line r.Orchestrator.shards_resumed
  ^ Render.campaign ~chaos:(Jobspec.chaos spec) r

let dist_cfg ~dir =
  {
    Daemon.socket_path = Filename.concat dir "s.sock";
    state_dir = Filename.concat dir "state";
    pool = 0;  (* coordinator-only: every shard must travel the fabric *)
    tcp = Some "127.0.0.1:0";
    handshake_timeout = Daemon.default_handshake_timeout;
    idle_timeout = Daemon.default_idle_timeout;
    lease_timeout = 10.;
  }

let worker_cfg ?quit_after ~port ~slots () =
  {
    Worker.addr = Addr.Tcp ("127.0.0.1", port);
    slots;
    connect_timeout = 30.;
    heartbeat_interval = 1.0;
    quit_after;
  }

(* A coordinator with zero local workers and one remote TCP pool: every
   shard travels the wire out, every outcome travels back, and the report is
   byte-identical to the standalone single-job run. Shutdown drains the
   worker cleanly (exit 0). *)
let test_dist_end_to_end () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"remote") with
      Jobspec.seed = 7;
      budget = 300;
      shard_size = 60;
    }
  in
  let id = submit_exn c spec in
  check_bool "job completes over the fabric" true (wait_done c id = Protocol.Done);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "report byte-identical to standalone --jobs 1"
    (standalone_text spec) report;
  (* lease lifecycle is observable on the watch stream *)
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "every shard was granted" true
    (List.length (List.filter (( = ) "lease.granted") events) >= 5);
  check_bool "every grant settled" true
    (List.length (List.filter (( = ) "lease.completed") events) >= 5);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains on coordinator shutdown" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* Kill a worker mid-lease: pool A dies abruptly with a lease unsettled
   (quit_after), pool B picks up the forfeited shard, and the merged report
   is still byte-identical — reassignment re-executes the shard from its
   index-derived RNG, so nothing about the death can leak into the bytes. *)
let test_dist_worker_killed_mid_lease () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  (* pool A works alone: it executes one shard, sends it, then dies with its
     next lease unsettled. Pool B joins only after that death, so A is sure
     to be granted that second lease; were both pools up from the start, B
     could drain the queue first and leave A waiting forever. *)
  let wa =
    Domain.spawn (fun () -> Worker.run (worker_cfg ~quit_after:1 ~port ~slots:1 ()))
  in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"survivor") with
      Jobspec.seed = 11;
      budget = 300;
      shard_size = 60;
    }
  in
  let id = submit_exn c spec in
  check_int "the dying worker exited abruptly" 1 (Domain.join wa);
  let wb = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  check_bool "job completes despite the dead worker" true
    (wait_done c id = Protocol.Done);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "report byte-identical despite mid-lease death"
    (standalone_text spec) report;
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "the death was observed" true (List.mem "lease.worker_lost" events);
  check_bool "the forfeited shard was reassigned" true
    (List.mem "lease.reassigned" events);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "surviving worker drains" 0 (Domain.join wb);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* Network chaos over the real fabric: conn_drop/stream_stall taint attempts
   (deterministically, per (site, shard, attempt)) and lease_dup duplicates
   grants at the coordinator. None of it may leak into the report: the
   chaos run over TCP equals the same chaos spec run standalone. *)
let test_dist_chaos_net () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"chaotic") with
      Jobspec.seed = 5;
      budget = 300;
      shard_size = 60;
      chaos_profile = "net";
      chaos_seed = 2;
      chaos_rate = 1.0;
    }
  in
  let id = submit_exn c spec in
  check_bool "chaos job completes" true (wait_done c id = Protocol.Done);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "chaos report byte-identical to standalone chaos run"
    (standalone_text spec) report;
  (* rate-1.0 lease_dup duplicates every primary grant; each duplicate's
     result must arrive stale (revoked sibling), never double-merge *)
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "duplicate grants were issued" true
    (List.mem "lease.duplicated" events);
  check_bool "their results arrived stale" true
    (List.mem "lease.stale_result" events);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

let () =
  Alcotest.run "dist"
    [
      ( "lease",
        [
          Alcotest.test_case "grants, attempts, sibling revocation" `Quick
            test_lease_grants_and_attempts;
          Alcotest.test_case "heartbeat and expiry" `Quick
            test_lease_heartbeat_and_expiry;
          Alcotest.test_case "drop worker / drop job" `Quick
            test_lease_drop_paths;
        ] );
      ( "wire",
        [
          Alcotest.test_case "outcome round-trip" `Slow
            test_wire_outcome_roundtrip;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "TCP end-to-end byte-identity" `Slow
            test_dist_end_to_end;
          Alcotest.test_case "worker killed mid-lease" `Slow
            test_dist_worker_killed_mid_lease;
          Alcotest.test_case "network chaos invariance" `Slow
            test_dist_chaos_net;
        ] );
    ]
