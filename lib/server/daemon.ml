module Json = O4a_telemetry.Json
module Event = O4a_telemetry.Event
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Faults = O4a_faults.Faults
module Hud = O4a_profile.Hud
module Engine = Solver.Engine
module Shard = Orchestrator.Shard
module Checkpoint = Orchestrator.Checkpoint
module Merge = Orchestrator.Merge
module Stop = Orchestrator.Stop
module Pool = Orchestrator.Pool
module Bundle = O4a_trace.Bundle

let log_src = Logs.Src.create "once4all.server" ~doc:"Campaign server daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket_path : string;
  state_dir : string;
  pool : int;
  tcp : string option;
  handshake_timeout : float;
  idle_timeout : float;
  lease_timeout : float;
}

let default_handshake_timeout = 10.
let default_idle_timeout = 300.
let default_lease_timeout = 30.

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* A connection enrolled as a remote worker pool: [slots] concurrent shard
   slots, [inflight] leases currently charged against them. *)
type worker_state = { w_slots : int; mutable w_inflight : int }

(* Non-blocking buffered writer: stream lines append to [out], the select
   loop flushes when the fd turns writable. A subscriber that stops reading
   grows its buffer until [max_out], then is disconnected — one slow watcher
   must never stall the merge path or the other subscribers. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  fr : Framing.t;
  created : float;
  mutable last_activity : float;
  mutable hello_ok : bool;  (* completed the handshake: sent a valid request *)
  mutable subscriber : bool;  (* watch subscriber: exempt from idle reaping *)
  mutable worker : worker_state option;
  mutable out : string;
  mutable closed : bool;
}

let max_out = 1 lsl 20

let try_flush c =
  if (not c.closed) && c.out <> "" then (
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | 0 -> ()
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> c.closed <- true)

let conn_send c line =
  if not c.closed then
    if String.length c.out + String.length line + 1 > max_out then (
      Log.warn (fun m -> m "dropping slow subscriber (>%d bytes queued)" max_out);
      c.closed <- true)
    else (
      c.out <- c.out ^ line ^ "\n";
      try_flush c)

let conn_send_json c json = conn_send c (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type job = {
  id : string;
  spec : Jobspec.t;
  dir : string;
  chaos : Faults.plan option;
  tel : Telemetry.t;
  gen_count : int;
  seed_count : int;
  plan_total : int;  (* full plan, including shards resumed from disk *)
  total : int;  (* shards this server process must execute *)
  resumed : int;
  mutable merge : Merge.t option;  (* set right after registration *)
  mutable state : Protocol.job_state;
  mutable shards_done : int;
  mutable findings : int;
  mutable backlog_rev : string list;  (* streamed lines, newest first *)
  mutable backlog_len : int;
  mutable subscribers : conn list;
}

type t = {
  cfg : config;
  (* local worker domains and the scheduler remote dispatch pulls from; a
     queued result writes to [pipe_w] to wake the select loop. A Shutdown
     request stops the pool; SIGTERM uses Stop. *)
  pool : Orchestrator.shard_outcome Pool.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  (* main-domain-only state *)
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (* submission order *)
  mutable conns : conn list;
  mutable next_conn : int;
  leases : Lease.t;
}

let stopping t = Stop.requested () || Pool.stopped t.pool

(* ------------------------------------------------------------------ *)
(* Event streaming                                                     *)
(* ------------------------------------------------------------------ *)

(* Append one line to the job's backlog and deliver it to every live
   subscriber. The backlog is the catch-up source: a Watch with [from=n]
   replays lines n.. first, so a late subscriber sees exactly the stream an
   early one saw. *)
let push_line job json =
  let line = Json.to_string json in
  job.backlog_rev <- line :: job.backlog_rev;
  job.backlog_len <- job.backlog_len + 1;
  List.iter (fun c -> conn_send c line) job.subscribers;
  job.subscribers <- List.filter (fun c -> not c.closed) job.subscribers

let stream job ~kind data = push_line job (Protocol.stream_line ~job:job.id ~kind data)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let set_state job st =
  if job.state <> st then (
    job.state <- st;
    (match st with
    | Protocol.Failed msg ->
      stream job ~kind:"state"
        (Json.Obj
           [
             ("state", Json.String (Protocol.job_state_to_string st));
             ("error", Json.String msg);
           ])
    | _ ->
      stream job ~kind:"state"
        (Json.Obj [ ("state", Json.String (Protocol.job_state_to_string st)) ]));
    write_file
      (Filename.concat job.dir "status")
      (Protocol.job_state_to_string job.state ^ "\n"))

(* every campaign event a Merge forwards (or emits) lands here, on the main
   domain; interesting ones are re-tagged so watchers can filter without
   parsing the full telemetry stream *)
let on_event t id (ev : Event.t) =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some job ->
    stream job ~kind:"telemetry" (Event.to_json ev);
    let finding =
      ev.Event.name = "fuzz.test"
      &&
      match Event.field "finding" ev with Some (Json.String _) -> true | _ -> false
    in
    if finding then stream job ~kind:"finding" (Event.to_json ev)
    else if ev.Event.name = "health.breaker" then
      stream job ~kind:"health" (Event.to_json ev)
    else if ev.Event.name = "shard.quarantined" then
      stream job ~kind:"quarantine" (Event.to_json ev)
    else if ev.Event.name = O4a_analytics.Analytics.plateau_event_name then
      stream job ~kind:"plateau" (Event.to_json ev)

(* merge-time progress, minus [elapsed_s]: the streamed progress lines are a
   pure function of merged state, so the backlog two subscribers compare is
   identical no matter when they attached *)
let on_progress t id (p : Hud.progress) =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some job ->
    job.shards_done <- p.Hud.shards_done;
    job.findings <- p.Hud.findings;
    stream job ~kind:"progress"
      (Json.Obj
         [
           ("shards_done", Json.Int p.Hud.shards_done);
           ("shards_total", Json.Int p.Hud.shards_total);
           ("ticks_done", Json.Int p.Hud.ticks_done);
           ("budget", Json.Int p.Hud.budget);
           ("findings", Json.Int p.Hud.findings);
           ("coverage_points", Json.Int p.Hud.coverage_points);
           ( "cov_rate",
             match p.Hud.cov_rate with
             | None -> Json.Null
             | Some r -> Json.Float r );
           ("quarantined", Json.Int p.Hud.quarantined);
           ("breaker_trips", Json.Int p.Hud.breaker_trips);
         ])

(* ------------------------------------------------------------------ *)
(* Job lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_id t name =
  let taken id =
    Hashtbl.mem t.jobs id || Sys.file_exists (Filename.concat t.cfg.state_dir id)
  in
  if not (taken name) then name
  else (
    let rec go n =
      let id = Printf.sprintf "%s-%d" name n in
      if taken id then go (n + 1) else id
    in
    go 2)

let finish_job job =
  let merge = Option.get job.merge in
  let trace_dir =
    if job.spec.Jobspec.trace then Some (Filename.concat job.dir "trace")
    else None
  in
  (match Merge.finalize ?trace_dir ~interrupted:false ~stopped:false merge with
  | exception Failure msg ->
    Log.err (fun m -> m "job %s failed: %s" job.id msg);
    set_state job (Protocol.Failed msg)
  | report ->
    (* report.txt is the standalone run's stdout, written through the same
       Render module the CLI prints with — byte-identical by construction,
       modulo the path-bearing "wrote …"/"resumed …" lines check.sh strips *)
    let text =
      Render.header ~generators:job.gen_count ~seeds:job.seed_count
        ~budget:job.spec.Jobspec.budget
      ^ Render.resumed_line report.Orchestrator.shards_resumed
      ^ Render.campaign ~chaos:job.chaos report
      ^
      match trace_dir with
      | Some dir -> Render.bundles_line ~dir report.Orchestrator.bundles_written
      | None -> ""
    in
    write_file (Filename.concat job.dir "report.txt") text;
    set_state job Protocol.Done);
  Telemetry.flush job.tel

(* Build and register a job from its spec (and, when resuming, the loaded
   checkpoint), then hand its remaining shards to the shared pool. The
   campaign comes from {!Jobspec.prepare}, as for `once4all fuzz`, so a shard
   executed for this job is indistinguishable from one executed there. *)
let start_job t ~id ~dir ~spec ~base =
  Bundle.ensure_dir dir;
  write_file (Filename.concat dir "spec.json")
    (Json.to_string (Jobspec.to_json spec) ^ "\n");
  let prepared = Jobspec.prepare spec in
  let chaos = Jobspec.chaos spec in
  let callback = Sink.callback (fun ev -> on_event t id ev) in
  let sink =
    if spec.Jobspec.telemetry then
      Sink.fanout
        [ Sink.open_jsonl (Filename.concat dir "telemetry.jsonl"); callback ]
    else callback
  in
  let tel =
    Telemetry.create ~sink ~clock:(Telemetry.monotonic_clock ()) ()
  in
  let plan =
    Shard.plan ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size
  in
  let remaining = Checkpoint.remaining ~plan base in
  let job =
    {
      id;
      spec;
      dir;
      chaos;
      tel;
      gen_count = List.length prepared.Jobspec.generators;
      seed_count = List.length prepared.Jobspec.seeds;
      plan_total = List.length plan;
      total = List.length remaining;
      resumed = List.length plan - List.length remaining;
      merge = None;
      state = Protocol.Queued;
      shards_done = 0;
      findings = 0;
      backlog_rev = [];
      backlog_len = 0;
      subscribers = [];
    }
  in
  (* register before Merge.create so its campaign.start event reaches the
     backlog through the sink callback *)
  Hashtbl.replace t.jobs id job;
  t.order <- t.order @ [ id ];
  let merge =
    Merge.create ~env:prepared.Jobspec.env ~tel
      ~checkpoint_path:(Filename.concat dir "checkpoint.json")
      ?base ~on_progress:(fun p -> on_progress t id p)
      ~jobs:t.cfg.pool ~budget:spec.Jobspec.budget
      ~shard_size:spec.Jobspec.shard_size ~extra:(Jobspec.extra spec) ()
  in
  job.merge <- Some merge;
  if job.total > 0 then (
    (* the orchestrator's before-any-shard-runs save, so even a job killed
       seconds after submission leaves a resumable checkpoint *)
    Merge.checkpoint_now merge;
    Merge.notify_progress merge;
    set_state job Protocol.Running;
    Pool.add t.pool ~key:id ~quota:spec.Jobspec.quota
      ~exec:(Orchestrator.exec_shard ~env:prepared.Jobspec.env)
      remaining)
  else (
    Merge.notify_progress merge;
    finish_job job);
  job

(* ------------------------------------------------------------------ *)
(* Result merging (main domain = single owner for every job's merge)    *)
(* ------------------------------------------------------------------ *)

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

(* every result — a local worker's or a remote pool's — merges here *)
let merge_result t (id, shard, outcome) =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some job when Protocol.job_state_terminal job.state ->
    (* a cancelled job's in-flight shards complete but merge nowhere *)
    ()
  | Some job -> (
    let merge = Option.get job.merge in
    match Merge.absorb merge shard outcome with
    | exception Failure msg ->
      (* checkpoint verify-after-save is the only raiser here *)
      set_state job (Protocol.Failed msg);
      Telemetry.flush job.tel
    | () -> if Merge.processed merge >= job.total then finish_job job)

let drain_results t = List.iter (merge_result t) (Pool.ready t.pool)

(* ------------------------------------------------------------------ *)
(* Remote worker pools: leases, dispatch, reassignment                 *)
(* ------------------------------------------------------------------ *)

(* Lease lifecycle events ride the watch stream under kind "lease" — they
   are observability, not campaign data, so they must never land in the
   job's telemetry (telemetry.jsonl stays byte-identical to a standalone
   run no matter how many leases expired along the way). *)
let lease_event job fields = stream job ~kind:"lease" (Json.Obj fields)

let conn_by_id t id = List.find_opt (fun (c : conn) -> c.id = id) t.conns

let release_slot t worker_id =
  match conn_by_id t worker_id with
  | Some { worker = Some w; _ } -> w.w_inflight <- max 0 (w.w_inflight - 1)
  | Some _ | None -> ()

(* Hand a leased shard back to the scheduler — unless a sibling lease for
   the same shard is still live (chaos-duplicated grant) or the job has
   meanwhile reached a terminal state. Requeued shards go to the front of
   the job's queue, and because a shard outcome is a pure function of
   (env, shard), re-executing it elsewhere cannot change one byte of the
   merged campaign. *)
let requeue_shard t (g : Lease.grant) =
  match Hashtbl.find_opt t.jobs g.Lease.job with
  | None -> ()
  | Some job ->
    if
      (not (Protocol.job_state_terminal job.state))
      && not
           (Lease.has_lease_for t.leases ~job:g.Lease.job
              ~shard_index:g.Lease.shard.Shard.index)
    then (
      Pool.requeue t.pool ~key:g.Lease.job g.Lease.shard;
      lease_event job
        [
          ("event", Json.String "lease.reassigned");
          ("lease", Json.Int g.Lease.lease);
          ("shard", Json.Int g.Lease.shard.Shard.index);
        ])

let reassign t ~reason (g : Lease.grant) =
  release_slot t g.Lease.worker;
  (match Hashtbl.find_opt t.jobs g.Lease.job with
  | None -> ()
  | Some job ->
    lease_event job
      [
        ("event", Json.String reason);
        ("lease", Json.Int g.Lease.lease);
        ("shard", Json.Int g.Lease.shard.Shard.index);
        ("worker", Json.Int g.Lease.worker);
      ]);
  requeue_shard t g

let send_grant t job shard c =
  let w = match c.worker with Some w -> w | None -> assert false in
  let g =
    Lease.grant t.leases ~now:(Unix.gettimeofday ()) ~job:job.id ~shard
      ~worker:c.id
  in
  w.w_inflight <- w.w_inflight + 1;
  conn_send_json c
    (Protocol.worker_msg_to_json
       (Protocol.Grant
          {
            lease = g.Lease.lease;
            job = job.id;
            grant_attempt = g.Lease.grant_attempt;
            shard;
            spec = job.spec;
          }));
  lease_event job
    [
      ("event", Json.String "lease.granted");
      ("lease", Json.Int g.Lease.lease);
      ("shard", Json.Int shard.Shard.index);
      ("worker", Json.Int c.id);
      ("attempt", Json.Int g.Lease.grant_attempt);
    ];
  g

(* The Lease_dup chaos site fires at grant time, on the coordinator: the
   same shard is granted twice, exercising the revoke-the-sibling path in
   Lease.complete. Whichever result lands first settles the shard; the
   sibling's arrives stale and is dropped, so the duplicate can never
   double-merge. Consulted once per primary grant (never on the duplicate
   itself), keyed by the pure (site, shard, attempt) fault stream. *)
let maybe_duplicate t job shard c (g : Lease.grant) =
  match job.chaos with
  | None -> ()
  | Some plan -> (
    match
      Faults.decide plan ~site:Faults.Lease_dup ~shard:shard.Shard.index
        ~attempt:g.Lease.grant_attempt
    with
    | None -> ()
    | Some _ ->
      let g2 = send_grant t job shard c in
      lease_event job
        [
          ("event", Json.String "lease.duplicated");
          ("lease", Json.Int g2.Lease.lease);
          ("of", Json.Int g.Lease.lease);
          ("shard", Json.Int shard.Shard.index);
        ])

let free_worker t =
  List.fold_left
    (fun best c ->
      if c.closed then best
      else
        match c.worker with
        | Some w when w.w_inflight < w.w_slots -> (
          match best with
          | Some b -> (
            match b.worker with
            | Some bw when bw.w_slots - bw.w_inflight >= w.w_slots - w.w_inflight
              -> best
            | _ -> Some c)
          | None -> Some c)
        | _ -> best)
    None t.conns

(* Pull shards off the shared pool's scheduler and lease them to whichever
   remote pool has the most free slots. Runs on the main domain; the local
   workers compete for the same scheduler, so a coordinator with both local
   and remote workers load-balances naturally. *)
let rec dispatch_remote t =
  if not (stopping t) then
    match free_worker t with
    | None -> ()
    | Some c -> (
      match Pool.next t.pool with
      | None -> ()
      | Some (key, shard) -> (
        match Hashtbl.find_opt t.jobs key with
        | None -> dispatch_remote t  (* cancellation raced the scheduler *)
        | Some job ->
          let g = send_grant t job shard c in
          maybe_duplicate t job shard c g;
          dispatch_remote t))

let reap_leases t now =
  match Lease.expired t.leases ~now with
  | [] -> ()
  | gone ->
    List.iter (fun g -> reassign t ~reason:"lease.expired" g) gone;
    dispatch_remote t

(* Handshake and idle deadlines: a connection that never sends a valid
   request is dropped after [handshake_timeout]; one that goes quiet after
   the handshake is dropped after [idle_timeout]. Watch subscribers are
   exempt (they legitimately only read); worker pools are reaped on a
   heartbeat-scaled deadline instead, so a half-open TCP peer cannot keep
   soaking up grants forever. *)
let reap_conns t now =
  List.iter
    (fun c ->
      if not c.closed then
        if (not c.hello_ok) && now -. c.created > t.cfg.handshake_timeout then (
          conn_send_json c
            (Protocol.error_coded ~code:Protocol.code_handshake_timeout
               "closing: no request within the handshake deadline");
          c.closed <- true)
        else if
          c.worker <> None
          && now -. c.last_activity
             > Float.max t.cfg.idle_timeout (3. *. t.cfg.lease_timeout)
        then (
          Log.warn (fun m -> m "worker pool conn#%d silent; dropping" c.id);
          c.closed <- true)
        else if
          (not c.subscriber) && c.worker = None
          && now -. c.last_activity > t.cfg.idle_timeout
        then (
          conn_send_json c
            (Protocol.error_coded ~code:Protocol.code_idle_timeout
               "closing: idle past the deadline");
          c.closed <- true))
    t.conns

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let job_view (job : job) =
  {
    Protocol.v_id = job.id;
    v_name = job.spec.Jobspec.name;
    v_state = job.state;
    v_shards_done = job.shards_done;
    v_shards_total = job.plan_total;
    v_findings = job.findings;
    v_quota = job.spec.Jobspec.quota;
  }

let submit t spec =
  match Jobspec.validate spec with
  | Error msg -> Protocol.error msg
  | Ok () ->
    let id = fresh_id t spec.Jobspec.name in
    let dir = Filename.concat t.cfg.state_dir id in
    let job = start_job t ~id ~dir ~spec ~base:None in
    Log.info (fun m ->
        m "job %s submitted: budget %d, %d shards, quota %d" id
          spec.Jobspec.budget job.total spec.Jobspec.quota);
    Protocol.ok
      [
        ("job", Json.String id);
        ("shards", Json.Int job.total);
        ("state", Json.String (Protocol.job_state_to_string job.state));
      ]

let pause t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Protocol.error (Printf.sprintf "no such job %S" id)
  | Some job when job.state <> Protocol.Running ->
    Protocol.error
      (Printf.sprintf "job %S is %s, not running" id
         (Protocol.job_state_to_string job.state))
  | Some job ->
    Pool.set_runnable t.pool ~key:id false;
    set_state job Protocol.Paused;
    Protocol.ok [ ("job", Json.String id) ]

(* Revive a job from its on-disk spec + checkpoint — the path a restarted
   server (or a SIGTERM-drained one) uses to pick campaigns back up. The
   checkpoint's provenance must match the spec's, same rule as `resume`. *)
let revive t id =
  let dir = Filename.concat t.cfg.state_dir id in
  let spec_path = Filename.concat dir "spec.json" in
  let cp_path = Filename.concat dir "checkpoint.json" in
  if not (Sys.file_exists spec_path) then
    Protocol.error (Printf.sprintf "no such job %S (no %s)" id spec_path)
  else (
    match In_channel.with_open_text spec_path In_channel.input_all with
    | exception Sys_error msg -> Protocol.error msg
    | contents -> (
      match Result.bind (Json.parse contents) Jobspec.of_json with
      | Error msg -> Protocol.error (Printf.sprintf "%s: %s" spec_path msg)
      | Ok spec -> (
        match
          Checkpoint.load_for_resume ~path:cp_path
            ~seed:(Jobspec.fuzz_seed spec) ~budget:spec.Jobspec.budget
            ~shard_size:spec.Jobspec.shard_size
        with
        | Error msg -> Protocol.error msg
        | Ok cp ->
          let job = start_job t ~id ~dir ~spec ~base:(Some cp) in
          Log.info (fun m ->
              m "job %s revived: %d shards left of %d" id job.total
                job.plan_total);
          Protocol.ok
            [
              ("job", Json.String id);
              ("shards", Json.Int job.total);
              ("resumed", Json.Int job.resumed);
            ])))

let resume_job t id =
  match Hashtbl.find_opt t.jobs id with
  | Some job when job.state = Protocol.Paused ->
    Pool.set_runnable t.pool ~key:id true;
    set_state job Protocol.Running;
    Protocol.ok [ ("job", Json.String id) ]
  | Some job ->
    Protocol.error
      (Printf.sprintf "job %S is %s, not paused" id
         (Protocol.job_state_to_string job.state))
  | None -> revive t id

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Protocol.error (Printf.sprintf "no such job %S" id)
  | Some job when Protocol.job_state_terminal job.state ->
    Protocol.error
      (Printf.sprintf "job %S already %s" id
         (Protocol.job_state_to_string job.state))
  | Some job ->
    Pool.remove t.pool ~key:id;
    (* revoke outstanding leases: any result still in flight arrives stale *)
    List.iter
      (fun (g : Lease.grant) -> release_slot t g.Lease.worker)
      (Lease.drop_job t.leases ~job:id);
    set_state job Protocol.Cancelled;
    Telemetry.flush job.tel;
    Protocol.ok [ ("job", Json.String id) ]

let watch t c id from =
  match Hashtbl.find_opt t.jobs id with
  | None -> conn_send_json c (Protocol.error (Printf.sprintf "no such job %S" id))
  | Some job ->
    conn_send_json c
      (Protocol.ok
         [
           ("job", Json.String id);
           ("backlog", Json.Int job.backlog_len);
           ("state", Json.String (Protocol.job_state_to_string job.state));
         ]);
    (* replay the backlog from [from], oldest first, then subscribe for the
       live tail — catch-up and live delivery use the same lines, so every
       subscriber sees the same stream *)
    let backlog = List.rev job.backlog_rev in
    List.iteri (fun i line -> if i >= from then conn_send c line) backlog;
    if not (Protocol.job_state_terminal job.state) then (
      c.subscriber <- true;  (* read-only from here on: exempt from idle *)
      job.subscribers <- c :: job.subscribers)

let handle_request t c = function
  | Protocol.Hello proto ->
    if proto > Protocol.version then (
      conn_send_json c
        (Protocol.error
           (Printf.sprintf "client protocol %d is newer than this server (%d)"
              proto Protocol.version));
      c.closed <- true)
    else conn_send_json c (Protocol.ok [ ("proto", Json.Int Protocol.version) ])
  | Protocol.Submit spec -> conn_send_json c (submit t spec)
  | Protocol.Jobs ->
    let views =
      t.order
      |> List.filter_map (fun id -> Hashtbl.find_opt t.jobs id)
      |> List.map (fun j -> Protocol.job_view_to_json (job_view j))
    in
    conn_send_json c (Protocol.ok [ ("jobs", Json.List views) ])
  | Protocol.Watch { job; from } -> watch t c job from
  | Protocol.Pause id -> conn_send_json c (pause t id)
  | Protocol.Resume_job id -> conn_send_json c (resume_job t id)
  | Protocol.Cancel id -> conn_send_json c (cancel t id)
  | Protocol.Metrics id -> (
    match Hashtbl.find_opt t.jobs id with
    | None -> conn_send_json c (Protocol.error (Printf.sprintf "no job %S" id))
    | Some job -> (
      match job.merge with
      | None ->
        conn_send_json c
          (Protocol.error (Printf.sprintf "job %S has no merged state yet" id))
      | Some merge ->
        (* the snapshot is read on the main domain — the merge owner — so it
           is exactly the state the last shard barrier left behind *)
        let a = Merge.analytics_snapshot merge in
        conn_send_json c
          (Protocol.ok
             [
               ("job", Json.String id);
               ("analytics", O4a_analytics.Analytics.to_json a);
               ( "prometheus",
                 Json.String (O4a_analytics.Analytics.to_prometheus a) );
             ])))
  | Protocol.Worker_register { slots } -> (
    match c.worker with
    | Some _ ->
      conn_send_json c
        (Protocol.error "connection already registered as a worker pool")
    | None ->
      c.worker <- Some { w_slots = slots; w_inflight = 0 };
      Log.info (fun m -> m "worker pool conn#%d joined (%d slots)" c.id slots);
      conn_send_json c
        (Protocol.ok [ ("worker", Json.Int c.id); ("slots", Json.Int slots) ]);
      dispatch_remote t)
  | Protocol.Worker_heartbeat { leases } -> (
    match c.worker with
    | None -> conn_send_json c (Protocol.error "not a registered worker pool")
    | Some _ ->
      Lease.heartbeat t.leases ~now:(Unix.gettimeofday ()) ~worker:c.id ~leases)
  | Protocol.Worker_result { lease; outcome } -> (
    match c.worker with
    | None -> conn_send_json c (Protocol.error "not a registered worker pool")
    | Some w -> (
      match Lease.complete t.leases ~lease with
      | None ->
        (* Stale: the lease expired, was revoked as a duplicate's sibling,
           or belonged to a previous connection. Its shard is (or will be)
           settled by the replacement lease, and the slot was already
           released when the lease left the table — merging this result
           would double-count, so it is dropped on the floor. *)
        Log.debug (fun m -> m "stale result for lease %d dropped" lease)
      | Some (g, siblings) -> (
        w.w_inflight <- max 0 (w.w_inflight - 1);
        (match Hashtbl.find_opt t.jobs g.Lease.job with
        | None -> ()
        | Some job ->
          List.iter
            (fun (s : Lease.grant) ->
              release_slot t s.Lease.worker;
              lease_event job
                [
                  ("event", Json.String "lease.stale_result");
                  ("lease", Json.Int s.Lease.lease);
                  ("shard", Json.Int s.Lease.shard.Shard.index);
                ])
            siblings);
        match Wire.outcome_of_json outcome with
        | Error msg ->
          (* a worker that ships garbage forfeits the shard like an expiry *)
          Log.warn (fun m -> m "malformed result for lease %d: %s" lease msg);
          requeue_shard t g
        | Ok oc ->
          (match Hashtbl.find_opt t.jobs g.Lease.job with
          | None -> ()
          | Some job ->
            lease_event job
              [
                ("event", Json.String "lease.completed");
                ("lease", Json.Int g.Lease.lease);
                ("shard", Json.Int g.Lease.shard.Shard.index);
                ("worker", Json.Int g.Lease.worker);
              ]);
          merge_result t (g.Lease.job, g.Lease.shard, oc);
          dispatch_remote t)))
  | Protocol.Shutdown ->
    Log.info (fun m -> m "shutdown requested; draining");
    conn_send_json c (Protocol.ok [ ("draining", Json.Bool true) ]);
    Pool.stop t.pool

let process_line t c line =
  if String.trim line <> "" then (
    match Result.bind (Json.parse line) Protocol.request_of_json with
    | Error msg -> conn_send_json c (Protocol.error msg)
    | Ok req ->
      (* any well-formed request completes the handshake — the deadline is
         there to shed dead and garbage-spewing peers, not to police the
         order of first requests *)
      c.hello_ok <- true;
      handle_request t c req)

let handle_readable t c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> c.closed <- true
  | 0 -> c.closed <- true
  | n -> (
    c.last_activity <- Unix.gettimeofday ();
    match Framing.feed c.fr (Bytes.sub_string buf 0 n) with
    | Ok lines ->
      List.iter (fun line -> if not c.closed then process_line t c line) lines
    | Error err ->
      (* the inbound mirror of [max_out]: a peer that streams an unbounded
         line gets a typed error and the boot, not an unbounded buffer *)
      conn_send_json c
        (Protocol.error_coded ~code:Protocol.code_line_too_long
           (Framing.error_to_string err));
      c.closed <- true)

(* ------------------------------------------------------------------ *)
(* The server loop                                                     *)
(* ------------------------------------------------------------------ *)

let accept_conn t listen_fd =
  match Unix.accept listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | fd, _ ->
    Unix.set_nonblock fd;
    let now = Unix.gettimeofday () in
    let c =
      {
        id = t.next_conn;
        fd;
        fr = Framing.create ();
        created = now;
        last_activity = now;
        hello_ok = false;
        subscriber = false;
        worker = None;
        out = "";
        closed = false;
      }
    in
    t.next_conn <- t.next_conn + 1;
    (* versioned hello header, first line on every connection *)
    conn_send_json c Protocol.hello;
    t.conns <- c :: t.conns

let close_conn c =
  c.closed <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let prune_conns t =
  let closed, live = List.partition (fun c -> c.closed) t.conns in
  t.conns <- live;
  List.iter
    (fun c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      (* a dropped worker connection forfeits its leases immediately — no
         need to wait out the heartbeat deadline when the transport already
         told us the pool is gone *)
      if c.worker <> None then (
        Log.info (fun m -> m "worker pool conn#%d lost" c.id);
        List.iter
          (reassign t ~reason:"lease.worker_lost")
          (Lease.drop_worker t.leases ~worker:c.id)))
    closed;
  if closed <> [] then dispatch_remote t

let create cfg =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () =
    try ignore (Unix.write_substring pipe_w "x" 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    -> ()
  in
  {
    cfg;
    (* pool 0 is legitimate: a coordinator-only daemon whose shards all run
       on remote worker pools *)
    pool = Pool.create ~workers:cfg.pool ~wake;
    pipe_r;
    pipe_w;
    jobs = Hashtbl.create 16;
    order = [];
    conns = [];
    next_conn = 1;
    leases = Lease.create ~timeout:cfg.lease_timeout;
  }

(* Bind the optional TCP listener. Port 0 asks the kernel for an ephemeral
   port; whatever was actually bound is written to [state_dir/tcp.port] so
   scripts (and tests) can find it without racing the log output. *)
let bind_tcp cfg =
  match cfg.tcp with
  | None -> Ok None
  | Some spec ->
    Result.bind (Addr.parse_tcp spec) (fun (host, port) ->
        Result.bind (Addr.resolve ~host ~port) (fun sockaddr ->
            let fd =
              Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
            in
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            match Unix.bind fd sockaddr with
            | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "cannot bind %s:%d: %s" host port
                   (Unix.error_message e))
            | () ->
              Unix.listen fd 16;
              Unix.set_nonblock fd;
              let actual =
                match Unix.getsockname fd with
                | Unix.ADDR_INET (_, p) -> p
                | _ -> port
              in
              Ok (Some (fd, host, actual))))

let rec run cfg =
  Bundle.ensure_dir cfg.state_dir;
  (* a subscriber vanishing mid-write must surface as EPIPE, not kill the
     daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Engine.prewarm ();
  match bind_tcp cfg with
  | Error msg ->
    Log.err (fun m -> m "%s" msg);
    prerr_endline ("once4all: " ^ msg);
    1
  | Ok tcp ->
    let t = create cfg in
    let port_file = Filename.concat cfg.state_dir "tcp.port" in
    (match tcp with
    | Some (_, host, port) ->
      write_file port_file (string_of_int port ^ "\n");
      Log.info (fun m -> m "TCP listener on %s:%d" host port)
    | None -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (if Sys.file_exists cfg.socket_path then
       try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen listen_fd 16;
    Unix.set_nonblock listen_fd;
    Log.info (fun m ->
        m "listening on %s (pool %d, state %s)" cfg.socket_path cfg.pool
          cfg.state_dir);
    let listeners =
      listen_fd :: (match tcp with Some (fd, _, _) -> [ fd ] | None -> [])
    in
    let rec loop () =
      if not (stopping t) then (
        let reads = listeners @ (t.pipe_r :: List.map (fun c -> c.fd) t.conns) in
        let writes =
          t.conns
          |> List.filter (fun c -> c.out <> "")
          |> List.map (fun c -> c.fd)
        in
        (match Unix.select reads writes [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, writable, _ ->
          if List.mem t.pipe_r readable then drain_pipe t;
          drain_results t;
          List.iter
            (fun c -> if List.mem c.fd writable then try_flush c)
            t.conns;
          List.iter
            (fun c -> if List.mem c.fd readable then handle_readable t c)
            t.conns;
          List.iter
            (fun lfd -> if List.mem lfd readable then accept_conn t lfd)
            listeners);
        let now = Unix.gettimeofday () in
        reap_conns t now;
        reap_leases t now;
        prune_conns t;
        dispatch_remote t;
        loop ())
    in
    loop ();
    finish t ~listeners ~port_file ~tcp

and finish t ~listeners ~port_file ~tcp =
  (* Graceful drain — same contract whether the trigger was SIGTERM
     ({!Orchestrator.Stop}) or a Shutdown request: local workers finish the
     shard they are executing and exit, every in-flight local result merges
     and checkpoints, and every live campaign lands paused with a resumable
     checkpoint on disk. Remote pools are told to drain; their in-flight
     shards are simply forfeited — the checkpoint records them as not done,
     so a revive re-runs them deterministically. *)
  List.iter
    (fun c ->
      if c.worker <> None && not c.closed then
        conn_send_json c (Protocol.worker_msg_to_json Protocol.Drain))
    t.conns;
  Pool.close t.pool;
  drain_pipe t;
  drain_results t;
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.jobs id with
      | Some job when not (Protocol.job_state_terminal job.state) ->
        (match job.merge with
        | Some merge -> Merge.checkpoint_now merge
        | None -> ());
        set_state job Protocol.Paused;
        Telemetry.flush job.tel;
        Log.info (fun m ->
            m "job %s drained at %d/%d shards; resumable from its checkpoint"
              job.id job.shards_done job.plan_total)
      | _ -> ())
    t.order;
  List.iter try_flush t.conns;
  List.iter close_conn t.conns;
  t.conns <- [];
  List.iter
    (fun lfd -> try Unix.close lfd with Unix.Unix_error _ -> ())
    listeners;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  (match tcp with
  | Some _ -> ( try Sys.remove port_file with Sys_error _ -> ())
  | None -> ());
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "server drained; exiting");
  0
