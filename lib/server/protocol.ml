module Json = O4a_telemetry.Json
module Event = O4a_telemetry.Event

let version = 1

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

(* Mirrors the telemetry schema-header convention: the first line on every
   accepted connection declares the wire versions, and clients refuse to talk
   to a server whose protocol is newer than they understand rather than
   misparse it. *)
let hello_event = "server.hello"

let hello =
  Json.Obj
    [
      ("event", Json.String hello_event);
      ("proto", Json.Int version);
      ("schema", Json.Int Event.schema_version);
    ]

let check_hello json =
  match
    ( Option.bind (Json.member "event" json) Json.to_str,
      Option.bind (Json.member "proto" json) Json.to_int )
  with
  | Some ev, Some proto when ev = hello_event ->
    if proto > version then
      Error
        (Printf.sprintf
           "server speaks protocol %d, newer than this client understands \
            (%d); refusing to misparse it"
           proto version)
    else Ok proto
  | _ -> Error "not a once4all server (no hello header on connect)"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of int
  | Submit of Jobspec.t
  | Jobs
  | Watch of { job : string; from : int }
  | Pause of string
  | Resume_job of string
  | Cancel of string
  | Metrics of string
  | Shutdown
  | Worker_register of { slots : int }
  | Worker_heartbeat of { leases : int list }
  | Worker_result of { lease : int; outcome : Json.t }

let request_to_json = function
  | Hello proto ->
    Json.Obj [ ("req", Json.String "hello"); ("proto", Json.Int proto) ]
  | Submit spec ->
    Json.Obj [ ("req", Json.String "submit"); ("spec", Jobspec.to_json spec) ]
  | Jobs -> Json.Obj [ ("req", Json.String "jobs") ]
  | Watch { job; from } ->
    Json.Obj
      [
        ("req", Json.String "watch");
        ("job", Json.String job);
        ("from", Json.Int from);
      ]
  | Pause job ->
    Json.Obj [ ("req", Json.String "pause"); ("job", Json.String job) ]
  | Resume_job job ->
    Json.Obj [ ("req", Json.String "resume"); ("job", Json.String job) ]
  | Cancel job ->
    Json.Obj [ ("req", Json.String "cancel"); ("job", Json.String job) ]
  | Metrics job ->
    Json.Obj [ ("req", Json.String "metrics"); ("job", Json.String job) ]
  | Shutdown -> Json.Obj [ ("req", Json.String "shutdown") ]
  | Worker_register { slots } ->
    Json.Obj [ ("req", Json.String "worker"); ("slots", Json.Int slots) ]
  | Worker_heartbeat { leases } ->
    Json.Obj
      [
        ("req", Json.String "heartbeat");
        ("leases", Json.List (List.map (fun l -> Json.Int l) leases));
      ]
  | Worker_result { lease; outcome } ->
    Json.Obj
      [
        ("req", Json.String "result");
        ("lease", Json.Int lease);
        ("outcome", outcome);
      ]

let job_field = Json.Decode.req "request" "job" Json.to_str

let request_of_json json =
  match Option.bind (Json.member "req" json) Json.to_str with
  | None -> Error "request: missing or invalid field \"req\""
  | Some "hello" -> (
    match Option.bind (Json.member "proto" json) Json.to_int with
    | Some p -> Ok (Hello p)
    | None -> Error "request: hello without a \"proto\" version")
  | Some "submit" -> (
    match Json.member "spec" json with
    | None -> Error "request: submit without a \"spec\" object"
    | Some spec_json ->
      Result.map (fun spec -> Submit spec) (Jobspec.of_json spec_json))
  | Some "jobs" -> Ok Jobs
  | Some "watch" ->
    Result.map
      (fun job ->
        let from =
          Option.value ~default:0
            (Option.bind (Json.member "from" json) Json.to_int)
        in
        Watch { job; from = max 0 from })
      (job_field json)
  | Some "pause" -> Result.map (fun j -> Pause j) (job_field json)
  | Some "resume" -> Result.map (fun j -> Resume_job j) (job_field json)
  | Some "cancel" -> Result.map (fun j -> Cancel j) (job_field json)
  | Some "metrics" -> Result.map (fun j -> Metrics j) (job_field json)
  | Some "shutdown" -> Ok Shutdown
  | Some "worker" ->
    let slots =
      Option.value ~default:1
        (Option.bind (Json.member "slots" json) Json.to_int)
    in
    if slots < 1 then Error "request: worker registration needs slots >= 1"
    else Ok (Worker_register { slots })
  | Some "heartbeat" -> (
    match Json.member "leases" json with
    | Some (Json.List ls) ->
      let leases = List.filter_map Json.to_int ls in
      Ok (Worker_heartbeat { leases })
    | None -> Ok (Worker_heartbeat { leases = [] })
    | Some _ -> Error "request: heartbeat \"leases\" must be a list")
  | Some "result" -> (
    match
      ( Option.bind (Json.member "lease" json) Json.to_int,
        Json.member "outcome" json )
    with
    | Some lease, Some outcome -> Ok (Worker_result { lease; outcome })
    | _ -> Error "request: result needs \"lease\" and \"outcome\"")
  | Some other -> Error (Printf.sprintf "request: unknown verb %S" other)

(* ------------------------------------------------------------------ *)
(* Job views                                                           *)
(* ------------------------------------------------------------------ *)

type job_state =
  | Queued
  | Running
  | Paused
  | Done
  | Failed of string
  | Cancelled

let job_state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Paused -> "paused"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let job_state_terminal = function
  | Done | Failed _ | Cancelled -> true
  | Queued | Running | Paused -> false

type job_view = {
  v_id : string;
  v_name : string;
  v_state : job_state;
  v_shards_done : int;
  v_shards_total : int;
  v_findings : int;
  v_quota : int;
}

let job_view_to_json v =
  Json.Obj
    ([
       ("id", Json.String v.v_id);
       ("name", Json.String v.v_name);
       ("state", Json.String (job_state_to_string v.v_state));
       ("shards_done", Json.Int v.v_shards_done);
       ("shards_total", Json.Int v.v_shards_total);
       ("findings", Json.Int v.v_findings);
       ("quota", Json.Int v.v_quota);
     ]
    @ match v.v_state with Failed msg -> [ ("error", Json.String msg) ] | _ -> [])

let job_view_of_json json =
  let str k = Option.bind (Json.member k json) Json.to_str in
  let int k =
    Option.value ~default:0 (Option.bind (Json.member k json) Json.to_int)
  in
  match (str "id", str "name", str "state") with
  | Some v_id, Some v_name, Some state ->
    let v_state =
      match state with
      | "queued" -> Ok Queued
      | "running" -> Ok Running
      | "paused" -> Ok Paused
      | "done" -> Ok Done
      | "cancelled" -> Ok Cancelled
      | "failed" ->
        Ok (Failed (Option.value ~default:"unknown failure" (str "error")))
      | other -> Error (Printf.sprintf "job view: unknown state %S" other)
    in
    Result.map
      (fun v_state ->
        {
          v_id;
          v_name;
          v_state;
          v_shards_done = int "shards_done";
          v_shards_total = int "shards_total";
          v_findings = int "findings";
          v_quota = int "quota";
        })
      v_state
  | _ -> Error "job view: missing id/name/state"

(* ------------------------------------------------------------------ *)
(* Replies and stream lines                                            *)
(* ------------------------------------------------------------------ *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

(* typed errors carry a machine-readable code next to the prose, so clients
   (and tests) can distinguish e.g. an oversized-line disconnect from a
   malformed request without parsing English *)
let error_coded ~code msg =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("code", Json.String code);
      ("error", Json.String msg);
    ]

let code_line_too_long = "line_too_long"
let code_handshake_timeout = "handshake_timeout"
let code_idle_timeout = "idle_timeout"

let error_code json = Option.bind (Json.member "code" json) Json.to_str

let reply_error json =
  match Option.bind (Json.member "ok" json) Json.to_bool with
  | Some true -> None
  | _ ->
    Some
      (Option.value ~default:"malformed reply from server"
         (Option.bind (Json.member "error" json) Json.to_str))

let stream_line ~job ~kind data =
  Json.Obj [ ("job", Json.String job); ("kind", Json.String kind); ("data", data) ]

(* ------------------------------------------------------------------ *)
(* Coordinator -> worker push messages                                  *)
(* ------------------------------------------------------------------ *)

(* Replies carry an ["ok"] field and pushes a ["msg"] field, so the two can
   share a registered worker's connection without ambiguity. *)

module Shard = Orchestrator.Shard

let shard_to_json (s : Shard.t) =
  Json.Obj
    [
      ("index", Json.Int s.Shard.index);
      ("first_tick", Json.Int s.Shard.first_tick);
      ("ticks", Json.Int s.Shard.ticks);
    ]

let shard_of_json json =
  match
    ( Option.bind (Json.member "index" json) Json.to_int,
      Option.bind (Json.member "first_tick" json) Json.to_int,
      Option.bind (Json.member "ticks" json) Json.to_int )
  with
  | Some index, Some first_tick, Some ticks ->
    Ok { Shard.index; first_tick; ticks }
  | _ -> Error "shard: missing index/first_tick/ticks"

type worker_msg =
  | Grant of {
      lease : int;
      job : string;
      grant_attempt : int;
      shard : Shard.t;
      spec : Jobspec.t;
    }
  | Drain

let worker_msg_to_json = function
  | Grant { lease; job; grant_attempt; shard; spec } ->
    Json.Obj
      [
        ("msg", Json.String "grant");
        ("lease", Json.Int lease);
        ("job", Json.String job);
        ("attempt", Json.Int grant_attempt);
        ("shard", shard_to_json shard);
        ("spec", Jobspec.to_json spec);
      ]
  | Drain -> Json.Obj [ ("msg", Json.String "drain") ]

let worker_msg_of_json json =
  match Option.bind (Json.member "msg" json) Json.to_str with
  | None -> Error "worker message: missing field \"msg\""
  | Some "drain" -> Ok Drain
  | Some "grant" -> (
    match
      ( Option.bind (Json.member "lease" json) Json.to_int,
        Option.bind (Json.member "job" json) Json.to_str,
        Json.member "shard" json,
        Json.member "spec" json )
    with
    | Some lease, Some job, Some shard_json, Some spec_json ->
      Result.bind (shard_of_json shard_json) (fun shard ->
          Result.map
            (fun spec ->
              Grant
                {
                  lease;
                  job;
                  grant_attempt =
                    Option.value ~default:0
                      (Option.bind (Json.member "attempt" json) Json.to_int);
                  shard;
                  spec;
                })
            (Jobspec.of_json spec_json))
    | _ -> Error "worker message: grant needs lease/job/shard/spec")
  | Some other -> Error (Printf.sprintf "worker message: unknown kind %S" other)
