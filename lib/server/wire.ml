module Json = O4a_telemetry.Json
module Event = O4a_telemetry.Event
module Metrics = O4a_telemetry.Metrics
module Trace = O4a_trace.Trace
module Health = O4a_health.Health
module Profile = O4a_profile.Profile
module Analytics = O4a_analytics.Analytics
module Faults = O4a_faults.Faults
module Checkpoint = Orchestrator.Checkpoint

(* Wire codecs for a complete shard outcome — what a remote worker streams
   back to the coordinator. Everything a {!Orchestrator.Merge.t} absorbs must
   round-trip losslessly: the merged report, bundles, telemetry, and
   analytics are byte-compared against the standalone run, so a codec that
   drops so much as a histogram bucket would break the identity. Wherever a
   subsystem already persists the value (checkpoints, telemetry logs, trace
   bundles, profiles) its codec is reused; the only encoding defined here is
   the one no file format needed before: full metric entries (the telemetry
   log's histogram rendering is a lossy sum/count summary). *)

open Json.Decode

let req name = req "wire" name
let list_field name = list_field "wire" name

(* ------------------------------------------------------------------ *)
(* Metric entries (lossless, unlike the telemetry log's summary form)   *)
(* ------------------------------------------------------------------ *)

let metric_entry_to_json (e : Metrics.entry) =
  let value =
    match e.Metrics.value with
    | Metrics.Counter n -> [ ("counter", Json.Int n) ]
    | Metrics.Gauge v -> [ ("gauge", Json.Float v) ]
    | Metrics.Histogram h ->
      [
        ( "histogram",
          Json.Obj
            [
              ( "bounds",
                Json.List
                  (List.map (fun b -> Json.Float b) (Array.to_list h.Metrics.bounds)) );
              ( "counts",
                Json.List
                  (List.map (fun c -> Json.Int c) (Array.to_list h.Metrics.counts)) );
              ("sum", Json.Float h.Metrics.sum);
              ("count", Json.Int h.Metrics.count);
            ] );
      ]
  in
  Json.Obj
    ([
       ("name", Json.String e.Metrics.name);
       ( "labels",
         Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.Metrics.labels) );
     ]
    @ value)

let metric_entry_of_json json =
  let* name = req "name" Json.to_str json in
  let* labels =
    match Json.member "labels" json with
    | Some (Json.Obj kvs) ->
      map_result
        (fun (k, v) ->
          match Json.to_str v with
          | Some s -> Ok (k, s)
          | None -> Error (Printf.sprintf "wire: label %S not a string" k))
        kvs
    | _ -> Error "wire: metric entry without a \"labels\" object"
  in
  let* value =
    match
      ( Json.member "counter" json,
        Json.member "gauge" json,
        Json.member "histogram" json )
    with
    | Some c, _, _ -> (
      match Json.to_int c with
      | Some n -> Ok (Metrics.Counter n)
      | None -> Error "wire: counter value not an int")
    | _, Some g, _ -> (
      match Json.to_float g with
      | Some v -> Ok (Metrics.Gauge v)
      | None -> Error "wire: gauge value not a number")
    | _, _, Some h ->
      let* bounds = list_field "bounds" h in
      let* bounds =
        map_result
          (fun b ->
            match Json.to_float b with
            | Some f -> Ok f
            | None -> Error "wire: histogram bound not a number")
          bounds
      in
      let* counts = list_field "counts" h in
      let* counts =
        map_result
          (fun c ->
            match Json.to_int c with
            | Some n -> Ok n
            | None -> Error "wire: histogram count not an int")
          counts
      in
      let* sum = req "sum" Json.to_float h in
      let* count = req "count" Json.to_int h in
      Ok
        (Metrics.Histogram
           {
             Metrics.bounds = Array.of_list bounds;
             counts = Array.of_list counts;
             sum;
             count;
           })
    | None, None, None -> Error "wire: metric entry without a value"
  in
  Ok { Metrics.name; labels; value }

(* ------------------------------------------------------------------ *)
(* Shard payloads                                                      *)
(* ------------------------------------------------------------------ *)

let payload_to_json (p : Orchestrator.shard_payload) =
  Json.Obj
    [
      ("sr", Checkpoint.shard_result_to_json p.Orchestrator.sr);
      ("events", Json.List (List.map Event.to_json p.Orchestrator.events));
      ( "metrics",
        Json.List (List.map metric_entry_to_json p.Orchestrator.metric_entries)
      );
      ( "coverage",
        Json.Obj
          (List.map (fun (k, c) -> (k, Json.Int c)) p.Orchestrator.cov_export)
      );
      ( "promoted",
        Json.List (List.map Trace.promoted_to_json p.Orchestrator.promoted) );
      ( "health",
        Json.List (List.map Health.entry_to_json p.Orchestrator.health_export)
      );
      ("profile", Profile.to_json p.Orchestrator.profile_export);
      ("analytics", Analytics.to_json p.Orchestrator.analytics_export);
    ]

let payload_of_json json =
  let* sr =
    match Json.member "sr" json with
    | Some j -> Checkpoint.shard_result_of_json j
    | None -> Error "wire: payload missing \"sr\""
  in
  let* events = list_field "events" json in
  let* events = map_result Event.of_json events in
  let* metric_entries = list_field "metrics" json in
  let* metric_entries = map_result metric_entry_of_json metric_entries in
  let* cov_export =
    match Json.member "coverage" json with
    | Some (Json.Obj kvs) ->
      map_result
        (fun (k, v) ->
          match Json.to_int v with
          | Some c -> Ok (k, c)
          | None -> Error (Printf.sprintf "wire: coverage count %S not an int" k))
        kvs
    | _ -> Error "wire: payload missing \"coverage\""
  in
  let* promoted = list_field "promoted" json in
  let* promoted = map_result Trace.promoted_of_json promoted in
  let* health_export = list_field "health" json in
  let* health_export = map_result Health.entry_of_json health_export in
  let* profile_export =
    match Json.member "profile" json with
    | Some j -> Profile.of_json j
    | None -> Error "wire: payload missing \"profile\""
  in
  let* analytics_export =
    match Json.member "analytics" json with
    | Some j -> Analytics.of_json j
    | None -> Error "wire: payload missing \"analytics\""
  in
  Ok
    {
      Orchestrator.sr;
      events;
      metric_entries;
      cov_export;
      promoted;
      health_export;
      profile_export;
      analytics_export;
    }

(* ------------------------------------------------------------------ *)
(* Attempt logs and outcomes                                            *)
(* ------------------------------------------------------------------ *)

let attempt_log_to_json (l : Orchestrator.attempt_log) =
  Json.Obj
    [
      ("attempt", Json.Int l.Orchestrator.attempt);
      ( "fired",
        Json.List
          (List.map
             (fun s -> Json.String (Faults.site_name s))
             l.Orchestrator.fired) );
    ]

let site_of_json j =
  match Option.bind (Json.to_str j) Faults.site_of_name with
  | Some s -> Ok s
  | None -> Error "wire: unknown fault site"

let attempt_log_of_json json =
  let* attempt = req "attempt" Json.to_int json in
  let* fired = list_field "fired" json in
  let* fired = map_result site_of_json fired in
  Ok { Orchestrator.attempt; fired }

let outcome_to_json (o : Orchestrator.shard_outcome) =
  match o with
  | Orchestrator.Merged (payload, retries, fired) ->
    Json.Obj
      [
        ("outcome", Json.String "merged");
        ("payload", payload_to_json payload);
        ("retries", Json.List (List.map attempt_log_to_json retries));
        ( "fired",
          Json.List
            (List.map (fun s -> Json.String (Faults.site_name s)) fired) );
      ]
  | Orchestrator.Quarantined logs ->
    Json.Obj
      [
        ("outcome", Json.String "quarantined");
        ("attempts", Json.List (List.map attempt_log_to_json logs));
      ]
  | Orchestrator.Failed msg ->
    Json.Obj [ ("outcome", Json.String "failed"); ("error", Json.String msg) ]

let outcome_of_json json =
  let* kind = req "outcome" Json.to_str json in
  match kind with
  | "merged" ->
    let* payload =
      match Json.member "payload" json with
      | Some j -> payload_of_json j
      | None -> Error "wire: merged outcome missing \"payload\""
    in
    let* retries = list_field "retries" json in
    let* retries = map_result attempt_log_of_json retries in
    let* fired = list_field "fired" json in
    let* fired = map_result site_of_json fired in
    Ok (Orchestrator.Merged (payload, retries, fired))
  | "quarantined" ->
    let* logs = list_field "attempts" json in
    let* logs = map_result attempt_log_of_json logs in
    Ok (Orchestrator.Quarantined logs)
  | "failed" ->
    let* msg = req "error" Json.to_str json in
    Ok (Orchestrator.Failed msg)
  | other -> Error (Printf.sprintf "wire: unknown outcome kind %S" other)
