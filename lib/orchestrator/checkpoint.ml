module Json = O4a_telemetry.Json
module Coverage = O4a_coverage.Coverage
module Bug_db = Solver.Bug_db

type shard_result = {
  shard : int;
  tests : int;
  parse_ok : int;
  solved : int;
  bytes_total : int;
  findings : Once4all.Dedup.found list;
}

type quarantine = {
  q_shard : int;
  q_first_tick : int;
  q_ticks : int;
  q_attempts : int;
  q_sites : string list;
}

type artifacts = {
  a_telemetry : bool;
  a_trace : bool;
  a_analytics : bool;
}

let no_artifacts = { a_telemetry = false; a_trace = false; a_analytics = false }

type t = {
  seed : int;
  budget : int;
  shard_size : int;
  extra : (string * string) list;
  completed : shard_result list;
  quarantined : quarantine list;
  coverage : (string * int) list;
  health : O4a_health.Health.entry list;
  analytics : O4a_analytics.Analytics.t;
  artifacts : artifacts;
}

(* version 2 added the quarantine list; version 3 added the merged health
   ledger and the per-finding oracle mode; version 4 the analytics series
   and the observability-artifact flags. Older files still load: version 1
   gets an empty quarantine, versions 1-2 an empty health ledger and
   Differential findings, versions 1-3 an empty analytics series and
   all-false artifact flags. *)
let version = 4
let min_version = 1

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let finding_to_json (f : Once4all.Oracle.finding) =
  Json.Obj
    [
      ("kind", Json.String (Bug_db.kind_to_string f.kind));
      ("solver", Json.String (Coverage.tag_to_string f.solver));
      ("solver_name", Json.String f.solver_name);
      ("signature", Json.String f.signature);
      ( "bug_id",
        match f.bug_id with Some id -> Json.String id | None -> Json.Null );
      ("theory", Json.String f.theory);
      ("mode", Json.String (Once4all.Oracle.mode_to_string f.mode));
    ]

let found_to_json (f : Once4all.Dedup.found) =
  Json.Obj
    [
      ("finding", finding_to_json f.Once4all.Dedup.finding);
      ("source", Json.String f.Once4all.Dedup.source);
    ]

let shard_result_to_json r =
  Json.Obj
    [
      ("shard", Json.Int r.shard);
      ("tests", Json.Int r.tests);
      ("parse_ok", Json.Int r.parse_ok);
      ("solved", Json.Int r.solved);
      ("bytes_total", Json.Int r.bytes_total);
      ("findings", Json.List (List.map found_to_json r.findings));
    ]

let quarantine_to_json q =
  Json.Obj
    [
      ("shard", Json.Int q.q_shard);
      ("first_tick", Json.Int q.q_first_tick);
      ("ticks", Json.Int q.q_ticks);
      ("attempts", Json.Int q.q_attempts);
      ("sites", Json.List (List.map (fun s -> Json.String s) q.q_sites));
    ]

let to_json t =
  Json.Obj
    [
      ("version", Json.Int version);
      ("seed", Json.Int t.seed);
      ("budget", Json.Int t.budget);
      ("shard_size", Json.Int t.shard_size);
      ( "extra",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) t.extra) );
      ( "completed",
        Json.List
          (List.map shard_result_to_json
             (List.sort (fun a b -> compare a.shard b.shard) t.completed)) );
      ( "quarantined",
        Json.List
          (List.map quarantine_to_json
             (List.sort (fun a b -> compare a.q_shard b.q_shard) t.quarantined))
      );
      ( "coverage",
        Json.Obj (List.map (fun (k, c) -> (k, Json.Int c)) t.coverage) );
      ( "health",
        Json.List (List.map O4a_health.Health.entry_to_json t.health) );
      ("analytics", O4a_analytics.Analytics.to_json t.analytics);
      ( "artifacts",
        Json.Obj
          [
            ("telemetry", Json.Bool t.artifacts.a_telemetry);
            ("trace", Json.Bool t.artifacts.a_trace);
            ("analytics", Json.Bool t.artifacts.a_analytics);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

open Json.Decode

let req name = req "checkpoint" name
let list_field name = list_field "checkpoint" name
let obj_field name = obj_field "checkpoint" name

let finding_of_json json =
  let* kind_s = req "kind" Json.to_str json in
  let* kind =
    match Bug_db.kind_of_string kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "checkpoint: unknown bug kind %S" kind_s)
  in
  let* solver_s = req "solver" Json.to_str json in
  let* solver =
    match Coverage.tag_of_string solver_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "checkpoint: unknown solver %S" solver_s)
  in
  let* solver_name = req "solver_name" Json.to_str json in
  let* signature = req "signature" Json.to_str json in
  let bug_id = Option.bind (Json.member "bug_id" json) Json.to_str in
  let* theory = req "theory" Json.to_str json in
  (* pre-v3 findings carry no mode; they were all full differential runs *)
  let* mode =
    match Json.member "mode" json with
    | None -> Ok Once4all.Oracle.Differential
    | Some j -> (
      match Option.bind (Json.to_str j) Once4all.Oracle.mode_of_string with
      | Some m -> Ok m
      | None -> Error "checkpoint: invalid finding mode")
  in
  Ok
    {
      Once4all.Oracle.kind;
      solver;
      solver_name;
      signature;
      bug_id;
      theory;
      mode;
    }

let found_of_json json =
  let* finding_json =
    match Json.member "finding" json with
    | Some j -> Ok j
    | None -> Error "checkpoint: missing field \"finding\""
  in
  let* finding = finding_of_json finding_json in
  let* source = req "source" Json.to_str json in
  Ok { Once4all.Dedup.finding; source }

let shard_result_of_json json =
  let* shard = req "shard" Json.to_int json in
  let* tests = req "tests" Json.to_int json in
  let* parse_ok = req "parse_ok" Json.to_int json in
  let* solved = req "solved" Json.to_int json in
  let* bytes_total = req "bytes_total" Json.to_int json in
  let* findings_json = list_field "findings" json in
  let* findings = map_result found_of_json findings_json in
  Ok { shard; tests; parse_ok; solved; bytes_total; findings }

let quarantine_of_json json =
  let* q_shard = req "shard" Json.to_int json in
  let* q_first_tick = req "first_tick" Json.to_int json in
  let* q_ticks = req "ticks" Json.to_int json in
  let* q_attempts = req "attempts" Json.to_int json in
  let* sites_json = list_field "sites" json in
  let* q_sites =
    map_result
      (fun s ->
        match Json.to_str s with
        | Some s -> Ok s
        | None -> Error "checkpoint: quarantine site not a string")
      sites_json
  in
  Ok { q_shard; q_first_tick; q_ticks; q_attempts; q_sites }

let of_json json =
  let* v = req "version" Json.to_int json in
  let* () =
    if v >= min_version && v <= version then Ok ()
    else Error (Printf.sprintf "checkpoint: unsupported version %d" v)
  in
  let* seed = req "seed" Json.to_int json in
  let* budget = req "budget" Json.to_int json in
  let* shard_size = req "shard_size" Json.to_int json in
  let* extra_kvs = obj_field "extra" json in
  let* extra =
    map_result
      (fun (k, v) ->
        match Json.to_str v with
        | Some s -> Ok (k, s)
        | None -> Error (Printf.sprintf "checkpoint: extra field %S not a string" k))
      extra_kvs
  in
  let* completed_json = list_field "completed" json in
  let* completed = map_result shard_result_of_json completed_json in
  let* quarantined =
    match Json.member "quarantined" json with
    | None -> Ok [] (* version 1 *)
    | Some (Json.List l) -> map_result quarantine_of_json l
    | Some _ -> invalid "checkpoint" "quarantined"
  in
  let* coverage_kvs = obj_field "coverage" json in
  let* coverage =
    map_result
      (fun (k, v) ->
        match Json.to_int v with
        | Some c -> Ok (k, c)
        | None -> Error (Printf.sprintf "checkpoint: coverage count for %S not an int" k))
      coverage_kvs
  in
  let* health =
    match Json.member "health" json with
    | None -> Ok [] (* versions 1-2: no health ledger yet *)
    | Some (Json.List l) -> map_result O4a_health.Health.entry_of_json l
    | Some _ -> invalid "checkpoint" "health"
  in
  let* analytics =
    match Json.member "analytics" json with
    | None -> Ok O4a_analytics.Analytics.empty (* versions 1-3 *)
    | Some j -> O4a_analytics.Analytics.of_json j
  in
  let* artifacts =
    match Json.member "artifacts" json with
    | None -> Ok no_artifacts (* versions 1-3 *)
    | Some j ->
      let flag name =
        match Option.bind (Json.member name j) Json.to_bool with
        | Some b -> b
        | None -> false
      in
      Ok
        {
          a_telemetry = flag "telemetry";
          a_trace = flag "trace";
          a_analytics = flag "analytics";
        }
  in
  Ok
    { seed; budget; shard_size; extra; completed; quarantined; coverage;
      health; analytics; artifacts }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save ~path t =
  (* write-then-rename so a crash mid-write never leaves a torn checkpoint *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n');
  Sys.rename tmp path

type load_error =
  | Io of string
  | Corrupt of { offset : int; reason : string }
  | Invalid of string

let load_error_to_string ~path = function
  | Io msg -> Printf.sprintf "cannot read checkpoint %s: %s" path msg
  | Corrupt { offset; reason } ->
    Printf.sprintf
      "checkpoint %s is truncated or corrupted: %s at byte offset %d\n\
       (likely a torn write from a crash mid-save; delete the file or restore \
       a backup, then re-run)"
      path reason offset
  | Invalid msg -> Printf.sprintf "checkpoint %s is not usable: %s" path msg

type info = { i_version : int; i_checkpoint : t }

let inspect ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | contents -> (
    match Json.parse_located contents with
    | Error (offset, reason) -> Error (Corrupt { offset; reason })
    | Ok json -> (
      match of_json json with
      | Ok t ->
        (* of_json validated the version's presence and range already *)
        let i_version =
          match Option.bind (Json.member "version" json) Json.to_int with
          | Some v -> v
          | None -> version
        in
        Ok { i_version; i_checkpoint = t }
      | Error msg -> Error (Invalid msg)))

let load ~path = Result.map (fun i -> i.i_checkpoint) (inspect ~path)

let load_for_resume ~path ~seed ~budget ~shard_size =
  match load ~path with
  | Error err -> Error (load_error_to_string ~path err)
  | Ok cp
    when cp.seed = seed && cp.budget = budget && cp.shard_size = shard_size ->
    Ok cp
  | Ok cp ->
    Error
      (Printf.sprintf
         "cannot resume from %s: checkpoint is for seed %d budget %d \
          shard-size %d, requested seed %d budget %d shard-size %d"
         path cp.seed cp.budget cp.shard_size seed budget shard_size)

(* The shards a checkpoint already covers — completed or quarantined — must
   not re-run: a resumed report would otherwise diverge from the
   uninterrupted run's. *)
let remaining ~plan base =
  match base with
  | None -> plan
  | Some cp ->
    let covered =
      List.map (fun r -> r.shard) cp.completed
      @ List.map (fun q -> q.q_shard) cp.quarantined
    in
    List.filter (fun (s : Shard.t) -> not (List.mem s.Shard.index covered)) plan
