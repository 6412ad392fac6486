module Shard = Orchestrator.Shard
module Checkpoint = Orchestrator.Checkpoint
module Campaign = Once4all.Campaign
module Dedup = Once4all.Dedup
module Oracle = Once4all.Oracle
module Fuzz = Once4all.Fuzz
module Bug_db = Solver.Bug_db
module Coverage = O4a_coverage.Coverage
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* shared engines and generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

let run ?jobs ?telemetry ?checkpoint_path ?resume ?stop_after ?trace_dir
    ?chaos ?health ?on_progress ?(budget = 300) ?(shard_size = 60) () =
  Orchestrator.run ?jobs ?telemetry ?checkpoint_path ?resume ?stop_after
    ?trace_dir ?chaos ?health ?on_progress ~shard_size ~seed:91 ~budget
    ~generators:(generators ()) ~seeds:(Lazy.force seed_pool) ()

let report_key (r : Orchestrator.report) =
  ( r.Orchestrator.stats.Fuzz.tests,
    r.Orchestrator.stats.Fuzz.parse_ok,
    r.Orchestrator.stats.Fuzz.solved,
    List.map (fun c -> (c.Dedup.key, c.Dedup.count)) r.Orchestrator.clusters,
    r.Orchestrator.found_bug_ids,
    r.Orchestrator.coverage,
    r.Orchestrator.health )

(* ------------------------- shard plan ------------------------- *)

let test_plan_covers_budget () =
  let shards = Shard.plan ~budget:600 ~shard_size:250 in
  check_int "three shards" 3 (List.length shards);
  check_bool "contiguous" true
    (List.map (fun s -> (s.Shard.index, s.Shard.first_tick, s.Shard.ticks)) shards
    = [ (0, 0, 250); (1, 250, 250); (2, 500, 100) ]);
  check_int "sums to budget" 600
    (List.fold_left (fun acc s -> acc + s.Shard.ticks) 0 shards)

let test_plan_edges () =
  check_bool "empty budget" true (Shard.plan ~budget:0 ~shard_size:10 = []);
  check_int "single short shard" 1 (List.length (Shard.plan ~budget:5 ~shard_size:10));
  check_bool "negative budget raises" true
    (match Shard.plan ~budget:(-1) ~shard_size:10 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "zero shard size raises" true
    (match Shard.plan ~budget:10 ~shard_size:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_shard_rng_depends_on_index_only () =
  let draw s = O4a_util.Rng.int (Shard.rng ~seed:7 s) 1_000_000 in
  let s1 = { Shard.index = 1; first_tick = 250; ticks = 250 } in
  let s1' = { Shard.index = 1; first_tick = 999; ticks = 3 } in
  let s2 = { Shard.index = 2; first_tick = 500; ticks = 100 } in
  check_bool "same index, same stream" true (draw s1 = draw s1');
  check_bool "different index, different stream" true (draw s1 <> draw s2)

(* ------------------------- determinism ------------------------- *)

let test_jobs_invariance () =
  let r1 = run ~jobs:1 () in
  let r4 = run ~jobs:4 () in
  check_int "budget honored" 300 r1.Orchestrator.stats.Fuzz.tests;
  check_bool "jobs:4 reproduces jobs:1 exactly" true
    (report_key r1 = report_key r4);
  check_bool "finds bugs at this budget" true (r1.Orchestrator.clusters <> [])

(* relative path -> file contents, for every regular file under [dir] *)
let dir_contents dir =
  let rec walk rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc entry ->
          walk (if rel = "" then entry else Filename.concat rel entry) acc)
        acc
        (let es = Sys.readdir abs in
         Array.sort compare es;
         es)
    else (rel, In_channel.with_open_bin abs In_channel.input_all) :: acc
  in
  List.rev (walk "" [])

let with_temp_dir f =
  let dir = Filename.temp_file "o4a_bundles" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_trace_bundles_jobs_invariant () =
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d4 ->
          let r1 = run ~jobs:1 ~trace_dir:d1 () in
          let r4 = run ~jobs:4 ~trace_dir:d4 () in
          check_bool "campaign finds bugs at this budget" true
            (r1.Orchestrator.bundles_written > 0);
          check_int "same bundle count" r1.Orchestrator.bundles_written
            r4.Orchestrator.bundles_written;
          check_int "one bundle per promoted trace"
            (List.length r1.Orchestrator.promoted)
            r1.Orchestrator.bundles_written;
          (* the tentpole acceptance bar: trace trees are byte-identical *)
          check_bool "jobs:4 bundle tree byte-identical to jobs:1" true
            (dir_contents d1 = dir_contents d4);
          (* promoted traces are merged in campaign tick order *)
          let ticks =
            List.map
              (fun (p : O4a_trace.Trace.promoted) ->
                p.O4a_trace.Trace.trace.O4a_trace.Trace.tick)
              r4.Orchestrator.promoted
          in
          check_bool "promotions in tick order" true
            (List.sort compare ticks = ticks)))

let test_matches_sequential_campaign () =
  (* the sharded jobs:1 pipeline is itself reproducible run-to-run *)
  let r1 = run ~jobs:1 () in
  let r2 = run ~jobs:1 () in
  check_bool "stable across runs" true (report_key r1 = report_key r2)

(* ------------------------- checkpoint codec ------------------------- *)

let sample_checkpoint () =
  let finding =
    {
      Dedup.finding =
        {
          Oracle.kind = Bug_db.Crash;
          solver = Coverage.Zeal;
          solver_name = "zeal-trunk";
          signature = "site_A";
          bug_id = Some "zeal-018";
          theory = "strings";
          mode = Oracle.Degraded "cove-trunk";
        };
      source = "(assert true)(check-sat)";
    }
  in
  {
    Checkpoint.seed = 91;
    budget = 300;
    shard_size = 60;
    extra = [ ("profile", "trunk"); ("cli_seed", "90") ];
    completed =
      [
        {
          Checkpoint.shard = 0;
          tests = 60;
          parse_ok = 55;
          solved = 40;
          bytes_total = 12345;
          findings = [ finding ];
        };
        {
          Checkpoint.shard = 1;
          tests = 60;
          parse_ok = 60;
          solved = 41;
          bytes_total = 9999;
          findings = [];
        };
      ];
    coverage = [ ("zeal|core.ml|solve|l|0", 17); ("cove|eval.ml|step|f|", 3) ];
    quarantined =
      [
        {
          Checkpoint.q_shard = 2;
          q_first_tick = 120;
          q_ticks = 60;
          q_attempts = 4;
          q_sites = [ "solver-crash"; "worker-death" ];
        };
      ];
    health =
      [
        {
          O4a_health.Health.e_solver = "zeal-trunk";
          e_theory = "strings";
          queries = 40;
          timeouts = 9;
          errors = 1;
          crashes = 0;
          fuel = 123_456;
          suppressed = 12;
          probes = 2;
          opened = 1;
          reclosed = 1;
        };
      ];
    analytics =
      {
        O4a_analytics.Analytics.samples =
          [
            {
              O4a_analytics.Analytics.bucket = 0;
              first_tick = 0;
              ticks = 60;
              tests = 60;
              parse_ok = 55;
              solved = 40;
              findings = 1;
              consults = 120;
              fuel = 9_000;
              cov_points =
                [ "cove|eval.ml|step|f|"; "zeal|core.ml|solve|l|0" ];
              clusters = [ "crash:site_A" ];
            };
          ];
        yield =
          [
            {
              O4a_analytics.Analytics.y_theory = "strings";
              y_profile = "gpt-4";
              y_seed_cluster = "ab12cd34";
              y_tests = 60;
              y_parse_ok = 55;
              y_findings = 1;
            };
          ];
      };
    artifacts =
      { Checkpoint.a_telemetry = true; a_trace = false; a_analytics = true };
  }

let test_checkpoint_json_roundtrip () =
  let cp = sample_checkpoint () in
  match Checkpoint.of_json (Checkpoint.to_json cp) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok cp' -> check_bool "round-trips" true (cp = cp')

let test_checkpoint_save_load () =
  let path = Filename.temp_file "o4a_checkpoint" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cp = sample_checkpoint () in
      Checkpoint.save ~path cp;
      (match Checkpoint.load ~path with
      | Error e ->
          Alcotest.fail
            ("load failed: " ^ Checkpoint.load_error_to_string ~path e)
      | Ok cp' -> check_bool "file round-trips" true (cp = cp'));
      check_bool "no tmp residue" false (Sys.file_exists (path ^ ".tmp")))

(* remove members that did not exist in an older checkpoint version, at any
   nesting depth (the "mode" member lives inside findings) *)
let rec strip_keys keys = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k keys then None else Some (k, strip_keys keys v))
           fields)
  | Json.List l -> Json.List (List.map (strip_keys keys) l)
  | j -> j

let set_version v = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, x) -> if k = "version" then (k, Json.Int v) else (k, x))
           fields)
  | j -> j

(* what an old file decodes to: no quarantine/health, all-differential
   findings *)
let downgrade_expected cp =
  {
    cp with
    Checkpoint.health = [];
    completed =
      List.map
        (fun (sr : Checkpoint.shard_result) ->
          {
            sr with
            Checkpoint.findings =
              List.map
                (fun (fd : Dedup.found) ->
                  {
                    fd with
                    Dedup.finding =
                      {
                        fd.Dedup.finding with
                        Oracle.mode = Oracle.Differential;
                      };
                  })
                sr.Checkpoint.findings;
          })
        cp.Checkpoint.completed;
  }

let test_checkpoint_reads_v1 () =
  (* a version-1 checkpoint (no "quarantined", "health", or per-finding
     "mode" members) still loads *)
  let cp =
    downgrade_expected
      { (sample_checkpoint ()) with Checkpoint.quarantined = [] }
  in
  let json =
    set_version 1
      (strip_keys [ "quarantined"; "health"; "mode" ]
         (Checkpoint.to_json (sample_checkpoint ())))
  in
  match Checkpoint.of_json json with
  | Error e -> Alcotest.fail ("v1 decode failed: " ^ e)
  | Ok cp' ->
      check_bool "v1 loads with empty quarantine and health" true
        ({ cp with Checkpoint.quarantined = [] } = cp')

let test_checkpoint_reads_v2 () =
  (* a version-2 checkpoint has quarantine but no health ledger and no
     per-finding oracle mode *)
  let cp = downgrade_expected (sample_checkpoint ()) in
  let json =
    set_version 2
      (strip_keys [ "health"; "mode" ]
         (Checkpoint.to_json (sample_checkpoint ())))
  in
  match Checkpoint.of_json json with
  | Error e -> Alcotest.fail ("v2 decode failed: " ^ e)
  | Ok cp' ->
      check_bool "v2 loads with empty health, differential findings" true
        (cp = cp')

let test_checkpoint_rejects_future_version () =
  let json = set_version 99 (Checkpoint.to_json (sample_checkpoint ())) in
  check_bool "future version refused" true
    (Result.is_error (Checkpoint.of_json json))

let test_checkpoint_load_truncated () =
  (* torn write: load must produce Corrupt with a byte offset, not crash *)
  let path = Filename.temp_file "o4a_checkpoint" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Checkpoint.save ~path (sample_checkpoint ());
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub whole 0 (String.length whole / 2)));
      match Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "truncated checkpoint loaded"
      | Error (Checkpoint.Corrupt { offset; reason }) ->
          check_bool "offset within file" true
            (offset >= 0 && offset <= String.length whole / 2);
          check_bool "reason non-empty" true (reason <> "");
          let msg =
            Checkpoint.load_error_to_string ~path
              (Checkpoint.Corrupt { offset; reason })
          in
          check_bool "diagnostic names the byte offset" true
            (let needle = Printf.sprintf "byte offset %d" offset in
             let nl = String.length needle and ml = String.length msg in
             let rec find i =
               i + nl <= ml && (String.sub msg i nl = needle || find (i + 1))
             in
             find 0)
      | Error e ->
          Alcotest.fail
            ("expected Corrupt, got: " ^ Checkpoint.load_error_to_string ~path e))

let test_checkpoint_rejects_garbage () =
  check_bool "not an object" true
    (Result.is_error (Checkpoint.of_json (Json.Int 3)));
  check_bool "missing fields" true
    (Result.is_error (Checkpoint.of_json (Json.Obj [ ("version", Json.Int 1) ])))

(* ------------------------- kill / resume ------------------------- *)

let test_stop_and_resume_round_trip () =
  let path = Filename.temp_file "o4a_resume" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      (* run only 2 of the 5 shards, "crash", then resume on 2 domains *)
      let partial = run ~jobs:1 ~checkpoint_path:path ~stop_after:2 () in
      check_bool "interrupted" true partial.Orchestrator.interrupted;
      check_int "two shards ran" 2 partial.Orchestrator.shards_run;
      let resumed = run ~jobs:2 ~checkpoint_path:path ~resume:true () in
      check_bool "not interrupted" false resumed.Orchestrator.interrupted;
      check_int "resumed shards" 2 resumed.Orchestrator.shards_resumed;
      check_int "remaining shards ran" 3 resumed.Orchestrator.shards_run;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed))

let test_graceful_stop_then_resume () =
  let path = Filename.temp_file "o4a_stop" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Orchestrator.reset_stop ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      (* raise the stop flag before the campaign starts: no shard is
         claimed, but the initial checkpoint still makes it resumable *)
      check_bool "first request wins" true (Orchestrator.request_stop ());
      check_bool "second request reports already stopping" false
        (Orchestrator.request_stop ());
      let stopped = run ~jobs:2 ~checkpoint_path:path () in
      check_bool "stopped" true stopped.Orchestrator.stopped;
      check_int "no shards ran" 0 stopped.Orchestrator.shards_run;
      check_bool "checkpoint written before drain" true (Sys.file_exists path);
      Orchestrator.reset_stop ();
      let resumed = run ~jobs:2 ~checkpoint_path:path ~resume:true () in
      check_bool "not stopped" false resumed.Orchestrator.stopped;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed))

(* --jobs 1 runs on one pool domain like any other value: a stop raised by
   the merge owner after the first merged shard still lands on a shard
   boundary (the worker finishes at most the shard it already claimed), and
   resuming lands on the uninterrupted report *)
let test_jobs1_stop_from_progress () =
  let path = Filename.temp_file "o4a_stop1" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Orchestrator.reset_stop ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      let on_progress (p : O4a_profile.Hud.progress) =
        if p.O4a_profile.Hud.shards_done >= 1 then
          ignore (Orchestrator.request_stop ())
      in
      let stopped = run ~jobs:1 ~checkpoint_path:path ~on_progress () in
      check_bool "stopped" true stopped.Orchestrator.stopped;
      let ran = stopped.Orchestrator.shards_run in
      check_bool "stopped within one shard of the request" true
        (ran >= 1 && ran <= 2 && ran < stopped.Orchestrator.shards_total);
      (match Checkpoint.load ~path with
      | Ok cp ->
        check_int "checkpoint holds every merged shard" ran
          (List.length cp.Checkpoint.completed)
      | Error _ -> Alcotest.fail "checkpoint unreadable after the stop");
      Orchestrator.reset_stop ();
      let resumed = run ~jobs:1 ~checkpoint_path:path ~resume:true () in
      check_int "resumed the merged shards" ran
        resumed.Orchestrator.shards_resumed;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed))

let test_resume_rejects_mismatched_provenance () =
  let path = Filename.temp_file "o4a_resume" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (run ~jobs:1 ~checkpoint_path:path ~stop_after:1 ());
      check_bool "different budget refused" true
        (match run ~budget:360 ~checkpoint_path:path ~resume:true () with
        | _ -> false
        | exception Failure _ -> true))

(* ------------------------- telemetry merge ------------------------- *)

let test_telemetry_merge () =
  let sink = Sink.memory () in
  let tel = Telemetry.create ~sink () in
  let r = run ~jobs:2 ~telemetry:tel () in
  check_int "campaign counter equals budget" 300
    (Telemetry.counter_value tel "fuzz.tests");
  let events = Sink.events sink in
  let named n = List.filter (fun e -> e.Event.name = n) events in
  check_int "one campaign.start" 1 (List.length (named "campaign.start"));
  check_int "one campaign.end" 1 (List.length (named "campaign.end"));
  check_int "one fuzz.test event per test" 300 (List.length (named "fuzz.test"));
  check_int "one shard.end per shard" r.Orchestrator.shards_total
    (List.length (named "shard.end"));
  (* every forwarded worker event is tagged with its shard *)
  List.iter
    (fun e ->
      check_bool "shard field present" true (Event.field "shard" e <> None);
      check_bool "worker field present" true (Event.field "worker" e <> None))
    (named "fuzz.test")

let test_ledger_isolation () =
  (* a parallel campaign must not leak coverage into the ambient ledger *)
  let probe = Coverage.make_ledger () in
  Coverage.with_ledger probe (fun () ->
      let before = Coverage.export probe in
      ignore (run ~jobs:2 ~budget:60 ~shard_size:30 ());
      check_bool "ambient ledger untouched" true (Coverage.export probe = before))

let test_parallel_map () =
  let xs = List.init 23 Fun.id in
  check_bool "order preserved" true
    (Orchestrator.parallel_map ~jobs:4 (fun x -> x * x) xs
    = List.map (fun x -> x * x) xs);
  check_bool "jobs:1 degrades" true
    (Orchestrator.parallel_map ~jobs:1 string_of_int xs = List.map string_of_int xs);
  check_bool "exceptions propagate" true
    (match
       Orchestrator.parallel_map ~jobs:3
         (fun x -> if x = 11 then failwith "boom" else x)
         xs
     with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------- shard pool ------------------------- *)

(* with no workers (the coordinator-only `serve --pool 0`) every shard stays
   with the scheduler for remote dispatch *)
let test_pool_zero_workers () =
  let module Pool = Orchestrator.Pool in
  let pool = Pool.create ~workers:0 ~wake:ignore in
  let shards = Shard.plan ~budget:40 ~shard_size:10 in
  let exec ~worker_id:_ ~zeal:_ ~cove:_ (s : Shard.t) = s.Shard.index in
  Pool.add pool ~key:"a" ~quota:1 ~exec shards;
  Pool.add pool ~key:"b" ~quota:1 ~exec shards;
  let next () =
    Option.map (fun (k, (s : Shard.t)) -> (k, s.Shard.index)) (Pool.next pool)
  in
  let check_next msg want =
    Alcotest.(check (option (pair string int))) msg want (next ())
  in
  check_next "a first" (Some ("a", 0));
  check_next "then b" (Some ("b", 0));
  check_bool "nothing executed" true (Pool.ready pool = []);
  Pool.requeue pool ~key:"a" (List.hd shards);
  check_next "requeued shard goes first" (Some ("a", 0));
  Pool.remove pool ~key:"b";
  List.iter
    (fun i -> check_next "only a's pending shards remain" (Some ("a", i)))
    [ 1; 2; 3 ];
  check_next "drained" None;
  check_bool "no result can arrive" true (Pool.await pool = None);
  Pool.close pool

let () =
  Alcotest.run "orchestrator"
    [
      ( "shard plan",
        [
          Alcotest.test_case "covers budget" `Quick test_plan_covers_budget;
          Alcotest.test_case "edges" `Quick test_plan_edges;
          Alcotest.test_case "rng by index" `Quick test_shard_rng_depends_on_index_only;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_invariance;
          Alcotest.test_case "trace bundles jobs-invariant" `Slow
            test_trace_bundles_jobs_invariant;
          Alcotest.test_case "run-to-run stable" `Slow test_matches_sequential_campaign;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "json round-trip" `Quick test_checkpoint_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_checkpoint_save_load;
          Alcotest.test_case "reads v1" `Quick test_checkpoint_reads_v1;
          Alcotest.test_case "reads v2" `Quick test_checkpoint_reads_v2;
          Alcotest.test_case "rejects future version" `Quick
            test_checkpoint_rejects_future_version;
          Alcotest.test_case "load truncated" `Quick test_checkpoint_load_truncated;
          Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
        ] );
      ( "resume",
        [
          Alcotest.test_case "stop then resume" `Slow test_stop_and_resume_round_trip;
          Alcotest.test_case "graceful stop then resume" `Slow
            test_graceful_stop_then_resume;
          Alcotest.test_case "provenance mismatch" `Slow
            test_resume_rejects_mismatched_provenance;
          Alcotest.test_case "jobs 1 stop from progress" `Slow
            test_jobs1_stop_from_progress;
        ] );
      ( "pool",
        [ Alcotest.test_case "zero workers" `Quick test_pool_zero_workers ] );
      ( "merge",
        [
          Alcotest.test_case "telemetry merge" `Slow test_telemetry_merge;
          Alcotest.test_case "ledger isolation" `Quick test_ledger_isolation;
          Alcotest.test_case "parallel map" `Quick test_parallel_map;
        ] );
    ]
