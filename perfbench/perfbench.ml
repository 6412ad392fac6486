(* The repository benchmark's measuring process.

     perfbench.exe --workload campaign|frontend|fabric --seed N --seconds S
                   --trace 0|1 --cli PATH [--pins FILE]
     perfbench.exe pin --workload W --seed N      (print a pin entry)
     perfbench.exe setup-probe --workload W --seed N
     perfbench.exe round --workload campaign|frontend --seed N

   Every workload is a closed loop: the next round starts when the previous
   one finished, and rounds repeat until [--seconds] is spent. Untraced runs
   (--trace 0) report end-to-end metrics; traced runs (--trace 1) report the
   per-layer metrics of Layers plus the tracing overhead. The last stdout
   line is the result object; the lines before it record the host and every
   end-to-end figure by name and unit. *)

module Json = O4a_telemetry.Json
module Jobspec = O4a_server.Jobspec
module W = Workloads
module M = Measure

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  pins : string;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe [pin|setup-probe] --workload campaign|frontend|fabric \
     --seed N [--seconds S] [--trace 0|1] [--cli PATH] [--pins FILE]";
  exit 2

let parse_args argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--cli" :: v :: rest -> go { a with cli = v } rest
    | "--pins" :: v :: rest -> go { a with pins = v } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 0;
          seconds = 10.;
          trace = false;
          cli = "_build/default/bin/once4all_cli.exe";
          pins = "perfbench/pins.json";
        }
        argv
    with Failure _ -> usage ()
  in
  if not (List.mem a.workload [ "campaign"; "frontend"; "fabric" ]) then usage ();
  a

(* {1 Pinned fingerprints} *)

(* the campaign shape a workload's pins were recorded under *)
let params = function
  | "campaign" ->
    Printf.sprintf "cases=%d budget=%d shard=%d" (W.cases "campaign") W.campaign_budget
      Orchestrator.default_shard_size
  | "fabric" ->
    Printf.sprintf "cases=%d budget=%d shard=%d" (W.cases "fabric") W.fabric_budget
      W.fabric_shard_size
  | _ -> Printf.sprintf "cases=%d formulas=%d" (W.cases "frontend") W.frontend_formulas

let exact_to_json (e : W.exact) =
  [
    ("fingerprint", Json.String e.W.fingerprint);
    ("bugs_found", Json.Int e.W.bugs_found);
    ("coverage_points", Json.Int e.W.coverage_points);
    ("validity", Json.Float e.W.validity);
    ("timeout_share", Json.Float e.W.timeout_share);
  ]

let exact_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  match
    ( Option.bind (Json.member "fingerprint" j) Json.to_str,
      Option.bind (Json.member "bugs_found" j) Json.to_int,
      Option.bind (Json.member "coverage_points" j) Json.to_int,
      num "validity",
      num "timeout_share" )
  with
  | Some fingerprint, Some bugs_found, Some coverage_points, Some validity, Some timeout_share ->
    Some { W.fingerprint; bugs_found; coverage_points; validity; timeout_share }
  | _ -> None

(* The pinned entry for (workload, seed), if the pin file has one recorded
   under the workload's current campaign shape. *)
let pinned a =
  match M.read_file_opt a.pins with
  | None -> None
  | Some text -> (
    match Json.parse text with
    | Error _ -> None
    | Ok j -> (
      match Json.member a.workload j with
      | Some w when Option.bind (Json.member "params" w) Json.to_str = Some (params a.workload)
        ->
        Option.bind
          (Option.bind (Json.member "seeds" w) (Json.member (string_of_int a.seed)))
          exact_of_json
      | _ -> None))

(* {1 Shared run bookkeeping} *)

(* Run [f round] until [seconds] are spent: another round starts only while
   at least half of an average round still fits. At least one round. *)
let rounds ~seconds f =
  let t0 = M.now () in
  let rec go acc n =
    let r = f n in
    let n = n + 1 in
    let elapsed = M.now () -. t0 in
    if elapsed +. (elapsed /. float_of_int n /. 2.) < seconds then go (r :: acc) n
    else List.rev (r :: acc)
  in
  go [] 0

type sample = { wall : float; cpu : float; alloc : float; rss_mb : float; ticks : int }

(* One in-process case. It starts from a compacted heap and a lowered peak
   mark, as a fresh [fuzz] process would, so neither its time nor its peak
   memory depends on the cases run before it. *)
let timed ~ticks f =
  Gc.compact ();
  M.reset_peak_rss ();
  let a0 = M.alloc_words () and c0 = M.cpu_self () and t0 = M.now () in
  let r = f () in
  let t1 = M.now () and c1 = M.cpu_self () and a1 = M.alloc_words () in
  ( { wall = t1 -. t0; cpu = c1 -. c0; alloc = a1 -. a0; rss_mb = M.self_peak_rss_mb (); ticks },
    r )

(* medians over a run's campaigns: one disturbed campaign cannot move them *)
let per_tick f samples =
  M.median (List.map (fun s -> f s /. float_of_int s.ticks) samples)

(* Run this executable in another mode for [a]; its last stdout line. *)
let run_self mode a =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [|
        Sys.executable_name; mode; "--workload"; a.workload; "--seed"; string_of_int a.seed;
      |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.nth lines (List.length lines - 1)
  | _ -> failwith (mode ^ " process failed")

(* Set-up in fresh processes, so lazily built global state is paid each
   time, as a user's [fuzz] pays it: the median of seven probes. *)
let setup_probes a =
  M.median (List.init 7 (fun _ -> float_of_string (run_self "setup-probe" a)))

let specs_of a = W.specs a.workload a.seed
let prepare_all a = List.map (fun spec -> W.prepare spec) (specs_of a)

type outcome = {
  metrics : M.metric list;  (** the BENCHMARK.json set for this mode *)
  extra : M.metric list;  (** workload-specific end-to-end figures *)
  attempted : int;
  failed : int;
  problems : string list;
  pinned : bool;
}

let common_metrics ~samples ~setup_s ~validity =
  [
    M.metric "ticks_per_s" "1/s"
      (M.median (List.map (fun s -> float_of_int s.ticks /. s.wall) samples));
    M.metric "cpu_ms_per_tick" "ms" (1000. *. per_tick (fun s -> s.cpu) samples);
    M.metric "alloc_kb_per_tick" "KB" (per_tick (fun s -> M.kb_of_words s.alloc) samples);
    M.metric "peak_rss_mb" "MB" (M.median (List.map (fun s -> s.rss_mb) samples));
    M.metric "setup_s" "s" setup_s;
    M.metric "validity" "ratio" validity;
  ]

let exact_extra (e : W.exact) =
  [
    M.metric "bugs_found" "count" (float_of_int e.W.bugs_found);
    M.metric "coverage_points" "count" (float_of_int e.W.coverage_points);
    M.metric "timeout_share" "ratio" e.W.timeout_share;
  ]

(* Compare a round's exact figures against the pin (when there is one) and
   against the run's first round. *)
let check_exact ~pin ~first (e : W.exact) =
  let against what (p : W.exact) =
    if p.W.fingerprint = e.W.fingerprint then []
    else [ Printf.sprintf "fingerprint %s differs from %s %s" e.W.fingerprint what p.W.fingerprint ]
  in
  (match pin with Some p -> against "the pinned" p | None -> []) @ against "the first round's" first

(* {1 Workloads} *)

let frontend_round r = W.frontend_round ~formulas:W.frontend_formulas r

let frontend_problems (o : W.frontend_out) =
  if o.W.accepted <= o.W.formulas && o.W.parsed <= o.W.formulas then []
  else [ "more accepted or parsed formulas than produced" ]

let sample_to_json s =
  Json.Obj
    [
      ("wall", Json.Float s.wall); ("cpu", Json.Float s.cpu); ("alloc", Json.Float s.alloc);
      ("rss_mb", Json.Float s.rss_mb); ("ticks", Json.Int s.ticks);
    ]

let sample_of_json j =
  let num k = Option.value ~default:0. (Option.bind (Json.member k j) Json.to_float) in
  {
    wall = num "wall";
    cpu = num "cpu";
    alloc = num "alloc";
    rss_mb = num "rss_mb";
    ticks = Option.value ~default:0 (Option.bind (Json.member "ticks" j) Json.to_int);
  }

(* One round of an in-process workload, every case once and each timed,
   printed as samples, the round's exact figures and the faults found in
   its outputs. *)
let round a =
  let rs = prepare_all a in
  let each ~ticks run = List.map (fun r -> timed ~ticks (fun () -> (r, run r))) rs in
  let samples, exact, problems =
    match a.workload with
    | "campaign" ->
      let res = each ~ticks:W.campaign_budget (W.run_campaign ~jobs:(M.nproc ())) in
      let pairs = List.map snd res in
      ( List.map fst res,
        W.exact_of_reports pairs,
        List.concat_map (fun (r, report) -> W.report_problems r report) pairs )
    | _ ->
      let res = each ~ticks:W.frontend_formulas frontend_round in
      let outs = List.map (fun (_, (_, o)) -> o) res in
      (List.map fst res, W.frontend_exact outs, List.concat_map frontend_problems outs)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("samples", Json.List (List.map sample_to_json samples));
            ("exact", Json.Obj (exact_to_json exact));
            ("problems", Json.List (List.map (fun p -> Json.String p) problems));
          ]))

(* An in-process workload. Each round runs in a fresh process, as a user's
   [fuzz] does: no round inherits another's heap, so per-case peak memory
   and GC cost do not depend on how many rounds ran before. A round fails
   when its outputs have faults, or when its fingerprint disagrees with the
   pin or the first round. *)
let in_process a ~extra =
  let setup_s = setup_probes a in
  let pin = pinned a in
  let results =
    rounds ~seconds:a.seconds (fun _ ->
        let j =
          match Json.parse (run_self "round" a) with
          | Ok j -> j
          | Error e -> failwith ("unreadable round output: " ^ e)
        in
        let list k = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
        ( List.map sample_of_json (list "samples"),
          Option.bind (Json.member "exact" j) exact_of_json,
          List.filter_map Json.to_str (list "problems") ))
  in
  let first =
    match results with
    | (_, Some e, _) :: _ -> e
    | _ -> failwith "the first round reported no exact figures"
  in
  let failed = ref 0 and found = ref [] in
  List.iter
    (fun (samples, exact, problems) ->
      let checked =
        match exact with
        | Some e -> check_exact ~pin ~first e
        | None -> [ "a round reported no exact figures" ]
      in
      match problems @ checked with
      | [] -> ()
      | ps ->
        failed := !failed + List.fold_left (fun acc s -> acc + s.ticks) 0 samples;
        found := !found @ ps)
    results;
  let samples = List.concat_map (fun (s, _, _) -> s) results in
  {
    metrics = common_metrics ~samples ~setup_s ~validity:first.W.validity;
    extra = extra first;
    attempted = List.fold_left (fun acc s -> acc + s.ticks) 0 samples;
    failed = !failed;
    problems = !found;
    pinned = pin <> None;
  }

let state_root () = Printf.sprintf ".perfbench-tmp/%d" (Unix.getpid ())

(* The fabric run, shared by the untraced workload and the traced one. *)
type fabric_run = {
  f_samples : sample list;
  f_jobs : Fabric.job_trace list;
  f_setup_s : float;
  f_daemon_cpu : float;
  f_worker_cpu : float;
  f_problems : string list;
  f_failed : int;
  f_exact : W.exact;
  f_pinned : bool;
}

let fabric_run a =
  let base = state_root () in
  Fabric.private_dirs := base :: !Fabric.private_dirs;
  let specs = specs_of a in
  (* nine set-ups, each a fresh coordinator + worker; the last one serves
     the measured rounds *)
  let n_setups = 9 in
  let setups =
    List.init n_setups (fun i ->
        let pair, s =
          Fabric.ready ~cli:a.cli ~dir:(Printf.sprintf "%s/%d" base i) (List.hd specs)
        in
        if i < n_setups - 1 && not (Fabric.stop pair).Fabric.clean then
          failwith "a set-up coordinator or worker did not exit cleanly";
        (pair, s))
  in
  let pair = fst (List.nth setups (n_setups - 1)) in
  let cpu_d0 = M.cpu_of_pid pair.Fabric.daemon and cpu_w0 = M.cpu_of_pid pair.Fabric.worker in
  let self_a0 = M.alloc_words () and self_c0 = M.cpu_self () in
  let rounds_jobs =
    rounds ~seconds:a.seconds (fun i ->
        List.mapi
          (fun k spec ->
            Fabric.run_job pair { spec with Jobspec.name = Printf.sprintf "r%d-c%d" i k })
          specs)
  in
  let self_cpu = M.cpu_self () -. self_c0 and self_alloc = M.alloc_words () -. self_a0 in
  let daemon_cpu = M.cpu_of_pid pair.Fabric.daemon -. cpu_d0 in
  let worker_cpu = M.cpu_of_pid pair.Fabric.worker -. cpu_w0 in
  let rss_mb =
    (M.peak_rss_kb (string_of_int pair.Fabric.daemon)
    +. M.peak_rss_kb (string_of_int pair.Fabric.worker)
    +. M.peak_rss_kb "self")
    /. 1024.
  in
  let stopped = Fabric.stop pair in
  (* the same campaigns in process: their reports are what every venue
     must print *)
  let pin = pinned a in
  let reference =
    match pin with
    | Some p -> p
    | None ->
      let jobs = M.nproc () in
      W.exact_of_reports (List.map (fun r -> (r, W.run_campaign ~jobs r)) (prepare_all a))
  in
  let round_ticks = W.cases "fabric" * W.fabric_budget in
  let problems = ref [] and failed = ref 0 in
  List.iteri
    (fun i jobs ->
      let d = W.fingerprint_of_texts (List.map (fun (j : Fabric.job_trace) -> j.Fabric.report) jobs) in
      if d <> reference.W.fingerprint then (
        failed := !failed + round_ticks;
        problems :=
          !problems
          @ [
              Printf.sprintf "round %d: report.txt fingerprint %s differs from the in-process %s"
                i d reference.W.fingerprint;
            ]))
    rounds_jobs;
  if not stopped.Fabric.clean then
    problems := !problems @ [ "coordinator or worker did not exit cleanly" ];
  let ticks = round_ticks * List.length rounds_jobs in
  {
    f_samples =
      (* CPU and allocation are only observable for the whole window; each
         job gets its share *)
      List.map
        (fun (j : Fabric.job_trace) ->
          let share = float_of_int W.fabric_budget /. float_of_int ticks in
          {
            wall = j.Fabric.wall;
            cpu = (self_cpu +. daemon_cpu +. worker_cpu) *. share;
            alloc =
              (self_alloc +. stopped.Fabric.daemon_alloc_words
             +. stopped.Fabric.worker_alloc_words)
              *. share;
            rss_mb;
            ticks = W.fabric_budget;
          })
        (List.concat rounds_jobs);
    f_jobs = List.concat rounds_jobs;
    f_setup_s = M.median (List.map snd setups);
    f_daemon_cpu = daemon_cpu /. float_of_int ticks;
    f_worker_cpu = worker_cpu /. float_of_int ticks;
    f_problems = !problems;
    f_failed = !failed;
    f_exact = reference;
    f_pinned = pin <> None;
  }

let turnarounds f = List.concat_map (fun (j : Fabric.job_trace) -> j.Fabric.turnaround_ms) f.f_jobs

let fabric a =
  let f = fabric_run a in
  let ta = turnarounds f in
  {
    metrics =
      common_metrics ~samples:f.f_samples ~setup_s:f.f_setup_s
        ~validity:f.f_exact.W.validity;
    extra =
      exact_extra f.f_exact
      @ [
          M.metric "shard_turnaround_p50_ms" "ms" (M.quantile 0.5 ta);
          M.metric "shard_turnaround_p90_ms" "ms" (M.quantile 0.9 ta);
          M.metric "shard_turnaround_samples" "count" (float_of_int (List.length ta));
        ];
    attempted = List.fold_left (fun acc s -> acc + s.ticks) 0 f.f_samples;
    failed = f.f_failed;
    problems = f.f_problems;
    pinned = f.f_pinned;
  }

(* {1 Traced runs} *)

let composed_shards = 40

let traced a =
  (* the first set-up in this process, so every phase is paid cold *)
  let r, setup = Layers.setup_phases (List.hd (specs_of a)) in
  let jobs = M.nproc () in
  let attempted, problems, failed, measured =
    match a.workload with
    | "campaign" ->
      let n, problems, m = Layers.campaign ~jobs r in
      (n, problems, (if problems = [] then 0 else n), m)
    | "frontend" ->
      let n, problems, m = Layers.frontend r in
      (n, problems, (if problems = [] then 0 else n), m)
    | _ ->
      let f = fabric_run a in
      let dir = state_root () ^ "/compose" in
      Fabric.mkdir_p dir;
      let composed_rate, composed = Layers.compose ~dir r ~shards:composed_shards in
      let untraced =
        M.median (List.map (fun s -> float_of_int s.ticks /. s.wall) f.f_samples)
      in
      let waits = List.concat_map (fun (j : Fabric.job_trace) -> j.Fabric.grant_wait_ms) f.f_jobs in
      let sum g = float_of_int (List.fold_left (fun acc j -> acc + g j) 0 f.f_jobs) in
      ( List.fold_left (fun acc s -> acc + s.ticks) 0 f.f_samples
        + (composed_shards * W.fabric_shard_size),
        f.f_problems,
        f.f_failed,
        composed
        @ [
            ("server.lease.grants", sum (fun j -> j.Fabric.grants));
            ("server.lease.reassigned", sum (fun j -> j.Fabric.reassigned));
            ("server.lease.grant_wait_ms", M.median waits);
            ("server.daemon.cpu_ms_per_tick", 1000. *. f.f_daemon_cpu);
            ("server.worker.cpu_ms_per_tick", 1000. *. f.f_worker_cpu);
            ("trace.untraced_ticks_per_s", untraced);
            (* the composed replay runs one slot's work and the
               coordinator's, serially, with every stage timed *)
            ("trace.traced_ticks_per_s", composed_rate);
            ("trace.overhead_share", 1. -. (composed_rate /. untraced));
          ] )
  in
  {
    metrics = Layers.complete (setup @ measured);
    extra = [];
    attempted;
    failed;
    problems;
    pinned = false;
  }

(* {1 Entry points} *)

let print_result o =
  let failed_share = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  print_endline (Json.to_string (Json.Obj [ ("host", M.host_record ()) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("pinned", Json.Bool o.pinned);
            ("problems", Json.List (List.map (fun p -> Json.String p) o.problems));
            ( "report",
              M.metrics_json
                (o.metrics @ o.extra @ [ M.metric "failed_share" "ratio" failed_share ]) );
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.problems = []));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", M.metrics_json o.metrics);
          ]));
  exit (if o.problems = [] then 0 else 1)

let pin a =
  let rs = prepare_all a in
  let e =
    match a.workload with
    | "frontend" -> W.frontend_exact (List.map frontend_round rs)
    | _ ->
      let jobs = M.nproc () in
      W.exact_of_reports (List.map (fun r -> (r, W.run_campaign ~jobs r)) rs)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.String a.workload);
             ("params", Json.String (params a.workload));
             ("seed", Json.Int a.seed);
           ]
          @ exact_to_json e)))

let setup_probe a =
  let t0 = M.now () in
  ignore (prepare_all a);
  Printf.printf "%.9f\n" (M.now () -. t0)

let () =
  ignore (Lazy.force M.host_start);
  (* a hung lease or a wedged run must not outlive the run's deadline;
     exiting runs the at_exit hook that kills and reaps every child *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> prerr_endline "perfbench: watchdog expired"; exit 3));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 4)))
    [ Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm 170);
  match Array.to_list Sys.argv with
  | _ :: "pin" :: rest -> pin (parse_args rest)
  | _ :: "setup-probe" :: rest -> setup_probe (parse_args rest)
  | _ :: "round" :: rest -> round (parse_args rest)
  | _ :: rest -> (
    let a = parse_args rest in
    match (a.workload, a.trace) with
    | "campaign", false -> print_result (in_process a ~extra:exact_extra)
    | "frontend", false -> print_result (in_process a ~extra:(fun _ -> []))
    | "fabric", false -> print_result (fabric a)
    | _ -> print_result (traced a))
  | [] -> usage ()
