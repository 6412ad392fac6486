(* Per-layer measurements for traced runs (--trace 1). Every number comes
   from the benchmark's own files: the profile ledger and telemetry events
   the program already exposes, and timed calls into each layer's public
   functions, composed here the way the campaign and the daemon compose
   them. End-to-end metrics never come from these runs. *)

module Json = O4a_telemetry.Json
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Profile = O4a_profile.Profile
module Jobspec = O4a_server.Jobspec
module Wire = O4a_server.Wire
module Merge = Orchestrator.Merge
module Shard = Orchestrator.Shard
module W = Workloads
module M = Measure

(* Every per-layer metric, in BENCHMARK.json order. A workload reports the
   layers it exercises; the others read 0 (layer not run). *)
let names =
  [
    ("once4all.campaign.prepare_s", "s");
    ("seeds.corpus.filter_s", "s");
    ("solver.engine.prewarm_s", "s");
    ("once4all.skeleton.calls", "count");
    ("once4all.skeleton.self_ms", "ms");
    ("once4all.synthesize.self_ms", "ms");
    ("once4all.synthesize.alloc_kb_per_call", "KB");
    ("once4all.adapt.calls", "count");
    ("once4all.adapt.self_ms", "ms");
    ("once4all.oracle.self_ms", "ms");
    ("once4all.oracle.consults_per_tick", "count");
    ("smtlib.parser.self_ms", "ms");
    ("smtlib.parser.kb", "KB");
    ("theories.typecheck.self_ms", "ms");
    ("solver.engine.parse_check_ms", "ms");
    ("solver.engine.queries_per_tick", "count");
    ("solver.engine.solve_ms_p50", "ms");
    ("solver.engine.solve_ms_p90", "ms");
    ("solver.rewrite.self_ms", "ms");
    ("solver.propagate.self_ms", "ms");
    ("solver.search.self_ms", "ms");
    ("solver.search.fuel_per_tick", "count");
    ("solver.search.decisions_per_tick", "count");
    ("solver.search.propagations_per_tick", "count");
    ("solver.search.alloc_kb_per_tick", "KB");
    ("solver.eval.ns_per_step", "ns");
    ("orchestrator.exec_shard_ms_p50", "ms");
    ("orchestrator.exec_shard_ms_p90", "ms");
    ("orchestrator.pool_busy_share", "ratio");
    ("orchestrator.merge_ms_per_shard", "ms");
    ("orchestrator.checkpoint_ms_per_shard", "ms");
    ("orchestrator.checkpoint_kb", "KB");
    ("server.wire.encode_ms_per_shard", "ms");
    ("server.wire.decode_ms_per_shard", "ms");
    ("server.wire.kb_per_shard", "KB");
    ("server.wire.events_per_shard", "count");
    ("server.lease.grants", "count");
    ("server.lease.reassigned", "count");
    ("server.lease.grant_wait_ms", "ms");
    ("server.daemon.cpu_ms_per_tick", "ms");
    ("server.worker.cpu_ms_per_tick", "ms");
    ("trace.untraced_ticks_per_s", "1/s");
    ("trace.traced_ticks_per_s", "1/s");
    ("trace.overhead_share", "ratio");
  ]

(* all names, measured values filled in, the rest 0 *)
let complete measured =
  List.map
    (fun (name, unit_) ->
      M.metric name unit_ (Option.value ~default:0. (List.assoc_opt name measured)))
    names

let ms_of_ns ns = float_of_int ns /. 1e6

(* {1 Set-up phases} *)

let setup_phases spec =
  let phases = ref [] in
  let r = W.prepare ~on_phase:(fun k v -> phases := (k, v) :: !phases) spec in
  let get k = Option.value ~default:0. (List.assoc_opt k !phases) in
  ( r,
    [
      ("once4all.campaign.prepare_s", get "prepare");
      ("seeds.corpus.filter_s", get "filter");
      ("solver.engine.prewarm_s", get "prewarm");
    ] )

(* {1 Pipeline stages from a profile ledger} *)

let stage (p : Profile.t) name =
  List.find_opt (fun (e : Profile.entry) -> e.Profile.stage = name) p.Profile.stages

let stage_metrics (p : Profile.t) =
  let ticks = float_of_int (max 1 p.Profile.ticks) in
  let self name = Option.fold ~none:0. ~some:(fun (e : Profile.entry) -> ms_of_ns e.Profile.wall_ns) (stage p name) in
  let calls name = Option.fold ~none:0. ~some:(fun (e : Profile.entry) -> float_of_int e.Profile.calls) (stage p name) in
  let synth_alloc =
    Option.fold ~none:0.
      ~some:(fun (e : Profile.entry) ->
        M.kb_of_words (float_of_int e.Profile.alloc_words) /. float_of_int (max 1 e.Profile.calls))
      (stage p "synthesize")
  in
  [
    ("once4all.skeleton.calls", calls "skeletonize");
    ("once4all.skeleton.self_ms", self "skeletonize");
    ("once4all.synthesize.self_ms", self "synthesize");
    ("once4all.synthesize.alloc_kb_per_call", synth_alloc);
    ("once4all.adapt.calls", calls "adapt");
    ("once4all.adapt.self_ms", self "adapt");
    ("once4all.oracle.self_ms", self "oracle.compare");
    ( "once4all.oracle.consults_per_tick",
      float_of_int (Profile.total_consults p) /. ticks );
  ]

(* {1 campaign: profiled campaign, solver split, pool busy share} *)

let traced_budget = 500

let events_named sink name =
  List.filter (fun (e : Event.t) -> e.Event.name = name) (Sink.events sink)

let num k e = Option.value ~default:0. (Option.bind (Event.field k e) Json.to_float)
let str k e = Option.bind (Event.field k e) Json.to_str

(* Replay a fixed sample of generated queries through Zeal's solving path
   (rewrite, interval propagation, bounded search), timing each layer. *)
let solver_split r =
  let sources = ref [] in
  ignore (W.frontend_round ~on_source:(fun s -> sources := s :: !sources) ~formulas:400 r);
  let zeal = r.W.campaign.Once4all.Campaign.zeal in
  let scripts =
    List.filter_map
      (fun src ->
        match Solver.Engine.parse_check zeal src with Ok s -> Some s | Error _ -> None)
      (List.rev !sources)
  in
  let rw = ref 0. and pr = ref 0. and se = ref 0. and steps = ref 0 in
  let max_steps = Once4all.Fuzz.default_config.Once4all.Fuzz.max_steps in
  List.iter
    (fun script ->
      try
        let t0 = M.now () in
        let simplified =
          Smtlib.Script.map_assertions
            (Solver.Rewrite.simplify ~rules:Solver.Rewrite.zeal_rules ~fired:ignore)
            script
        in
        let t1 = M.now () in
        let bounds = Solver.Propagate.analyze simplified in
        let t2 = M.now () in
        let used = ref 0 in
        ignore
          (Solver.Search.solve ~max_steps ~order:Solver.Search.Ascending ~bounds
             ~steps_used:used simplified);
        let t3 = M.now () in
        rw := !rw +. (t1 -. t0);
        pr := !pr +. (t2 -. t1);
        se := !se +. (t3 -. t2);
        steps := !steps + !used
      with _ -> ())
    scripts;
  [
    ("solver.rewrite.self_ms", 1000. *. !rw);
    ("solver.propagate.self_ms", 1000. *. !pr);
    ("solver.search.self_ms", 1000. *. !se);
    ("solver.eval.ns_per_step", 1e9 *. !se /. float_of_int (max 1 !steps));
  ]

let campaign ~jobs r =
  let small = { r with W.spec = { r.W.spec with Jobspec.budget = traced_budget } } in
  let t0 = M.now () in
  let plain = W.run_campaign ~jobs small in
  let untraced = float_of_int traced_budget /. (M.now () -. t0) in
  let sink = Sink.memory () in
  let tel = Telemetry.create ~sink ~clock:(Telemetry.monotonic_clock ()) () in
  let t0 = M.now () in
  let report = W.run_campaign ~telemetry:tel ~profiling:true ~jobs small in
  let wall = M.now () -. t0 in
  (* profiling and telemetry are pure: the traced report must not move *)
  let problems =
    W.report_problems small plain
    @
    if W.report_text small plain = W.report_text small report then []
    else [ "the traced campaign's report differs from the untraced one" ]
  in
  let traced = float_of_int traced_budget /. wall in
  let ticks = float_of_int traced_budget in
  let verdicts = events_named sink "oracle.verdict" in
  let sum k = List.fold_left (fun acc e -> acc +. num k e) 0. verdicts in
  let solve_ms =
    List.filter_map
      (fun e -> if str "stage" e = Some "solver.run" then Some (num "dur_us" e /. 1000.) else None)
      (events_named sink "span")
  in
  (* shard execution spans: shard.start -> shard.end on the worker's clock *)
  let starts = Hashtbl.create 16 in
  let shard_ms =
    List.filter_map
      (fun (e : Event.t) ->
        let shard = num "shard" e in
        match e.Event.name with
        | "shard.start" ->
          Hashtbl.replace starts shard e.Event.ts;
          None
        | "shard.end" ->
          Option.map (fun t -> 1000. *. (e.Event.ts -. t)) (Hashtbl.find_opt starts shard)
        | _ -> None)
      (Sink.events sink)
  in
  let p = report.Orchestrator.profile in
  ( 2 * traced_budget,
    problems,
  let solver_stage = stage p "solver.run" in
  let parse_stage = stage p "parse" in
  stage_metrics p
  @ [
      ("smtlib.parser.self_ms", Option.fold ~none:0. ~some:(fun (e : Profile.entry) -> ms_of_ns e.Profile.wall_ns) parse_stage);
      ( "smtlib.parser.kb",
        Option.fold ~none:0. ~some:(fun (e : Profile.entry) -> M.kb_of_words (float_of_int e.Profile.alloc_words)) parse_stage );
      ("solver.engine.queries_per_tick", float_of_int (List.length solve_ms) /. ticks);
      ("solver.engine.solve_ms_p50", M.quantile 0.5 solve_ms);
      ("solver.engine.solve_ms_p90", M.quantile 0.9 solve_ms);
      ("solver.search.fuel_per_tick", sum "steps" /. ticks);
      ("solver.search.decisions_per_tick", sum "decisions" /. ticks);
      ("solver.search.propagations_per_tick", sum "propagations" /. ticks);
      ( "solver.search.alloc_kb_per_tick",
        Option.fold ~none:0.
          ~some:(fun (e : Profile.entry) -> M.kb_of_words (float_of_int e.Profile.alloc_words) /. ticks)
          solver_stage );
      ("orchestrator.exec_shard_ms_p50", M.quantile 0.5 shard_ms);
      ("orchestrator.exec_shard_ms_p90", M.quantile 0.9 shard_ms);
      ( "orchestrator.pool_busy_share",
        List.fold_left ( +. ) 0. shard_ms /. (1000. *. wall *. float_of_int jobs) );
      ("trace.untraced_ticks_per_s", untraced);
      ("trace.traced_ticks_per_s", traced);
      ("trace.overhead_share", 1. -. (traced /. untraced));
    ]
  @ solver_split r )

(* {1 frontend: profiled formula production, front-end replay} *)

let frontend r =
  let formulas = W.cases "frontend" * W.frontend_formulas in
  let t0 = M.now () in
  let plain = W.frontend_round ~formulas r in
  let untraced = float_of_int formulas /. (M.now () -. t0) in
  let ledger = Profile.make_ledger () in
  let sources = ref [] in
  let t0 = M.now () in
  let traced_out =
    Profile.using ledger (fun () ->
        W.frontend_round ~on_source:(fun s -> sources := s :: !sources) ~formulas r)
  in
  let traced = float_of_int formulas /. (M.now () -. t0) in
  let p = Profile.export ledger in
  let p = { p with Profile.ticks = formulas } in
  let cove = r.W.campaign.Once4all.Campaign.cove in
  (* the front end's layers, replayed on this round's formulas *)
  let parse_s = ref 0. and parse_alloc = ref 0. and tc_s = ref 0. and pc_s = ref 0. in
  List.iter
    (fun src ->
      let a0 = M.alloc_words () in
      let t0 = M.now () in
      let parsed = Smtlib.Parser.parse_script src in
      let t1 = M.now () in
      parse_alloc := !parse_alloc +. (M.alloc_words () -. a0);
      (match parsed with
      | Ok script -> ignore (Theories.Typecheck.check_script script)
      | Error _ -> ());
      let t2 = M.now () in
      ignore (Solver.Engine.parse_check cove src);
      let t3 = M.now () in
      parse_s := !parse_s +. (t1 -. t0);
      tc_s := !tc_s +. (t2 -. t1);
      pc_s := !pc_s +. (t3 -. t2))
    !sources;
  ( 2 * formulas,
    (if plain = traced_out then []
     else [ "the traced frontend round differs from the untraced one" ]),
  stage_metrics p
  @ [
      ("smtlib.parser.self_ms", 1000. *. !parse_s);
      ("smtlib.parser.kb", M.kb_of_words !parse_alloc);
      ("theories.typecheck.self_ms", 1000. *. !tc_s);
      ("solver.engine.parse_check_ms", 1000. *. !pc_s);
      ("trace.untraced_ticks_per_s", untraced);
      ("trace.traced_ticks_per_s", traced);
      ("trace.overhead_share", 1. -. (traced /. untraced));
    ] )

(* {1 fabric: the daemon's per-shard plumbing composed in process} *)

(* Execute shards the way a worker slot does, ship each outcome through the
   wire codec, and absorb it the way the coordinator does: once into a
   merge without a checkpoint, once into one that checkpoints after every
   shard, so the two costs separate. *)
let compose ~dir r ~shards =
  let spec = r.W.spec in
  let env =
    Orchestrator.make_env ~config:(Jobspec.config spec) ~tel_enabled:true
      ?health:(Jobspec.health spec) ~seed:(Jobspec.fuzz_seed spec)
      ~generators:r.W.campaign.Once4all.Campaign.generators ~seeds:r.W.seeds ()
  in
  let merge ?checkpoint_path () =
    Merge.create ~env ~tel:(Telemetry.create ~sink:Sink.null ())
      ?checkpoint_path ~jobs:1 ~budget:spec.Jobspec.budget
      ~shard_size:spec.Jobspec.shard_size ~extra:(Jobspec.extra spec) ()
  in
  let cp_path = Filename.concat dir "checkpoint.json" in
  let plain = merge () and saved = merge ~checkpoint_path:cp_path () in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let plan =
    List.filteri (fun i _ -> i < shards)
      (Shard.plan ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size)
  in
  let exec = ref [] and enc = ref [] and dec = ref [] and bytes = ref [] in
  let events = ref [] and absorb = ref [] and absorb_cp = ref [] in
  let time f =
    let t0 = M.now () in
    let r = f () in
    (r, 1000. *. (M.now () -. t0))
  in
  let t_start = M.now () in
  List.iter
    (fun shard ->
      let outcome, t = time (fun () -> Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove shard) in
      exec := t :: !exec;
      let line, t = time (fun () -> Json.to_string (Wire.outcome_to_json outcome)) in
      enc := t :: !enc;
      bytes := float_of_int (String.length line) :: !bytes;
      let decoded, t =
        time (fun () -> Result.bind (Json.parse line) Wire.outcome_of_json)
      in
      dec := t :: !dec;
      let outcome = match decoded with Ok o -> o | Error e -> failwith ("wire: " ^ e) in
      (match outcome with
      | Orchestrator.Merged (p, _, _) ->
        events := float_of_int (List.length p.Orchestrator.events) :: !events
      | _ -> ());
      absorb := snd (time (fun () -> Merge.absorb plain shard outcome)) :: !absorb;
      absorb_cp := snd (time (fun () -> Merge.absorb saved shard outcome)) :: !absorb_cp)
    plan;
  let wall = M.now () -. t_start in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
  let cp_kb =
    match Unix.stat cp_path with
    | st -> float_of_int st.Unix.st_size /. 1024.
    | exception Unix.Unix_error _ -> 0.
  in
  let ticks = List.fold_left (fun acc s -> acc + s.Shard.ticks) 0 plan in
  ( float_of_int ticks /. wall,
    [
      ("orchestrator.exec_shard_ms_p50", M.quantile 0.5 !exec);
      ("orchestrator.exec_shard_ms_p90", M.quantile 0.9 !exec);
      ("orchestrator.merge_ms_per_shard", mean !absorb);
      ("orchestrator.checkpoint_ms_per_shard", mean !absorb_cp -. mean !absorb);
      ("orchestrator.checkpoint_kb", cp_kb);
      ("server.wire.encode_ms_per_shard", mean !enc);
      ("server.wire.decode_ms_per_shard", mean !dec);
      ("server.wire.kb_per_shard", mean !bytes /. 1024.);
      ("server.wire.events_per_shard", mean !events);
    ] )
