(* The in-process workloads (campaign, frontend), the campaign set-up they
   share with the fabric reference run, and their output fingerprints. *)

module Jobspec = O4a_server.Jobspec
module Render = O4a_server.Render
module Campaign = Once4all.Campaign
module Fuzz = Once4all.Fuzz
module Rng = O4a_util.Rng
module Telemetry = O4a_telemetry.Telemetry

(* A run's input is [cases] campaigns whose seeds derive from the run's
   seed. One seed builds one generator library, and the library shapes
   per-tick cost and validity as much as the fuzz stream does: with a single
   library per run, a run would mostly measure which library its seed drew.

   Shapes are fixed per workload and are part of every pinned fingerprint.
   [campaign] runs [fuzz] defaults (shard size 250, two shards per
   campaign); [fabric] uses small shards so per-shard plumbing (wire, lease,
   merge, checkpoint) shows, and so the turnaround p90 has at least ten
   samples beyond it. The cheaper a case, the more of them a run holds. *)
let cases = function "campaign" -> 6 | _ -> 10

let case_seeds workload seed =
  let n = cases workload in
  List.init n (fun k -> (seed * n) + k)

let campaign_budget = 500
let fabric_budget = 200
let fabric_shard_size = 20
let frontend_formulas = 600

let spec ~seed ~budget ~shard_size =
  { (Jobspec.default ~name:"perfbench") with Jobspec.seed; budget; shard_size }

let specs workload seed =
  List.map
    (fun seed ->
      match workload with
      | "fabric" -> spec ~seed ~budget:fabric_budget ~shard_size:fabric_shard_size
      | _ ->
        spec ~seed ~budget:campaign_budget ~shard_size:Orchestrator.default_shard_size)
    (case_seeds workload seed)

type ready = {
  spec : Jobspec.t;
  campaign : Campaign.t;
  seeds : Smtlib.Script.t list;
}

(* The set-up [fuzz] performs before its first tick: build the coverage
   tables, construct the generator library, filter the seed corpus. *)
let prepare ?(on_phase = fun _ _ -> ()) spec =
  let t0 = Measure.now () in
  Solver.Engine.prewarm ();
  let t1 = Measure.now () in
  on_phase "prewarm" (t1 -. t0);
  let campaign =
    Campaign.prepare ~seed:spec.Jobspec.seed ~profile:(Jobspec.llm_profile spec) ()
  in
  let t2 = Measure.now () in
  on_phase "prepare" (t2 -. t1);
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Campaign.zeal ~cove:campaign.Campaign.cove ()
  in
  on_phase "filter" (Measure.now () -. t2);
  { spec; campaign; seeds }

let run_campaign ?telemetry ?(profiling = false) ~jobs r =
  Orchestrator.run ~jobs ~shard_size:r.spec.Jobspec.shard_size
    ~config:(Jobspec.config r.spec) ?telemetry ?health:(Jobspec.health r.spec)
    ~profiling ~seed:(Jobspec.fuzz_seed r.spec) ~budget:r.spec.Jobspec.budget
    ~generators:r.campaign.Campaign.generators ~seeds:r.seeds ()

(* report.txt exactly as the campaign server writes it for this spec *)
let report_text r (report : Orchestrator.report) =
  Render.header
    ~generators:(List.length r.campaign.Campaign.generators)
    ~seeds:(List.length r.seeds) ~budget:r.spec.Jobspec.budget
  ^ Render.campaign ~chaos:None report

let digest s = Digest.to_hex (Digest.string s)

(* Pure functions of the seed: they repeat exactly across runs. *)
type exact = {
  fingerprint : string;
  bugs_found : int;
  coverage_points : int;
  validity : float;
  timeout_share : float;
}

let fingerprint_of_texts texts = digest (String.concat "" (List.map digest texts))

(* Over the run's campaigns: distinct bug ids of all of them, coverage
   points summed, ratios over the pooled counts. *)
let exact_of_reports pairs =
  let reports = List.map snd pairs in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let health = List.concat_map (fun rep -> rep.Orchestrator.health) reports in
  let stats = List.map (fun rep -> rep.Orchestrator.stats) reports in
  let cov rep =
    match List.rev (O4a_analytics.Analytics.series rep.Orchestrator.analytics) with
    | p :: _ -> p.O4a_analytics.Analytics.p_cum_cov
    | [] -> 0
  in
  {
    fingerprint = fingerprint_of_texts (List.map (fun (r, rep) -> report_text r rep) pairs);
    bugs_found =
      List.length
        (List.sort_uniq compare
           (List.concat_map (fun rep -> rep.Orchestrator.found_bug_ids) reports));
    coverage_points = sum cov reports;
    validity =
      float_of_int (sum (fun s -> s.Fuzz.parse_ok) stats)
      /. float_of_int (max 1 (sum (fun s -> s.Fuzz.tests) stats));
    timeout_share =
      float_of_int (sum (fun e -> e.O4a_health.Health.timeouts) health)
      /. float_of_int (max 1 (sum (fun e -> e.O4a_health.Health.queries) health));
  }

(* Internal consistency of a campaign report, checked on every run whether
   or not its seed has a pinned fingerprint. *)
let report_problems r (report : Orchestrator.report) =
  let stats = report.Orchestrator.stats in
  let findings = List.length stats.Fuzz.findings in
  let clustered =
    List.fold_left (fun acc c -> acc + c.Once4all.Dedup.count) 0 report.Orchestrator.clusters
  in
  let ids = report.Orchestrator.found_bug_ids in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (stats.Fuzz.tests = r.spec.Jobspec.budget, "tests differ from the budget");
      (stats.Fuzz.parse_ok <= stats.Fuzz.tests, "more parse-ok than tests");
      (stats.Fuzz.solved <= stats.Fuzz.tests, "more solved than tests");
      (clustered = findings, "cluster counts do not sum to the findings");
      (List.sort_uniq compare ids = ids, "bug ids not sorted and distinct");
      ( List.for_all (fun id -> Solver.Bug_db.find id <> None) ids,
        "a bug id unknown to the ground truth" );
      (report.Orchestrator.quarantined = [], "quarantined shards without chaos");
      (not report.Orchestrator.interrupted, "campaign interrupted");
    ]

(* {1 frontend: formula production without solving} *)

type frontend_out = {
  formulas : int;
  parsed : int;  (** fully parsing synthesized formulas *)
  accepted : int;  (** accepted by Cove's front end (parse + sort check) *)
  sources_digest : string;
}

(* One step of the fuzz loop's mutation, exactly as [Fuzz] performs it under
   the default config: skeletonize the current formula and fill its holes,
   or fall back to skeleton-free generation when it has no atoms. *)
let mutate ~tel ~rng ~generators current =
  let config = Fuzz.default_config in
  let skeleton, holes =
    Telemetry.with_span tel "skeletonize" (fun () ->
        Once4all.Skeleton.skeletonize ~rng ~keep_prob:config.Fuzz.keep_prob current)
  in
  if holes = 0 then
    Telemetry.with_span tel "generate" (fun () ->
        Once4all.Synthesize.direct ~rng ~generators
          ~terms:(1 + Rng.int rng config.Fuzz.direct_terms_max))
  else
    Telemetry.with_span tel "synthesize" (fun () ->
        Once4all.Synthesize.fill ~swap_prob:config.Fuzz.adapt_prob ~rng ~generators
          ~skeleton ~holes ())

(* Seed pick, then ten carried-forward mutations per seed (reset to the seed
   once a formula outgrows [max_seed_growth]), each checked by Cove's front
   end. Each layer call runs under a span of [tel], the fuzz loop's own span
   names, so a profile ledger can attribute it in a traced run. *)
let frontend_round ?(tel = Telemetry.disabled) ?(on_source = ignore) ~formulas r =
  let config = Fuzz.default_config in
  let rng = Rng.create (Jobspec.fuzz_seed r.spec) in
  let generators = r.campaign.Campaign.generators in
  let cove = r.campaign.Campaign.cove in
  let n = ref 0 and parsed = ref 0 and accepted = ref 0 in
  let d = ref "" in
  while !n < formulas do
    let seed = Telemetry.with_span tel "seed.select" (fun () -> Rng.choose rng r.seeds) in
    let current = ref seed in
    for _ = 1 to min config.Fuzz.mutations_per_seed (formulas - !n) do
      let filled = mutate ~tel ~rng ~generators !current in
      on_source filled.Once4all.Synthesize.source;
      incr n;
      if filled.Once4all.Synthesize.parsed <> None then incr parsed;
      (match
         Telemetry.with_span tel "parse_check" (fun () ->
             Solver.Engine.parse_check cove filled.Once4all.Synthesize.source)
       with
      | Ok _ -> incr accepted
      | Error _ -> ());
      d := Digest.string (!d ^ filled.Once4all.Synthesize.source);
      current :=
        match filled.Once4all.Synthesize.parsed with
        | Some s when Smtlib.Script.size s <= config.Fuzz.max_seed_growth -> s
        | _ -> seed
    done
  done;
  {
    formulas = !n;
    parsed = !parsed;
    accepted = !accepted;
    sources_digest = Digest.to_hex !d;
  }

let frontend_exact outs =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  {
    fingerprint =
      digest
        (String.concat ";"
           (List.map
              (fun o ->
                Printf.sprintf "%d %d %d %s" o.formulas o.parsed o.accepted o.sources_digest)
              outs));
    bugs_found = 0;
    coverage_points = 0;
    validity =
      float_of_int (sum (fun o -> o.accepted)) /. float_of_int (max 1 (sum (fun o -> o.formulas)));
    timeout_share = 0.;
  }
