module Json = O4a_telemetry.Json
module Faults = O4a_faults.Faults
module Health = O4a_health.Health
module Checkpoint = Orchestrator.Checkpoint

type t = {
  name : string;
  seed : int;
  budget : int;
  shard_size : int;
  quota : int;
  profile : string;
  use_skeletons : bool;
  trace : bool;
  telemetry : bool;
  chaos_profile : string;
  chaos_seed : int;
  chaos_rate : float;
  breakers : bool;
  breaker_window : int;
  breaker_threshold : int;
}

let default ~name =
  {
    name;
    seed = 42;
    budget = 2000;
    shard_size = Orchestrator.default_shard_size;
    quota = 1;
    profile = "gpt-4";
    use_skeletons = true;
    trace = false;
    telemetry = false;
    chaos_profile = "off";
    chaos_seed = 1;
    chaos_rate = Faults.default_rate;
    breakers = true;
    breaker_window = Health.default_config.Health.window;
    breaker_threshold = Health.default_config.Health.threshold;
  }

(* job names become state-directory names and wire identifiers, so keep them
   to a filesystem- and JSON-safe alphabet *)
let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       name
  && name.[0] <> '.'

let validate t =
  if not (name_ok t.name) then
    Error
      (Printf.sprintf
         "invalid job name %S (want 1-64 chars of [a-zA-Z0-9._-], not \
          starting with a dot)"
         t.name)
  else if t.budget < 1 then Error "budget must be >= 1"
  else if t.shard_size < 1 then Error "shard_size must be >= 1"
  else if t.quota < 1 then Error "quota must be >= 1"
  else if t.breaker_window < 1 || t.breaker_threshold < 1 then
    Error "breaker_window and breaker_threshold must be >= 1"
  else if Option.is_none (Llm_sim.Profile.find t.profile) then
    Error (Printf.sprintf "unknown LLM profile %S" t.profile)
  else (
    match Faults.profile_of_string t.chaos_profile with
    | None -> Error (Printf.sprintf "unknown chaos profile %S" t.chaos_profile)
    | Some _ -> Ok ())

let llm_profile t =
  match Llm_sim.Profile.find t.profile with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Jobspec.llm_profile: %S" t.profile)

let chaos t =
  match Faults.profile_of_string t.chaos_profile with
  | None | Some Faults.Off -> None
  | Some profile ->
    Some (Faults.plan ~rate:t.chaos_rate ~chaos_seed:t.chaos_seed profile)

let health t =
  if not t.breakers then None
  else
    Some
      {
        Health.default_config with
        Health.window = t.breaker_window;
        threshold = t.breaker_threshold;
        (* cooldown tracks the window, as the CLI's --breaker-window does *)
        cooldown = t.breaker_window;
      }

let config t =
  { Once4all.Fuzz.default_config with Once4all.Fuzz.use_skeletons = t.use_skeletons }

let fuzz_seed t = t.seed + 1

type prepared = {
  generators : Gensynth.Generator.t list;
  seeds : Smtlib.Script.t list;
  env : Orchestrator.exec_env;
}

(* The one spec -> campaign pipeline: the CLI's fuzz/resume, the daemon's
   jobs and remote workers all build their campaign here. The env is a pure
   function of the spec, so a shard executed on any of them is bit-for-bit
   the same shard. *)
let prepare t =
  let profile = llm_profile t in
  let campaign = Once4all.Campaign.prepare ~seed:t.seed ~profile () in
  let generators = campaign.Once4all.Campaign.generators in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let env =
    Orchestrator.make_env ~config:(config t) ~tel_enabled:true ~tracing:t.trace
      ?chaos:(chaos t) ?health:(health t)
      ~gen_profile:profile.Llm_sim.Profile.name ~seed:(fuzz_seed t)
      ~generators ~seeds ()
  in
  { generators; seeds; env }

(* Checkpoint provenance. This list IS the campaign's identity beyond
   (seed, budget, shard_size): the CLI and the server both derive it from a
   spec through this one function, which is what makes their checkpoints
   interchangeable — a campaign submitted to the server can be resumed by
   `once4all resume` and vice versa. *)
let extra t =
  [
    ("cli_seed", string_of_int t.seed);
    ("profile", (llm_profile t).Llm_sim.Profile.name);
    ("use_skeletons", if t.use_skeletons then "true" else "false");
  ]
  @ (match chaos t with
    | None -> []
    | Some (plan : Faults.plan) ->
      [
        ("chaos_profile", Faults.profile_to_string plan.Faults.profile);
        ("chaos_seed", string_of_int plan.Faults.chaos_seed);
        ("chaos_rate", Printf.sprintf "%g" plan.Faults.rate);
      ])
  @
  match health t with
  | None -> [ ("breakers", "off") ]
  | Some (cfg : Health.config) ->
    [
      ("breakers", "on");
      ("breaker_window", string_of_int cfg.Health.window);
      ("breaker_threshold", string_of_int cfg.Health.threshold);
    ]

(* The inverse derivation: rebuild the spec a checkpoint was written under,
   from its provenance record — how `resume`, `resume-job`, and a restarted
   server re-arm the exact generator pool, fault plan, and breaker config. *)
let of_checkpoint ~name (cp : Checkpoint.t) =
  let find key d =
    Option.value (List.assoc_opt key cp.Checkpoint.extra) ~default:d
  in
  let d = default ~name in
  {
    d with
    seed =
      (match int_of_string_opt (find "cli_seed" "") with
      | Some s -> s
      | None -> cp.Checkpoint.seed - 1);
    budget = cp.Checkpoint.budget;
    shard_size = cp.Checkpoint.shard_size;
    profile = find "profile" "gpt-4";
    use_skeletons = find "use_skeletons" "true" <> "false";
    chaos_profile = find "chaos_profile" "off";
    chaos_seed =
      Option.value ~default:1 (int_of_string_opt (find "chaos_seed" "1"));
    chaos_rate =
      Option.value ~default:Faults.default_rate
        (float_of_string_opt
           (find "chaos_rate" (string_of_float Faults.default_rate)));
    breakers = find "breakers" "off" = "on";
    breaker_window =
      Option.value
        ~default:Health.default_config.Health.window
        (int_of_string_opt (find "breaker_window" ""));
    breaker_threshold =
      Option.value
        ~default:Health.default_config.Health.threshold
        (int_of_string_opt (find "breaker_threshold" ""));
  }

let to_json t =
  Json.Obj
    [
      ("name", Json.String t.name);
      ("seed", Json.Int t.seed);
      ("budget", Json.Int t.budget);
      ("shard_size", Json.Int t.shard_size);
      ("quota", Json.Int t.quota);
      ("profile", Json.String t.profile);
      ("use_skeletons", Json.Bool t.use_skeletons);
      ("trace", Json.Bool t.trace);
      ("telemetry", Json.Bool t.telemetry);
      ("chaos", Json.String t.chaos_profile);
      ("chaos_seed", Json.Int t.chaos_seed);
      ("chaos_rate", Json.Float t.chaos_rate);
      ("breakers", Json.Bool t.breakers);
      ("breaker_window", Json.Int t.breaker_window);
      ("breaker_threshold", Json.Int t.breaker_threshold);
    ]

(* lenient decode: only "name" is required, everything else defaults — a
   submission can be as terse as {"name":"smoke","budget":500} *)
let of_json json =
  match Option.bind (Json.member "name" json) Json.to_str with
  | None -> Error "job spec: missing or invalid field \"name\""
  | Some name ->
    let d = default ~name in
    let int k dv = Option.value ~default:dv (Option.bind (Json.member k json) Json.to_int) in
    let flt k dv = Option.value ~default:dv (Option.bind (Json.member k json) Json.to_float) in
    let str k dv = Option.value ~default:dv (Option.bind (Json.member k json) Json.to_str) in
    let bool k dv = Option.value ~default:dv (Option.bind (Json.member k json) Json.to_bool) in
    let t =
      {
        name;
        seed = int "seed" d.seed;
        budget = int "budget" d.budget;
        shard_size = int "shard_size" d.shard_size;
        quota = int "quota" d.quota;
        profile = str "profile" d.profile;
        use_skeletons = bool "use_skeletons" d.use_skeletons;
        trace = bool "trace" d.trace;
        telemetry = bool "telemetry" d.telemetry;
        chaos_profile = str "chaos" d.chaos_profile;
        chaos_seed = int "chaos_seed" d.chaos_seed;
        chaos_rate = flt "chaos_rate" d.chaos_rate;
        breakers = bool "breakers" d.breakers;
        breaker_window = int "breaker_window" d.breaker_window;
        breaker_threshold = int "breaker_threshold" d.breaker_threshold;
      }
    in
    Result.map (fun () -> t) (validate t)
