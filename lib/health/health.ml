module Json = O4a_telemetry.Json

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type config = {
  window : int;
  threshold : int;
  cooldown : int;
  trip_on_error : bool;
}

(* The threshold is deliberately high: the simulated solvers time out or
   crash on 15-30% of queries when perfectly healthy, and those findings are
   the point of the campaign. Only a solver that is failing most of a window
   — the sick-solver signature — should trip. *)
let default_config =
  { window = 16; threshold = 12; cooldown = 16; trip_on_error = false }

type outcome_class = Good | Timeout | Error | Crash

type decision = Admit | Probe | Suppress

(* Per-(solver, theory) breaker state. The ring holds the last [window]
   recorded outcomes (true = bad); every transition depends only on these
   per-key query counters, so a ledger's history is a pure function of the
   query stream it saw. *)
type key_state = {
  mutable st : state;
  ring : bool array;
  mutable ring_next : int;
  mutable ring_filled : int;
  mutable bad_in_window : int;
  mutable since_open : int;  (* suppressed queries since the last trip *)
  (* cumulative counters, exported as the campaign-level entry *)
  mutable queries : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable crashes : int;
  mutable fuel : int;
  mutable suppressed : int;
  mutable probes : int;
  mutable opened : int;
  mutable reclosed : int;
}

type ledger = {
  config : config;
  live : bool;
  table : (string * string, key_state) Hashtbl.t;
}

let make_ledger config =
  if config.window <= 0 then
    invalid_arg "Health.make_ledger: window must be positive";
  if config.threshold <= 0 then
    invalid_arg "Health.make_ledger: threshold must be positive";
  if config.cooldown <= 0 then
    invalid_arg "Health.make_ledger: cooldown must be positive";
  { config; live = true; table = Hashtbl.create 16 }

let disabled =
  { config = default_config; live = false; table = Hashtbl.create 0 }

let enabled l = l.live

let key_state l ~solver ~theory =
  let key = (solver, theory) in
  match Hashtbl.find_opt l.table key with
  | Some ks -> ks
  | None ->
    let ks =
      {
        st = Closed;
        ring = Array.make l.config.window false;
        ring_next = 0;
        ring_filled = 0;
        bad_in_window = 0;
        since_open = 0;
        queries = 0;
        timeouts = 0;
        errors = 0;
        crashes = 0;
        fuel = 0;
        suppressed = 0;
        probes = 0;
        opened = 0;
        reclosed = 0;
      }
    in
    Hashtbl.add l.table key ks;
    ks

let reset_window ks =
  Array.fill ks.ring 0 (Array.length ks.ring) false;
  ks.ring_next <- 0;
  ks.ring_filled <- 0;
  ks.bad_in_window <- 0

let admit l ~solver ~theory =
  if not l.live then (Admit, None)
  else (
    let ks = key_state l ~solver ~theory in
    match ks.st with
    | Closed -> (Admit, None)
    | Half_open ->
      (* a previous probe was admitted but never recorded (e.g. the whole
         oracle test was abandoned); probe again *)
      ks.probes <- ks.probes + 1;
      (Probe, None)
    | Open ->
      ks.since_open <- ks.since_open + 1;
      ks.suppressed <- ks.suppressed + 1;
      if ks.since_open >= l.config.cooldown then (
        ks.st <- Half_open;
        ks.probes <- ks.probes + 1;
        (Probe, Some Half_open))
      else (Suppress, None))

let record l ~solver ~theory ~probe ~fuel cls =
  if not l.live then None
  else (
    let ks = key_state l ~solver ~theory in
    ks.queries <- ks.queries + 1;
    ks.fuel <- ks.fuel + fuel;
    (match cls with
    | Good -> ()
    | Timeout -> ks.timeouts <- ks.timeouts + 1
    | Error -> ks.errors <- ks.errors + 1
    | Crash -> ks.crashes <- ks.crashes + 1);
    let bad =
      match cls with
      | Timeout | Crash -> true
      | Error -> l.config.trip_on_error
      | Good -> false
    in
    if probe && ks.st = Half_open then
      if bad then (
        ks.st <- Open;
        ks.since_open <- 0;
        ks.opened <- ks.opened + 1;
        reset_window ks;
        Some Open)
      else (
        ks.st <- Closed;
        ks.reclosed <- ks.reclosed + 1;
        ks.since_open <- 0;
        reset_window ks;
        Some Closed)
    else (
      (* sliding window: evict the outcome [window] queries ago *)
      let evicted = ks.ring.(ks.ring_next) in
      ks.ring.(ks.ring_next) <- bad;
      ks.ring_next <- (ks.ring_next + 1) mod Array.length ks.ring;
      if ks.ring_filled < Array.length ks.ring then
        ks.ring_filled <- ks.ring_filled + 1
      else if evicted then ks.bad_in_window <- ks.bad_in_window - 1;
      if bad then ks.bad_in_window <- ks.bad_in_window + 1;
      if ks.st = Closed && ks.bad_in_window >= l.config.threshold then (
        ks.st <- Open;
        ks.since_open <- 0;
        ks.opened <- ks.opened + 1;
        reset_window ks;
        Some Open)
      else None))

let state l ~solver ~theory =
  if not l.live then Closed
  else (
    match Hashtbl.find_opt l.table (solver, theory) with
    | Some ks -> ks.st
    | None -> Closed)

type entry = {
  e_solver : string;
  e_theory : string;
  queries : int;
  timeouts : int;
  errors : int;
  crashes : int;
  fuel : int;
  suppressed : int;
  probes : int;
  opened : int;
  reclosed : int;
}

let entry_of_key (solver, theory) (ks : key_state) =
  {
    e_solver = solver;
    e_theory = theory;
    queries = ks.queries;
    timeouts = ks.timeouts;
    errors = ks.errors;
    crashes = ks.crashes;
    fuel = ks.fuel;
    suppressed = ks.suppressed;
    probes = ks.probes;
    opened = ks.opened;
    reclosed = ks.reclosed;
  }

let compare_entries a b =
  compare (a.e_solver, a.e_theory) (b.e_solver, b.e_theory)

let export l =
  Hashtbl.fold (fun key ks acc -> entry_of_key key ks :: acc) l.table []
  |> List.sort compare_entries

let add_entries a b =
  {
    e_solver = a.e_solver;
    e_theory = a.e_theory;
    queries = a.queries + b.queries;
    timeouts = a.timeouts + b.timeouts;
    errors = a.errors + b.errors;
    crashes = a.crashes + b.crashes;
    fuel = a.fuel + b.fuel;
    suppressed = a.suppressed + b.suppressed;
    probes = a.probes + b.probes;
    opened = a.opened + b.opened;
    reclosed = a.reclosed + b.reclosed;
  }

let merge a b =
  let tbl = Hashtbl.create 16 in
  let absorb e =
    let key = (e.e_solver, e.e_theory) in
    match Hashtbl.find_opt tbl key with
    | Some prev -> Hashtbl.replace tbl key (add_entries prev e)
    | None -> Hashtbl.add tbl key e
  in
  List.iter absorb a;
  List.iter absorb b;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] |> List.sort compare_entries

let entry_to_json e =
  Json.Obj
    [
      ("solver", Json.String e.e_solver);
      ("theory", Json.String e.e_theory);
      ("queries", Json.Int e.queries);
      ("timeouts", Json.Int e.timeouts);
      ("errors", Json.Int e.errors);
      ("crashes", Json.Int e.crashes);
      ("fuel", Json.Int e.fuel);
      ("suppressed", Json.Int e.suppressed);
      ("probes", Json.Int e.probes);
      ("opened", Json.Int e.opened);
      ("reclosed", Json.Int e.reclosed);
    ]

let entry_to_string e =
  Printf.sprintf
    "%s/%s  queries %d  timeouts %d  errors %d  crashes %d  opened %d  \
     reclosed %d  suppressed %d  probes %d"
    e.e_solver e.e_theory e.queries e.timeouts e.errors e.crashes e.opened
    e.reclosed e.suppressed e.probes

open Json.Decode

let req name = req "health" name

let entry_of_json json =
  let* e_solver = req "solver" Json.to_str json in
  let* e_theory = req "theory" Json.to_str json in
  let* queries = req "queries" Json.to_int json in
  let* timeouts = req "timeouts" Json.to_int json in
  let* errors = req "errors" Json.to_int json in
  let* crashes = req "crashes" Json.to_int json in
  let* fuel = req "fuel" Json.to_int json in
  let* suppressed = req "suppressed" Json.to_int json in
  let* probes = req "probes" Json.to_int json in
  let* opened = req "opened" Json.to_int json in
  let* reclosed = req "reclosed" Json.to_int json in
  Ok
    {
      e_solver;
      e_theory;
      queries;
      timeouts;
      errors;
      crashes;
      fuel;
      suppressed;
      probes;
      opened;
      reclosed;
    }

(* Domain-local, like the coverage ledger and the ambient telemetry handle:
   each worker installs its per-shard-attempt ledger without disturbing
   other domains. *)
let ambient_key : ledger Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)

let ambient () = Domain.DLS.get ambient_key

let using l f = O4a_util.Ambient.using ambient_key l f
