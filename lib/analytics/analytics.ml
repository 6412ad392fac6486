module Json = O4a_telemetry.Json

type sample = {
  bucket : int;
  first_tick : int;
  ticks : int;
  tests : int;
  parse_ok : int;
  solved : int;
  findings : int;
  consults : int;
  fuel : int;
  cov_points : string list;
  clusters : string list;
}

type yield_row = {
  y_theory : string;
  y_profile : string;
  y_seed_cluster : string;
  y_tests : int;
  y_parse_ok : int;
  y_findings : int;
}

type t = { samples : sample list; yield : yield_row list }

let empty = { samples = []; yield = [] }

(* ------------------------------ merge ------------------------------ *)

let union_sorted a b = List.sort_uniq compare (List.rev_append a b)

let add_sample a b =
  {
    bucket = a.bucket;
    first_tick = min a.first_tick b.first_tick;
    ticks = max a.ticks b.ticks;
    tests = a.tests + b.tests;
    parse_ok = a.parse_ok + b.parse_ok;
    solved = a.solved + b.solved;
    findings = a.findings + b.findings;
    consults = a.consults + b.consults;
    fuel = a.fuel + b.fuel;
    cov_points = union_sorted a.cov_points b.cov_points;
    clusters = union_sorted a.clusters b.clusters;
  }

let canon_sample s =
  { s with
    cov_points = List.sort_uniq compare s.cov_points;
    clusters = List.sort_uniq compare s.clusters }

let ykey r = (r.y_theory, r.y_profile, r.y_seed_cluster)

let add_yield a b =
  { a with
    y_tests = a.y_tests + b.y_tests;
    y_parse_ok = a.y_parse_ok + b.y_parse_ok;
    y_findings = a.y_findings + b.y_findings }

let merge a b =
  let stbl = Hashtbl.create 31 in
  let absorb_sample s =
    let s = canon_sample s in
    match Hashtbl.find_opt stbl s.bucket with
    | None -> Hashtbl.replace stbl s.bucket s
    | Some prev -> Hashtbl.replace stbl s.bucket (add_sample prev s)
  in
  List.iter absorb_sample a.samples;
  List.iter absorb_sample b.samples;
  let samples =
    Hashtbl.fold (fun _ s acc -> s :: acc) stbl []
    |> List.sort (fun x y -> compare x.bucket y.bucket)
  in
  let ytbl = Hashtbl.create 31 in
  let absorb_yield r =
    match Hashtbl.find_opt ytbl (ykey r) with
    | None -> Hashtbl.replace ytbl (ykey r) r
    | Some prev -> Hashtbl.replace ytbl (ykey r) (add_yield prev r)
  in
  List.iter absorb_yield a.yield;
  List.iter absorb_yield b.yield;
  let yield =
    Hashtbl.fold (fun _ r acc -> r :: acc) ytbl []
    |> List.sort (fun x y -> compare (ykey x) (ykey y))
  in
  { samples; yield }

let total_tests t = List.fold_left (fun acc s -> acc + s.tests) 0 t.samples
let total_findings t =
  List.fold_left (fun acc s -> acc + s.findings) 0 t.samples

(* ------------------------------ json ------------------------------- *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let sample_to_json s =
  Json.Obj
    [
      ("bucket", Json.Int s.bucket);
      ("first_tick", Json.Int s.first_tick);
      ("ticks", Json.Int s.ticks);
      ("tests", Json.Int s.tests);
      ("parse_ok", Json.Int s.parse_ok);
      ("solved", Json.Int s.solved);
      ("findings", Json.Int s.findings);
      ("consults", Json.Int s.consults);
      ("fuel", Json.Int s.fuel);
      ("cov_points", strings s.cov_points);
      ("clusters", strings s.clusters);
    ]

let yield_to_json r =
  Json.Obj
    [
      ("theory", Json.String r.y_theory);
      ("profile", Json.String r.y_profile);
      ("seed_cluster", Json.String r.y_seed_cluster);
      ("tests", Json.Int r.y_tests);
      ("parse_ok", Json.Int r.y_parse_ok);
      ("findings", Json.Int r.y_findings);
    ]

let to_json t =
  Json.Obj
    [
      ("samples", Json.List (List.map sample_to_json t.samples));
      ("yield", Json.List (List.map yield_to_json t.yield));
    ]

open Json.Decode

(* analytics errors name the field's expected type *)
let missing kind name =
  Error (Printf.sprintf "analytics: missing %s field %S" kind name)

let req kind conv name json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> missing kind name

let req_int = req "int" Json.to_int
let req_str = req "string" Json.to_str

let req_strings name json =
  match Json.member name json with
  | Some (Json.List l) ->
    map_result
      (function
        | Json.String s -> Ok s
        | _ -> Error (Printf.sprintf "analytics: %S holds a non-string" name))
      l
  | _ -> missing "list" name

let sample_of_json json =
  let* bucket = req_int "bucket" json in
  let* first_tick = req_int "first_tick" json in
  let* ticks = req_int "ticks" json in
  let* tests = req_int "tests" json in
  let* parse_ok = req_int "parse_ok" json in
  let* solved = req_int "solved" json in
  let* findings = req_int "findings" json in
  let* consults = req_int "consults" json in
  let* fuel = req_int "fuel" json in
  let* cov_points = req_strings "cov_points" json in
  let* clusters = req_strings "clusters" json in
  Ok
    { bucket; first_tick; ticks; tests; parse_ok; solved; findings;
      consults; fuel; cov_points; clusters }

let yield_of_json json =
  let* y_theory = req_str "theory" json in
  let* y_profile = req_str "profile" json in
  let* y_seed_cluster = req_str "seed_cluster" json in
  let* y_tests = req_int "tests" json in
  let* y_parse_ok = req_int "parse_ok" json in
  let* y_findings = req_int "findings" json in
  Ok { y_theory; y_profile; y_seed_cluster; y_tests; y_parse_ok; y_findings }

let of_json json =
  let list_field name =
    match Json.member name json with
    | Some (Json.List l) -> Ok l
    | _ -> missing "list" name
  in
  let* samples_json = list_field "samples" in
  let* yield_json = list_field "yield" in
  let* samples = map_result sample_of_json samples_json in
  let* yield = map_result yield_of_json yield_json in
  (* re-canonicalise so hand-edited or reordered checkpoints still merge
     and render deterministically *)
  Ok (merge { samples; yield } empty)

(* ------------------------- derived series -------------------------- *)

type point = {
  p_bucket : int;
  p_first_tick : int;
  p_ticks : int;
  p_tests : int;
  p_parse_ok : int;
  p_solved : int;
  p_findings : int;
  p_consults : int;
  p_fuel : int;
  p_new_cov : int;
  p_cum_cov : int;
  p_new_clusters : int;
  p_cum_clusters : int;
}

let series t =
  let seen_cov = Hashtbl.create 256 and seen_cl = Hashtbl.create 32 in
  let first_seen tbl keys =
    List.fold_left
      (fun acc k ->
        if Hashtbl.mem tbl k then acc
        else (Hashtbl.replace tbl k (); acc + 1))
      0 keys
  in
  List.map
    (fun s ->
      let new_cov = first_seen seen_cov s.cov_points in
      let new_cl = first_seen seen_cl s.clusters in
      {
        p_bucket = s.bucket;
        p_first_tick = s.first_tick;
        p_ticks = s.ticks;
        p_tests = s.tests;
        p_parse_ok = s.parse_ok;
        p_solved = s.solved;
        p_findings = s.findings;
        p_consults = s.consults;
        p_fuel = s.fuel;
        p_new_cov = new_cov;
        p_cum_cov = Hashtbl.length seen_cov;
        p_new_clusters = new_cl;
        p_cum_clusters = Hashtbl.length seen_cl;
      })
    t.samples

(* ------------------------ plateau detection ------------------------ *)

type plateau = {
  pl_series : string;
  pl_bucket : int;
  pl_tick : int;
  pl_window : int;
  pl_value : int;
}

let default_window = 4
let plateau_event_name = "analytics.plateau"

let plateaus ?(window = default_window) t =
  if window <= 0 then invalid_arg "Analytics.plateaus: window must be > 0";
  let pts = Array.of_list (series t) in
  let find name value =
    let rec go i =
      if i >= Array.length pts then None
      else if value pts.(i) = value pts.(i - window) then
        Some
          {
            pl_series = name;
            pl_bucket = pts.(i).p_bucket;
            pl_tick = pts.(i).p_first_tick + pts.(i).p_ticks;
            pl_window = window;
            pl_value = value pts.(i);
          }
      else go (i + 1)
    in
    if Array.length pts <= window then None else go window
  in
  List.filter_map Fun.id
    [
      find "coverage" (fun p -> p.p_cum_cov);
      find "clusters" (fun p -> p.p_cum_clusters);
    ]

(* ----------------------------- rendering --------------------------- *)

let sparkline values =
  let levels = " .:-=+*#@" in
  let n = String.length levels in
  match values with
  | [] -> ""
  | _ ->
    let hi = List.fold_left max 0. values in
    let cell v =
      if hi <= 0. then levels.[0]
      else
        let i = int_of_float (v /. hi *. float_of_int (n - 1) +. 0.5) in
        levels.[max 0 (min (n - 1) i)]
    in
    String.init (List.length values) (fun i -> cell (List.nth values i))

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "bucket,first_tick,ticks,tests,parse_ok,solved,findings,consults,fuel,\
     new_cov,cum_cov,new_clusters,cum_clusters\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" p.p_bucket
           p.p_first_tick p.p_ticks p.p_tests p.p_parse_ok p.p_solved
           p.p_findings p.p_consults p.p_fuel p.p_new_cov p.p_cum_cov
           p.p_new_clusters p.p_cum_clusters))
    (series t);
  Buffer.contents b

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_prometheus t =
  let b = Buffer.create 1024 in
  let metric ?(kind = "counter") ?help name value =
    Option.iter
      (fun h -> Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name h))
      help;
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
    Buffer.add_string b (Printf.sprintf "%s %d\n" name value)
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 t.samples in
  let pts = series t in
  let last f = match List.rev pts with [] -> 0 | p :: _ -> f p in
  metric "once4all_ticks_total" ~help:"Planned ticks merged so far."
    (total (fun s -> s.ticks));
  metric "once4all_tests_total" ~help:"Tests executed." (total (fun s -> s.tests));
  metric "once4all_parse_ok_total" (total (fun s -> s.parse_ok));
  metric "once4all_solved_total" (total (fun s -> s.solved));
  metric "once4all_findings_total" (total (fun s -> s.findings));
  metric "once4all_consults_total" (total (fun s -> s.consults));
  metric "once4all_fuel_total" (total (fun s -> s.fuel));
  metric ~kind:"gauge" "once4all_samples" (List.length t.samples);
  metric ~kind:"gauge" "once4all_coverage_points"
    ~help:"Distinct coverage points over merged buckets."
    (last (fun p -> p.p_cum_cov));
  metric ~kind:"gauge" "once4all_dedup_clusters" (last (fun p -> p.p_cum_clusters));
  List.iter
    (fun pl ->
      Buffer.add_string b
        (Printf.sprintf "# TYPE once4all_plateau_tick gauge\n");
      Buffer.add_string b
        (Printf.sprintf "once4all_plateau_tick{series=\"%s\",window=\"%d\"} %d\n"
           (escape_label pl.pl_series) pl.pl_window pl.pl_tick))
    (plateaus t);
  let yield_metric name f =
    Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf
             "%s{theory=\"%s\",profile=\"%s\",seed_cluster=\"%s\"} %d\n" name
             (escape_label r.y_theory) (escape_label r.y_profile)
             (escape_label r.y_seed_cluster) (f r)))
      t.yield
  in
  if t.yield <> [] then begin
    yield_metric "once4all_yield_tests" (fun r -> r.y_tests);
    yield_metric "once4all_yield_findings" (fun r -> r.y_findings)
  end;
  Buffer.contents b

(* ------------------------------ ledger ----------------------------- *)

type ycell = {
  mutable c_tests : int;
  mutable c_parse_ok : int;
  mutable c_findings : int;
}

type ledger = {
  live : bool;
  profile : string;
  mutable l_consults : int;
  mutable l_fuel : int;
  ytbl : (string * string, ycell) Hashtbl.t;  (** (theory, seed cluster) *)
}

let make_ledger ~profile () =
  { live = true; profile; l_consults = 0; l_fuel = 0; ytbl = Hashtbl.create 31 }

let disabled =
  { live = false; profile = ""; l_consults = 0; l_fuel = 0;
    ytbl = Hashtbl.create 1 }

let ambient_key : ledger Domain.DLS.key =
  Domain.DLS.new_key (fun () -> disabled)

let recording () = (Domain.DLS.get ambient_key).live

let using l f = O4a_util.Ambient.using ambient_key l f

let consult ?(fuel = 0) () =
  let l = Domain.DLS.get ambient_key in
  if l.live then begin
    l.l_consults <- l.l_consults + 1;
    l.l_fuel <- l.l_fuel + fuel
  end

let record_test ~theories ~seed_cluster ~parse_ok ~found () =
  let l = Domain.DLS.get ambient_key in
  if l.live then begin
    let theories =
      match List.sort_uniq compare theories with [] -> [ "none" ] | ts -> ts
    in
    List.iter
      (fun theory ->
        let cell =
          match Hashtbl.find_opt l.ytbl (theory, seed_cluster) with
          | Some c -> c
          | None ->
            let c = { c_tests = 0; c_parse_ok = 0; c_findings = 0 } in
            Hashtbl.replace l.ytbl (theory, seed_cluster) c;
            c
        in
        cell.c_tests <- cell.c_tests + 1;
        if parse_ok then cell.c_parse_ok <- cell.c_parse_ok + 1;
        if found then cell.c_findings <- cell.c_findings + 1)
      theories
  end

let export l ~bucket ~first_tick ~ticks ~tests ~parse_ok ~solved ~findings
    ~cov_points ~clusters =
  let sample =
    canon_sample
      { bucket; first_tick; ticks; tests; parse_ok; solved; findings;
        consults = l.l_consults; fuel = l.l_fuel; cov_points; clusters }
  in
  let yield =
    Hashtbl.fold
      (fun (theory, cluster) c acc ->
        { y_theory = theory; y_profile = l.profile; y_seed_cluster = cluster;
          y_tests = c.c_tests; y_parse_ok = c.c_parse_ok;
          y_findings = c.c_findings }
        :: acc)
      l.ytbl []
    |> List.sort (fun a b -> compare (ykey a) (ykey b))
  in
  { samples = [ sample ]; yield }
