module Telemetry = O4a_telemetry.Telemetry
module Json = O4a_telemetry.Json

type entry = {
  stage : string;
  calls : int;
  wall_ns : int;
  alloc_words : int;
  promoted_words : int;
  consults : int;
  fuel : int;
}

type t = { ticks : int; alloc_words : int; stages : entry list }

let empty = { ticks = 0; alloc_words = 0; stages = [] }

let sort_stages = List.sort (fun a b -> compare a.stage b.stage)

let merge a b =
  let tbl : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  let add e =
    match Hashtbl.find_opt tbl e.stage with
    | None -> Hashtbl.replace tbl e.stage e
    | Some p ->
      Hashtbl.replace tbl e.stage
        {
          stage = e.stage;
          calls = p.calls + e.calls;
          wall_ns = p.wall_ns + e.wall_ns;
          alloc_words = p.alloc_words + e.alloc_words;
          promoted_words = p.promoted_words + e.promoted_words;
          consults = p.consults + e.consults;
          fuel = p.fuel + e.fuel;
        }
  in
  List.iter add a.stages;
  List.iter add b.stages;
  {
    ticks = a.ticks + b.ticks;
    alloc_words = a.alloc_words + b.alloc_words;
    stages = sort_stages (Hashtbl.fold (fun _ e acc -> e :: acc) tbl []);
  }

let strip_timing t =
  {
    t with
    stages =
      List.map
        (fun e -> { e with wall_ns = 0; alloc_words = 0; promoted_words = 0 })
        t.stages;
  }

let total f t = List.fold_left (fun acc e -> acc + f e) 0 t.stages
let total_wall_ns = total (fun e -> e.wall_ns)
let total_alloc_words t = t.alloc_words
let total_consults = total (fun e -> e.consults)
let total_fuel = total (fun e -> e.fuel)

let display_name = function
  | "synthesize" -> "fill"
  | "adapt" -> "sort-adapt"
  | "solver.run" -> "solve"
  | "oracle.compare" -> "oracle"
  | "seed.select" -> "seed-select"
  | s -> s

let entry_to_json e =
  Json.Obj
    [
      ("stage", Json.String e.stage);
      ("calls", Json.Int e.calls);
      ("wall_ns", Json.Int e.wall_ns);
      ("alloc_words", Json.Int e.alloc_words);
      ("promoted_words", Json.Int e.promoted_words);
      ("consults", Json.Int e.consults);
      ("fuel", Json.Int e.fuel);
    ]

let to_json t =
  Json.Obj
    [
      ("ticks", Json.Int t.ticks);
      ("alloc_words", Json.Int t.alloc_words);
      ("stages", Json.List (List.map entry_to_json t.stages));
    ]

(* the shard-outcome wire codec is the only reader, so errors keep its
   "wire" prefix *)
let of_json json =
  let open Json.Decode in
  let req name = req "wire" name in
  let entry_of_json json =
    let* stage = req "stage" Json.to_str json in
    let* calls = req "calls" Json.to_int json in
    let* wall_ns = req "wall_ns" Json.to_int json in
    let* alloc_words = req "alloc_words" Json.to_int json in
    let* promoted_words = req "promoted_words" Json.to_int json in
    let* consults = req "consults" Json.to_int json in
    let* fuel = req "fuel" Json.to_int json in
    Ok { stage; calls; wall_ns; alloc_words; promoted_words; consults; fuel }
  in
  let* ticks = req "ticks" Json.to_int json in
  let* alloc_words = req "alloc_words" Json.to_int json in
  let* stages = list_field "wire" "stages" json in
  let* stages = map_result entry_of_json stages in
  Ok { ticks; alloc_words; stages }

(* ------------------------------------------------------------------ *)
(* Ledgers                                                             *)
(* ------------------------------------------------------------------ *)

type cell = {
  mutable c_calls : int;
  mutable c_wall : float;  (* seconds *)
  mutable c_alloc : float;  (* words *)
  mutable c_promoted : float;
  mutable c_consults : int;
  mutable c_fuel : int;
}

type ledger = {
  live : bool;
  cells : (string, cell) Hashtbl.t;
  mutable stack : cell list;
  mutable last_wall : float;
  mutable last_alloc : float;
  mutable last_promoted : float;
  mutable l_ticks : int;
  mutable l_alloc_exact : int;  (* accumulated exact {!using}-scope totals *)
}

let make_ledger () =
  {
    live = true;
    cells = Hashtbl.create 16;
    stack = [];
    last_wall = 0.;
    last_alloc = 0.;
    last_promoted = 0.;
    l_ticks = 0;
    l_alloc_exact = 0;
  }

(* every operation checks [live] before touching state, so one shared
   disabled ledger is safe across domains *)
let disabled =
  {
    live = false;
    cells = Hashtbl.create 1;
    stack = [];
    last_wall = 0.;
    last_alloc = 0.;
    last_promoted = 0.;
    l_ticks = 0;
    l_alloc_exact = 0;
  }

let enabled l = l.live

let cell_for l stage =
  match Hashtbl.find_opt l.cells stage with
  | Some c -> c
  | None ->
    let c =
      { c_calls = 0; c_wall = 0.; c_alloc = 0.; c_promoted = 0.; c_consults = 0; c_fuel = 0 }
    in
    Hashtbl.replace l.cells stage c;
    c

(* [minor + major - promoted] counts the words this domain's code allocated:
   promoted words appear in both the minor and major totals, so subtracting
   them cancels promotion out of the sum. The raw counter is still only
   approximate — the runtime's [minor_words] misses part of the minor heap's
   current fill, an error that moves with the GC schedule (and, on OCaml 5,
   with the stop-the-world collections other domains trigger). Raw samples
   are therefore good enough for per-stage attribution but not for a
   deterministic counter; see {!exact_alloc}. *)
let sample () =
  let wall = Unix.gettimeofday () in
  let minor, promoted, major = Gc.counters () in
  (wall, minor +. major -. promoted, promoted)

(* The deterministic reading: an empty minor heap has no fill term, so
   forcing a minor collection immediately before sampling makes the counter
   exact — byte-identical for the same workload at any [--jobs], regardless
   of what other domains do. Only taken at {!using} boundaries (per shard
   attempt), where a minor collection costs nothing measurable. *)
let exact_alloc () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* charge the delta since the last sample to the stage on top of the stack *)
let charge l =
  let wall, alloc, promoted = sample () in
  (match l.stack with
  | top :: _ ->
    top.c_wall <- top.c_wall +. (wall -. l.last_wall);
    top.c_alloc <- top.c_alloc +. (alloc -. l.last_alloc);
    top.c_promoted <- top.c_promoted +. (promoted -. l.last_promoted)
  | [] -> ());
  l.last_wall <- wall;
  l.last_alloc <- alloc;
  l.last_promoted <- promoted

let enter l stage =
  if l.live then (
    charge l;
    let c = cell_for l stage in
    c.c_calls <- c.c_calls + 1;
    l.stack <- c :: l.stack)

let leave l _stage =
  if l.live then (
    charge l;
    match l.stack with _ :: rest -> l.stack <- rest | [] -> ())

let export l =
  let stages =
    Hashtbl.fold
      (fun stage c acc ->
        {
          stage;
          calls = c.c_calls;
          wall_ns = int_of_float (c.c_wall *. 1e9);
          alloc_words = int_of_float c.c_alloc;
          promoted_words = int_of_float c.c_promoted;
          consults = c.c_consults;
          fuel = c.c_fuel;
        }
        :: acc)
      l.cells []
  in
  { ticks = l.l_ticks; alloc_words = l.l_alloc_exact; stages = sort_stages stages }

let ambient_key : ledger Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)
let ambient () = Domain.DLS.get ambient_key
let recording () = (Domain.DLS.get ambient_key).live

let consult ?(fuel = 0) () =
  let l = Domain.DLS.get ambient_key in
  if l.live then (
    match l.stack with
    | top :: _ ->
      top.c_consults <- top.c_consults + 1;
      top.c_fuel <- top.c_fuel + fuel
    | [] -> ())

let tick () =
  let l = Domain.DLS.get ambient_key in
  if l.live then l.l_ticks <- l.l_ticks + 1

let using l f =
  if not l.live then f ()
  else
    O4a_util.Ambient.using ambient_key l @@ fun () ->
    let hook = { Telemetry.on_enter = enter l; on_leave = leave l } in
    (* warm up this domain's first-touch state (span-hook DLS slot growth,
       counter-sample boxing) before the baseline: a fresh worker domain's
       first shard must count the same words as every later one *)
    Telemetry.with_span_hook hook (fun () -> ());
    ignore (Sys.opaque_identity (sample ()));
    let alloc0 = exact_alloc () in
    let wall, alloc, promoted = sample () in
    l.last_wall <- wall;
    l.last_alloc <- alloc;
    l.last_promoted <- promoted;
    let root = cell_for l "other" in
    root.c_calls <- root.c_calls + 1;
    l.stack <- [ root ];
    Fun.protect
      ~finally:(fun () ->
        charge l;
        l.stack <- [];
        l.l_alloc_exact <-
          l.l_alloc_exact + int_of_float (exact_alloc () -. alloc0))
      (fun () -> Telemetry.with_span_hook hook f)
