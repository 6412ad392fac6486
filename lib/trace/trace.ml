module Json = O4a_telemetry.Json

type record =
  | Seed_selected of { hash : string; bytes : int; size : int }
  | Skeletonized of { mode : string; holes : int }
  | Skeleton_hole of { hole : int; path : string; sort : string option }
  | Hole_filled of { hole : int; theory : string; sort : string option; raw : bool }
  | Adapted of { substitutions : (string * string) list }
  | Direct_generated of { terms : int; theories : string list }
  | Synthesized of { bytes : int; parse_ok : bool; theories : string list }
  | Parse_rejected of { error : string }
  | Solver_run of {
      solver : string;
      commit : int;
      verdict : string;
      steps : int;
      decisions : int;
      propagations : int;
    }
  | Oracle_verdict of {
      kind : string option;
      solver : string option;
      signature : string option;
      bug_id : string option;
      theory : string option;
      mode : string option;
    }
  | Fault_injected of { site : string }

type t = {
  id : string;
  campaign_seed : int;
  tick : int;
  records : record list;
}

type finding_info = {
  kind : string;
  solver : string;
  solver_name : string;
  signature : string;
  bug_id : string option;
  theory : string;
  dedup_key : string;
  mode : string;
}

type promoted = {
  trace : t;
  source : string;
  finding : finding_info;
}

let id_of ~seed ~tick =
  let bits = O4a_util.Rng.bits64 (O4a_util.Rng.split_indexed ~seed ~index:tick) in
  Printf.sprintf "t%06d-%08Lx" tick (Int64.logand bits 0xFFFF_FFFFL)

let solvers_run t =
  List.filter_map
    (function Solver_run { solver; commit; _ } -> Some (solver, commit) | _ -> None)
    t.records

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let opt_str = function Some s -> Json.String s | None -> Json.Null
let strings l = Json.List (List.map (fun s -> Json.String s) l)

let record_to_json = function
  | Seed_selected { hash; bytes; size } ->
    Json.Obj
      [
        ("stage", Json.String "seed");
        ("hash", Json.String hash);
        ("bytes", Json.Int bytes);
        ("size", Json.Int size);
      ]
  | Skeletonized { mode; holes } ->
    Json.Obj
      [
        ("stage", Json.String "skeletonize");
        ("mode", Json.String mode);
        ("holes", Json.Int holes);
      ]
  | Skeleton_hole { hole; path; sort } ->
    Json.Obj
      [
        ("stage", Json.String "hole");
        ("hole", Json.Int hole);
        ("path", Json.String path);
        ("sort", opt_str sort);
      ]
  | Hole_filled { hole; theory; sort; raw } ->
    Json.Obj
      [
        ("stage", Json.String "fill");
        ("hole", Json.Int hole);
        ("theory", Json.String theory);
        ("sort", opt_str sort);
        ("raw", Json.Bool raw);
      ]
  | Adapted { substitutions } ->
    Json.Obj
      [
        ("stage", Json.String "adapt");
        ( "substitutions",
          Json.Obj (List.map (fun (a, b) -> (a, Json.String b)) substitutions) );
      ]
  | Direct_generated { terms; theories } ->
    Json.Obj
      [
        ("stage", Json.String "direct");
        ("terms", Json.Int terms);
        ("theories", strings theories);
      ]
  | Synthesized { bytes; parse_ok; theories } ->
    Json.Obj
      [
        ("stage", Json.String "synthesize");
        ("bytes", Json.Int bytes);
        ("parse_ok", Json.Bool parse_ok);
        ("theories", strings theories);
      ]
  | Parse_rejected { error } ->
    Json.Obj [ ("stage", Json.String "parse_rejected"); ("error", Json.String error) ]
  | Solver_run { solver; commit; verdict; steps; decisions; propagations } ->
    Json.Obj
      [
        ("stage", Json.String "solver");
        ("solver", Json.String solver);
        ("commit", Json.Int commit);
        ("verdict", Json.String verdict);
        ("steps", Json.Int steps);
        ("decisions", Json.Int decisions);
        ("propagations", Json.Int propagations);
      ]
  | Oracle_verdict { kind; solver; signature; bug_id; theory; mode } ->
    Json.Obj
      [
        ("stage", Json.String "verdict");
        ("kind", opt_str kind);
        ("solver", opt_str solver);
        ("signature", opt_str signature);
        ("bug_id", opt_str bug_id);
        ("theory", opt_str theory);
        ("mode", opt_str mode);
      ]
  | Fault_injected { site } ->
    Json.Obj [ ("stage", Json.String "fault"); ("site", Json.String site) ]

open Json.Decode

let req name = req "trace" name
let opt name json = Option.bind (Json.member name json) Json.to_str

let string_list name json =
  Result.map
    (List.filter_map (function Json.String s -> Some s | _ -> None))
    (list_field "trace" name json)

let record_of_json json =
  let* stage = req "stage" Json.to_str json in
  match stage with
  | "seed" ->
    let* hash = req "hash" Json.to_str json in
    let* bytes = req "bytes" Json.to_int json in
    let* size = req "size" Json.to_int json in
    Ok (Seed_selected { hash; bytes; size })
  | "skeletonize" ->
    let* mode = req "mode" Json.to_str json in
    let* holes = req "holes" Json.to_int json in
    Ok (Skeletonized { mode; holes })
  | "hole" ->
    let* hole = req "hole" Json.to_int json in
    let* path = req "path" Json.to_str json in
    Ok (Skeleton_hole { hole; path; sort = opt "sort" json })
  | "fill" ->
    let* hole = req "hole" Json.to_int json in
    let* theory = req "theory" Json.to_str json in
    let* raw = req "raw" Json.to_bool json in
    Ok (Hole_filled { hole; theory; sort = opt "sort" json; raw })
  | "adapt" -> (
    match Json.member "substitutions" json with
    | Some (Json.Obj kvs) ->
      let* substitutions =
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            match Json.to_str v with
            | Some s -> Ok ((k, s) :: acc)
            | None -> Error "trace: adapt substitution value not a string")
          kvs (Ok [])
      in
      Ok (Adapted { substitutions })
    | _ -> invalid "trace" "substitutions")
  | "direct" ->
    let* terms = req "terms" Json.to_int json in
    let* theories = string_list "theories" json in
    Ok (Direct_generated { terms; theories })
  | "synthesize" ->
    let* bytes = req "bytes" Json.to_int json in
    let* parse_ok = req "parse_ok" Json.to_bool json in
    let* theories = string_list "theories" json in
    Ok (Synthesized { bytes; parse_ok; theories })
  | "parse_rejected" ->
    let* error = req "error" Json.to_str json in
    Ok (Parse_rejected { error })
  | "solver" ->
    let* solver = req "solver" Json.to_str json in
    let* commit = req "commit" Json.to_int json in
    let* verdict = req "verdict" Json.to_str json in
    let* steps = req "steps" Json.to_int json in
    let* decisions = req "decisions" Json.to_int json in
    let* propagations = req "propagations" Json.to_int json in
    Ok (Solver_run { solver; commit; verdict; steps; decisions; propagations })
  | "verdict" ->
    Ok
      (Oracle_verdict
         {
           kind = opt "kind" json;
           solver = opt "solver" json;
           signature = opt "signature" json;
           bug_id = opt "bug_id" json;
           theory = opt "theory" json;
           mode = opt "mode" json;
         })
  | "fault" ->
    let* site = req "site" Json.to_str json in
    Ok (Fault_injected { site })
  | other -> Error (Printf.sprintf "trace: unknown stage %S" other)

let to_json t =
  Json.Obj
    [
      ("id", Json.String t.id);
      ("campaign_seed", Json.Int t.campaign_seed);
      ("tick", Json.Int t.tick);
      ("records", Json.List (List.map record_to_json t.records));
    ]

let of_json json =
  let* id = req "id" Json.to_str json in
  let* campaign_seed = req "campaign_seed" Json.to_int json in
  let* tick = req "tick" Json.to_int json in
  let* records_json = list_field "trace" "records" json in
  let* records = map_result record_of_json records_json in
  Ok { id; campaign_seed; tick; records }

let finding_to_json f =
  Json.Obj
    [
      ("kind", Json.String f.kind);
      ("solver", Json.String f.solver);
      ("solver_name", Json.String f.solver_name);
      ("signature", Json.String f.signature);
      ("bug_id", opt_str f.bug_id);
      ("theory", Json.String f.theory);
      ("dedup_key", Json.String f.dedup_key);
      ("mode", Json.String f.mode);
    ]

let finding_of_json json =
  let* kind = req "kind" Json.to_str json in
  let* solver = req "solver" Json.to_str json in
  let* solver_name = req "solver_name" Json.to_str json in
  let* signature = req "signature" Json.to_str json in
  let bug_id = opt "bug_id" json in
  let* theory = req "theory" Json.to_str json in
  let* dedup_key = req "dedup_key" Json.to_str json in
  (* bundles written before oracle modes existed carry no "mode" member;
     they were all full differential comparisons *)
  let mode = Option.value (opt "mode" json) ~default:"differential" in
  Ok { kind; solver; solver_name; signature; bug_id; theory; dedup_key; mode }

let promoted_to_json p =
  Json.Obj
    [
      ("trace", to_json p.trace);
      ("source", Json.String p.source);
      ("finding", finding_to_json p.finding);
    ]

let promoted_of_json json =
  let* trace_json =
    match Json.member "trace" json with
    | Some j -> Ok j
    | None -> Error "trace: missing field \"trace\""
  in
  let* trace = of_json trace_json in
  let* source = req "source" Json.to_str json in
  let* finding_json =
    match Json.member "finding" json with
    | Some j -> Ok j
    | None -> Error "trace: missing field \"finding\""
  in
  let* finding = finding_of_json finding_json in
  Ok { trace; source; finding }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "trace %s  (campaign seed %d, tick %d)" t.id t.campaign_seed t.tick;
  (* an Adapted record belongs to the Hole_filled that follows it *)
  let pending_adapt = ref [] in
  List.iter
    (fun r ->
      match r with
      | Seed_selected { hash; bytes; size } ->
        line "  seed         %s  %d bytes, %d nodes" hash bytes size
      | Skeletonized { mode; holes } ->
        line "  skeletonize  %s mode, %d hole%s" mode holes
          (if holes = 1 then "" else "s")
      | Skeleton_hole { hole; path; sort } ->
        line "    hole %-3d   at %s%s" hole
          (if path = "" then "(root)" else path)
          (match sort with Some s -> "  : " ^ s | None -> "")
      | Adapted { substitutions } -> pending_adapt := substitutions
      | Hole_filled { hole; theory; sort; raw } ->
        line "  fill %-3d     theory %s%s  (%s)" hole theory
          (match sort with Some s -> " : " ^ s | None -> "")
          (if raw then "raw splice" else "ast");
        List.iter
          (fun (a, b) -> line "    adapted    %s -> %s" a b)
          !pending_adapt;
        pending_adapt := []
      | Direct_generated { terms; theories } ->
        line "  direct       %d term%s  [%s]" terms
          (if terms = 1 then "" else "s")
          (String.concat " " theories)
      | Synthesized { bytes; parse_ok; theories } ->
        line "  synthesize   %d bytes, parse %s  [%s]" bytes
          (if parse_ok then "ok" else "FAILED")
          (String.concat " " theories)
      | Parse_rejected { error } -> line "  parse        REJECTED: %s" error
      | Solver_run { solver; commit; verdict; steps; decisions; propagations } ->
        line "  %-12s %-8s steps=%d decisions=%d propagations=%d  (commit %d)"
          solver verdict steps decisions propagations commit
      | Oracle_verdict { kind; solver; signature; bug_id; mode; _ } -> (
        let degraded_tag =
          match mode with
          | Some m when m <> "differential" -> "  (" ^ m ^ ")"
          | _ -> ""
        in
        match kind with
        | None -> line "  verdict      agreement (no finding)%s" degraded_tag
        | Some k ->
          line "  verdict      %s in %s  [%s]%s%s" k
            (Option.value solver ~default:"?")
            (Option.value signature ~default:"?")
            (match bug_id with Some id -> "  -> " ^ id | None -> "")
            degraded_tag)
      | Fault_injected { site } -> line "  fault        INJECTED %s (chaos)" site)
    t.records;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  type trace = t

  type nonrec t = {
    enabled : bool;
    seed : int;
    ring : trace option array;
    mutable ring_next : int;
    mutable in_trace : bool;
    mutable current_tick : int;
    mutable current_records : record list;  (* reversed *)
    mutable promoted_rev : promoted list;
  }

  let default_ring_size = 64

  let disabled =
    {
      enabled = false;
      seed = 0;
      ring = [||];
      ring_next = 0;
      in_trace = false;
      current_tick = 0;
      current_records = [];
      promoted_rev = [];
    }

  let create ?(ring_size = default_ring_size) ~seed () =
    if ring_size <= 0 then
      invalid_arg "Trace.Recorder.create: ring_size must be positive";
    {
      enabled = true;
      seed;
      ring = Array.make ring_size None;
      ring_next = 0;
      in_trace = false;
      current_tick = 0;
      current_records = [];
      promoted_rev = [];
    }

  let enabled r = r.enabled
  let active r = r.enabled && r.in_trace

  let start r ~tick =
    if r.enabled then (
      r.in_trace <- true;
      r.current_tick <- tick;
      r.current_records <- [])

  let record r rec_ =
    if active r then r.current_records <- rec_ :: r.current_records

  let assemble r =
    {
      id = id_of ~seed:r.seed ~tick:r.current_tick;
      campaign_seed = r.seed;
      tick = r.current_tick;
      records = List.rev r.current_records;
    }

  let promote r ~source ~finding =
    if active r then
      r.promoted_rev <- { trace = assemble r; source; finding } :: r.promoted_rev

  let finish r =
    if active r then (
      r.ring.(r.ring_next) <- Some (assemble r);
      r.ring_next <- (r.ring_next + 1) mod Array.length r.ring;
      r.in_trace <- false;
      r.current_records <- [])

  let recent r =
    if not r.enabled then []
    else (
      let n = Array.length r.ring in
      List.filter_map Fun.id
        (List.init n (fun i -> r.ring.((r.ring_next + i) mod n))))

  let promoted r = List.rev r.promoted_rev

  (* Domain-local, like the ambient telemetry handle: a worker installing its
     private recorder never disturbs another domain's. *)
  let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)

  let ambient () = Domain.DLS.get ambient_key

  let using r f = O4a_util.Ambient.using ambient_key r f
end

let note rec_ = Recorder.record (Recorder.ambient ()) rec_
let noting () = Recorder.active (Recorder.ambient ())
