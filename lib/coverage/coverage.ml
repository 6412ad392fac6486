type solver_tag = Zeal | Cove

let tag_to_string = function Zeal -> "zeal" | Cove -> "cove"

let tag_of_string = function
  | "zeal" -> Some Zeal
  | "cove" -> Some Cove
  | _ -> None

type kind = Line | Function

(* Point metadata is global and immutable once registered; hit COUNTS live in
   ledgers (below) so parallel workers can accumulate in isolation. *)
type point = {
  id : int;
  solver : solver_tag;
  file : string;
  func : string;
  kind : kind;
  label : string;
  mutable chained : point option; (* function point hit alongside line 0 *)
}

let registry : (string, point) Hashtbl.t = Hashtbl.create 1024
let all_points : point list ref = ref []
let next_id = ref 0
let reg_mutex = Mutex.create ()

let identity ~solver ~file ~func ~kind label =
  let s = tag_to_string solver in
  let k = match kind with Line -> "l" | Function -> "f" in
  Printf.sprintf "%s|%s|%s|%s|%s" s file func k label

let register ~solver ~file ~func ~kind label =
  let key = identity ~solver ~file ~func ~kind label in
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry key with
      | Some p -> p
      | None ->
        let p = { id = !next_id; solver; file; func; kind; label; chained = None } in
        incr next_id;
        Hashtbl.add registry key p;
        all_points := p :: !all_points;
        p)

let points () = Mutex.protect reg_mutex (fun () -> !all_points)

let register_lines ~solver ~file ~func n =
  let fpoint = register ~solver ~file ~func ~kind:Function "entry" in
  let lines =
    Array.init n (fun i ->
        register ~solver ~file ~func ~kind:Line (string_of_int i))
  in
  if n > 0 then lines.(0).chained <- Some fpoint;
  lines

(* ------------------------------------------------------------------ *)
(* Ledgers: hit-count buffers over the shared point registry           *)
(* ------------------------------------------------------------------ *)

type ledger = { mutable counts : int array }

let make_ledger () = { counts = Array.make (max 64 !next_id) 0 }

let global_ledger = make_ledger ()

(* The ambient ledger is domain-local: a parallel worker installs its own
   with {!with_ledger} and every [hit] it performs lands there, while code
   outside any [with_ledger] scope keeps the historical global behavior. *)
let ambient_key : ledger Domain.DLS.key =
  Domain.DLS.new_key (fun () -> global_ledger)

let ambient () = Domain.DLS.get ambient_key

let with_ledger ledger f = O4a_util.Ambient.using ambient_key ledger f

let ensure ledger id =
  let n = Array.length ledger.counts in
  if id >= n then (
    let counts = Array.make (max (id + 1) (2 * n)) 0 in
    Array.blit ledger.counts 0 counts 0 n;
    ledger.counts <- counts)

let bump ledger p by =
  ensure ledger p.id;
  ledger.counts.(p.id) <- ledger.counts.(p.id) + by

let hit p =
  let l = ambient () in
  bump l p 1;
  match p.chained with Some f -> bump l f 1 | None -> ()

let count_in ledger p =
  if p.id < Array.length ledger.counts then ledger.counts.(p.id) else 0

let resolve = function Some l -> l | None -> ambient ()

let hit_count ?ledger p = count_in (resolve ledger) p

type snapshot = {
  lines_total : int;
  lines_hit : int;
  funcs_total : int;
  funcs_hit : int;
}

let snapshot ?ledger solver =
  let l = resolve ledger in
  let init = { lines_total = 0; lines_hit = 0; funcs_total = 0; funcs_hit = 0 } in
  List.fold_left
    (fun acc p ->
      if p.solver <> solver then acc
      else (
        let hit = count_in l p > 0 in
        match p.kind with
        | Line ->
          {
            acc with
            lines_total = acc.lines_total + 1;
            lines_hit = (acc.lines_hit + if hit then 1 else 0);
          }
        | Function ->
          {
            acc with
            funcs_total = acc.funcs_total + 1;
            funcs_hit = (acc.funcs_hit + if hit then 1 else 0);
          }))
    init (points ())

let pct hit total = if total = 0 then 0. else 100. *. float_of_int hit /. float_of_int total

let line_pct s = pct s.lines_hit s.lines_total
let func_pct s = pct s.funcs_hit s.funcs_total

let reset ?ledger () = Array.fill (resolve ledger).counts 0 (Array.length (resolve ledger).counts) 0

let total_points solver =
  List.length (List.filter (fun p -> p.solver = solver) (points ()))

let hit_point_labels ?ledger solver =
  let l = resolve ledger in
  points ()
  |> List.filter (fun p -> p.solver = solver && count_in l p > 0)
  |> List.map (fun p -> Printf.sprintf "%s:%s:%s" p.file p.func p.label)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Export / merge — the deterministic cross-shard combination step     *)
(* ------------------------------------------------------------------ *)

let identity_of p =
  identity ~solver:p.solver ~file:p.file ~func:p.func ~kind:p.kind p.label

let export ledger =
  points ()
  |> List.filter_map (fun p ->
         let c = count_in ledger p in
         if c > 0 then Some (identity_of p, c) else None)
  |> List.sort compare

(* Re-create a point from its identity key (used when a checkpoint written by
   an earlier process is merged before the engines re-registered the point).
   Chaining is not restored: exported counts are already materialized. *)
let register_identity key =
  match String.split_on_char '|' key with
  | [ s; file; func; k; label ] -> (
    match (tag_of_string s, k) with
    | Some solver, ("l" | "f") ->
      let kind = if k = "l" then Line else Function in
      Some (register ~solver ~file ~func ~kind label)
    | _ -> None)
  | _ -> None

let merge_into ~into entries =
  List.iter
    (fun (key, count) ->
      let p =
        match Mutex.protect reg_mutex (fun () -> Hashtbl.find_opt registry key) with
        | Some p -> Some p
        | None -> register_identity key
      in
      match p with
      | Some p when count > 0 -> bump into p count
      | _ -> ())
    entries
