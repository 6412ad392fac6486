type hook_fn = string -> string

module Smap = Map.Make (String)

(* A production's alternatives, each paired with its minimal derivation
   depth. The alternative lists are the grammar's own, not copies. *)
type rule = { lhs : string; alts : (int * Cfg.alternative) list }

type compiled = {
  cfg : Cfg.t;
  rules : rule Smap.t;
}

let compile cfg =
  let depths = Cfg.min_depths cfg in
  let rules =
    List.fold_left
      (fun rules (p : Cfg.production) ->
        (* a name's first production wins, as in [Cfg.find] *)
        if Smap.mem p.lhs rules then rules
        else
          let alts =
            List.map (fun alt -> (Cfg.alternative_min_depth depths alt, alt)) p.alternatives
          in
          Smap.add p.lhs { lhs = p.lhs; alts } rules)
      Smap.empty cfg.Cfg.productions
  in
  { cfg; rules }

let cfg c = c.cfg

let defines c name = Smap.mem name c.rules

let derive ?(max_depth = 8) compiled ~hook ~rng start =
  let buf = Buffer.create 128 in
  let exception Gen_error of string in
  let rec expand budget rule =
    (* filtering in grammar order keeps every draw where it always was *)
    match List.filter (fun (d, _) -> d < budget) rule.alts with
    | [] ->
      raise
        (Gen_error
           (Printf.sprintf "no alternative of '%s' fits depth budget %d" rule.lhs budget))
    | feasible ->
      let _, alt = O4a_util.Rng.choose rng feasible in
      List.iter
        (function
          | Cfg.Lit text -> Buffer.add_string buf text
          | Cfg.Hook h -> Buffer.add_string buf (hook h)
          (* an undefined reference has unbounded depth, so a feasible
             alternative never holds one *)
          | Cfg.Ref r -> expand (budget - 1) (Smap.find r compiled.rules))
        alt
  in
  match Smap.find_opt start compiled.rules with
  | None -> Error (Printf.sprintf "unknown nonterminal '%s'" start)
  | Some rule -> (
    match expand max_depth rule with
    | () -> Ok (Buffer.contents buf)
    | exception Gen_error msg -> Error msg)

let sentence ?max_depth ~cfg ~hook ~rng start =
  derive ?max_depth (compile cfg) ~hook ~rng start

let sentences ?max_depth ~cfg ~hook ~rng ~count start =
  let compiled = compile cfg in
  List.init count (fun _ -> derive ?max_depth compiled ~hook ~rng start)
  |> List.filter_map Result.to_option
