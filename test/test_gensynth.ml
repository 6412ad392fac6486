module Flaw = Gensynth.Flaw
module Generator = Gensynth.Generator
module Synthesis = Gensynth.Synthesis
module Theory = Theories.Theory
module Cfg = Grammar_kit.Cfg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let solvers = [ Solver.Engine.zeal (); Solver.Engine.cove () ]

(* ------------------------- Flaw categorization ------------------------- *)

let test_categorize_errors () =
  let cat msg = Flaw.category_to_string (Flaw.categorize_error msg) in
  Alcotest.(check string) "width" "width"
    (cat "the function 'bvadd' expects bit-vector arguments of equal width, got ...");
  Alcotest.(check string) "field" "field"
    (cat "the function 'ff.add' expects arguments in the same finite field, got ...");
  Alcotest.(check string) "nullary join" "nullary-join" (cat "Join requires non-nullary relations");
  Alcotest.(check string) "unknown sym" "unknown-symbol(seq.reverse)"
    (cat "unknown constant or function symbol 'seq.reverse'");
  Alcotest.(check string) "unknown op" "unknown-symbol(set.unite)"
    (cat "unknown set operator 'set.unite'");
  Alcotest.(check string) "parse" "parse" (cat "parse error: unbalanced parentheses");
  Alcotest.(check string) "arity" "arity" (cat "the function 'abs' expects %d arguments, got 2"
    |> fun s -> s);
  Alcotest.(check string) "literal" "literal" (cat "expected a term of sort Int, got Real")

let test_flaw_matching () =
  check_bool "width fix" true (Flaw.runtime_matches Flaw.C_width Flaw.Width_mismatch);
  check_bool "field fix" true (Flaw.runtime_matches Flaw.C_field Flaw.Field_mismatch);
  check_bool "var decl fix" true
    (Flaw.runtime_matches (Flaw.C_unknown_symbol "int3") Flaw.Missing_declaration);
  check_bool "op not a var" false
    (Flaw.runtime_matches (Flaw.C_unknown_symbol "seq.reverse") Flaw.Missing_declaration);
  check_bool "halluc fix" true
    (Flaw.defect_matches (Flaw.C_unknown_symbol "seq.reverse")
       (Flaw.Hallucinate { lhs = "seq"; alt_idx = 0; from_op = "seq.rev"; to_op = "seq.reverse" }));
  check_bool "halluc wrong target" false
    (Flaw.defect_matches (Flaw.C_unknown_symbol "other")
       (Flaw.Hallucinate { lhs = "seq"; alt_idx = 0; from_op = "seq.rev"; to_op = "seq.reverse" }));
  check_bool "omission never repaired" false
    (Flaw.defect_matches Flaw.C_parse (Flaw.Drop_alt { lhs = "bool"; alt_idx = 0 }));
  check_bool "unit join" true (Flaw.defect_matches Flaw.C_nullary_join Flaw.Unit_join)

(* ------------------------- Generator: perfect emission ------------------------- *)

(* the central invariant: a defect-free generator emits only valid terms *)
let test_perfect_generators_always_valid () =
  List.iter
    (fun (theory : Theory.info) ->
      let gen = Generator.perfect theory in
      let rng = O4a_util.Rng.create (Hashtbl.hash theory.Theory.key) in
      for i = 1 to 30 do
        match Generator.generate gen ~rng with
        | emitted ->
          let source = Generator.render_script [ emitted ] in
          let valid =
            List.exists
              (fun s -> Result.is_ok (Solver.Engine.parse_check s source))
              solvers
          in
          if not valid then
            Alcotest.failf "%s sample %d invalid:\n%s" theory.Theory.key i source
        | exception Failure msg ->
          Alcotest.failf "%s generation failed: %s" theory.Theory.key msg
      done)
    Theory.all

let test_generator_decls_cover_term_vars () =
  let gen = Generator.perfect (Theory.find Theory.Seq) in
  let rng = O4a_util.Rng.create 4 in
  for _ = 1 to 20 do
    let e = Generator.generate gen ~rng in
    match Smtlib.Parser.parse_term e.Generator.term with
    | Ok t ->
      let declared =
        List.filter_map
          (fun line ->
            match Smtlib.Parser.parse_script line with
            | Ok [ Smtlib.Command.Declare_fun (n, [], _) ] -> Some n
            | _ -> None)
          e.Generator.decls
      in
      List.iter
        (fun v ->
          check_bool (v ^ " declared") true
            (List.mem v declared || Theories.Signature.is_known_op v))
        (Smtlib.Term.free_vars t)
    | Error _ -> Alcotest.fail "perfect seq term should parse"
  done

let test_generate_of_sort_well_sorted () =
  (* the mixed-sorts extension: per-sort emission typechecks at the sort *)
  let cases =
    [ (Theory.Ints, Smtlib.Sort.Int); (Theory.Reals, Smtlib.Sort.Real);
      (Theory.Strings, Smtlib.Sort.String_sort);
      (Theory.Bitvectors, Smtlib.Sort.Bitvec 3);
      (Theory.Finite_fields, Smtlib.Sort.Finite_field 5);
      (Theory.Seq, Smtlib.Sort.Seq Smtlib.Sort.Int);
      (Theory.Sets, Smtlib.Sort.Set Smtlib.Sort.Int);
      (Theory.Bags, Smtlib.Sort.Bag Smtlib.Sort.Int);
      (Theory.Arrays, Smtlib.Sort.Array (Smtlib.Sort.Int, Smtlib.Sort.Int)) ]
  in
  let rng = O4a_util.Rng.create 31 in
  List.iter
    (fun (id, sort) ->
      let gen = Generator.perfect (Theory.find id) in
      check_bool (Smtlib.Sort.to_string sort ^ " supported") true
        (Generator.supports_sort gen sort);
      for _ = 1 to 10 do
        match Generator.generate_of_sort gen ~rng sort with
        | None -> Alcotest.failf "no emission for %s" (Smtlib.Sort.to_string sort)
        | Some e -> (
          let decls = String.concat "\n" e.Generator.decls in
          let source =
            Printf.sprintf "%s\n(define-fun probe () %s %s)\n(check-sat)" decls
              (Smtlib.Sort.to_string sort) e.Generator.term
          in
          match Smtlib.Parser.parse_script source with
          | Error err ->
            Alcotest.failf "parse (%s): %s\n%s" (Smtlib.Sort.to_string sort)
              (Smtlib.Parser.error_message err) source
          | Ok script -> (
            match Theories.Typecheck.check_script script with
            | Ok () -> ()
            | Error msg ->
              Alcotest.failf "sort mismatch (%s): %s\n%s" (Smtlib.Sort.to_string sort)
                msg source))
      done)
    cases

let test_generate_of_sort_unsupported () =
  let gen = Generator.perfect (Theory.find Theory.Core) in
  check_bool "core has no int production" true
    (Generator.generate_of_sort gen ~rng:(O4a_util.Rng.create 1) Smtlib.Sort.Int = None);
  check_bool "weird width unsupported" false
    (Generator.supports_sort
       (Generator.perfect (Theory.find Theory.Bitvectors))
       (Smtlib.Sort.Bitvec 17))

(* ------------------------- Defect application ------------------------- *)

let test_hallucination_defect () =
  let theory = Theory.find Theory.Seq in
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let rev_idx =
    match Cfg.find base "seq" with
    | Some p ->
      Option.get
        (O4a_util.Listx.find_index
           (fun alt ->
             List.exists
               (function
                 | Cfg.Lit l -> O4a_util.Strx.contains_sub ~sub:"seq.rev" l
                 | _ -> false)
               alt)
           p.Cfg.alternatives)
    | None -> Alcotest.fail "no seq production"
  in
  let gen =
    Generator.make
      ~defects:
        [ Flaw.Hallucinate
            { lhs = "seq"; alt_idx = rev_idx; from_op = "seq.rev"; to_op = "seq.reverse" } ]
      theory
  in
  let cfg = Generator.effective_cfg gen in
  let text = Cfg.to_string cfg in
  check_bool "misspelled op present" true
    (O4a_util.Strx.contains_sub ~sub:"seq.reverse" text);
  check_bool "original op replaced in that alt" true
    (not (O4a_util.Strx.contains_sub ~sub:"(seq.rev " text)
     || O4a_util.Strx.contains_sub ~sub:"seq.rev" text)

let test_arity_break_defect () =
  let theory = Theory.find Theory.Ints in
  (* break the abs alternative: int production, "(abs " int ")" *)
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let abs_idx =
    match Cfg.find base "int" with
    | Some p ->
      O4a_util.Listx.find_index
        (fun alt ->
          List.exists
            (function Cfg.Lit l -> O4a_util.Strx.contains_sub ~sub:"abs" l | _ -> false)
            alt)
        p.Cfg.alternatives
      |> Option.get
    | None -> Alcotest.fail "no int production"
  in
  let gen =
    Generator.make ~defects:[ Flaw.Arity_break { lhs = "int"; alt_idx = abs_idx } ] theory
  in
  let cfg = Generator.effective_cfg gen in
  let p = Option.get (Cfg.find cfg "int") in
  let broken = List.nth p.Cfg.alternatives abs_idx in
  let refs = List.length (List.filter (function Cfg.Ref _ -> true | _ -> false) broken) in
  check_int "one extra operand" 2 refs

let test_drop_alt_defect () =
  let theory = Theory.find Theory.Core in
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let n_before = List.length (Option.get (Cfg.find base "bool")).Cfg.alternatives in
  let gen = Generator.make ~defects:[ Flaw.Drop_alt { lhs = "bool"; alt_idx = 2 } ] theory in
  let n_after =
    List.length (Option.get (Cfg.find (Generator.effective_cfg gen) "bool")).Cfg.alternatives
  in
  check_int "one fewer alternative" (n_before - 1) n_after

let test_unit_join_defect () =
  let theory = Theory.find Theory.Sets in
  let gen = Generator.make ~defects:[ Flaw.Unit_join ] theory in
  let cfg = Generator.effective_cfg gen in
  check_bool "urel production added" true (Cfg.find cfg "urel" <> None);
  check_bool "grammar still validates" true (Cfg.validate cfg = Ok ())

let test_flawed_generator_produces_invalid () =
  let theory = Theory.find Theory.Bitvectors in
  let gen = Generator.make ~runtime_flaws:[ Flaw.Width_mismatch ] theory in
  let rng = O4a_util.Rng.create 21 in
  let invalid = ref 0 in
  for _ = 1 to 40 do
    match Generator.generate gen ~rng with
    | e ->
      let source = Generator.render_script [ e ] in
      if
        not
          (List.exists (fun s -> Result.is_ok (Solver.Engine.parse_check s source)) solvers)
      then incr invalid
    | exception Failure _ -> incr invalid
  done;
  check_bool "width mismatches rejected sometimes" true (!invalid > 0)

let test_is_clean () =
  let theory = Theory.find Theory.Core in
  check_bool "perfect is clean" true (Generator.is_clean (Generator.perfect theory));
  check_bool "omissions stay clean" true
    (Generator.is_clean
       (Generator.make ~defects:[ Flaw.Drop_alt { lhs = "bool"; alt_idx = 0 } ] theory));
  check_bool "runtime flaw is dirty" false
    (Generator.is_clean (Generator.make ~runtime_flaws:[ Flaw.Bad_int_literal ] theory))

(* ------------------------- Golden derivations ------------------------- *)

(* (kind, theory, digest of 200 emissions, the draw after them), recorded
   when every call still re-parsed its grammar. A compiled grammar that
   reorders alternatives or spends one more draw changes these. "library" is
   the generator library of [Campaign.prepare ~seed:42]; "initial" is the
   same client's generators before self-correction, runtime flaws and all. *)
let golden_emissions =
  [
    ("perfect", "core", "e33ef53fc1ada5985d1f2baf9b0df496", 966130401);
    ("perfect", "ints", "b9ba4708abce722beefbd47b4533bd40", 674373003);
    ("perfect", "reals", "31dfacece3e4dcdee616e6674e4d46e9", 707599466);
    ("perfect", "reals_ints", "857d1140497372da489ab101f84cf2fd", 304806740);
    ("perfect", "bitvectors", "bc3bd3996c09cb8505036adadef818e3", 216288846);
    ("perfect", "strings", "3a7613087a400fd52394b472ce8bc4f7", 347167185);
    ("perfect", "arrays", "da9b8f39b28c2d6928ad35da4bef9954", 294452951);
    ("perfect", "datatypes", "4c2c34431d43bfe30ef8ad24b0a972c2", 553674344);
    ("perfect", "seq", "d09158c7987ebdb33175f7d681d13221", 809092513);
    ("perfect", "sets", "26a29ec0b8fe8eda2389c16eb135d4f8", 799537425);
    ("perfect", "bags", "af4f38c409c504e941928edbbd6f2b03", 924077931);
    ("perfect", "finite_fields", "e5d58c4768ff10e706d461cb825ef3f7", 820182732);
    ("library", "core", "fbc710aec1f77f7d8551d2a87194cf23", 777110359);
    ("library", "ints", "ebbf0cf300c56ab845fa7d54282a2f1e", 222276750);
    ("library", "reals", "cc96876f268afa2a165aefa4e5656917", 731597609);
    ("library", "reals_ints", "13787b5bd67fd1d18955f1bc590d76e0", 665351856);
    ("library", "bitvectors", "cfd037ee3f5b2c5e615d0ed881a319b3", 218695347);
    ("library", "strings", "abbe83ea2c9c8f8ac6fb3273f9f209db", 125169134);
    ("library", "arrays", "dc8e9df3f044472873fdf9be61a73350", 423949041);
    ("library", "datatypes", "e0cf8f178c3e89ecc1fc38efd2cef427", 545975301);
    ("library", "seq", "49e9ad285f272f54bb6d49813274cbd9", 472840912);
    ("library", "sets", "eccd68074d5556c2566159de6eca53de", 727035003);
    ("library", "bags", "96f7bac8e3d2413fee2620a19ea48b2e", 585963393);
    ("library", "finite_fields", "5588254347c29e09e6910ca771b69a26", 644021263);
    ("initial", "core", "a22d9014666a783d8a236f27647f3241", 314357121);
    ("initial", "ints", "6e81b178d10fd3e8bf5f8e5397e58ff8", 163185773);
    ("initial", "reals", "3f243dec0b10351ce34aa0dd6870e604", 132052330);
    ("initial", "reals_ints", "8fbd4659f74a6d0ec0c135225397018b", 216459169);
    ("initial", "bitvectors", "1b0adb8fdb0e32df751807d0a6dc70ff", 448844561);
    ("initial", "strings", "b45de196e33b9011b797b727e9bdca90", 364561339);
    ("initial", "arrays", "ed3d42038077797bc39b897d7f944ab3", 454514238);
    ("initial", "datatypes", "01457f85bafae617e43a87406bb79148", 132946339);
    ("initial", "seq", "7251e3089006ca59edde04a5b0b398f3", 152775431);
    ("initial", "sets", "70a26752af53414baf0d6f5c214181bd", 378868866);
    ("initial", "bags", "b6b683a535bfbd5fbba99f29289810f9", 894449018);
    ("initial", "finite_fields", "f9541585141e9c52587ceb97fe8c6af4", 710488226);
  ]

let emission_digest gen ~seed =
  let rng = O4a_util.Rng.create seed in
  let buf = Buffer.create 16384 in
  for _ = 1 to 200 do
    (match Generator.generate gen ~rng with
    | e ->
      List.iter
        (fun d ->
          Buffer.add_string buf d;
          Buffer.add_char buf '\n')
        e.Generator.decls;
      Buffer.add_string buf e.Generator.term
    | exception Failure msg -> Buffer.add_string buf ("failure: " ^ msg));
    Buffer.add_char buf '\x00'
  done;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), O4a_util.Rng.int rng 1_000_000_000)

let gpt4_client () = Llm_sim.Client.create ~seed:42 Llm_sim.Profile.gpt4

let test_golden_emissions () =
  let library = List.map fst (Synthesis.construct_all ~client:(gpt4_client ()) ~solvers Theory.all) in
  let initial = List.map (Synthesis.initial_generator ~client:(gpt4_client ())) Theory.all in
  let rows kind first_seed gens =
    List.mapi
      (fun i (g : Generator.t) ->
        let digest, next = emission_digest g ~seed:(first_seed + i) in
        (kind, g.Generator.theory.Theory.key, digest, next))
      gens
  in
  let got =
    rows "perfect" 100 (List.map Generator.perfect Theory.all)
    @ rows "library" 200 library @ rows "initial" 300 initial
  in
  check_int "rows" (List.length golden_emissions) (List.length got);
  List.iter2
    (fun (kind, key, digest, next) (_, _, digest', next') ->
      Alcotest.(check string) (kind ^ "/" ^ key ^ " emissions") digest digest';
      check_int (kind ^ "/" ^ key ^ " next draw") next next')
    golden_emissions got

let test_derivation_errors () =
  let cfg =
    Grammar_kit.Ebnf.parse_exn
      "a ::= \"(\" b \")\" | \"[\" b \"]\"\nb ::= \"(\" c \")\"\nc ::= @x"
  in
  let rng = O4a_util.Rng.create 9 in
  let derive ?max_depth start =
    Grammar_kit.Generate.sentence ?max_depth ~cfg ~hook:Fun.id ~rng start
  in
  let check_result = Alcotest.(check (result string string)) in
  check_result "unknown start" (Error "unknown nonterminal 'nope'") (derive "nope");
  check_result "budget too small" (Error "no alternative of 'a' fits depth budget 2")
    (derive ~max_depth:2 "a");
  check_result "budget fits" (Ok "[(x)]") (derive ~max_depth:4 "a");
  check_int "next draw" 611663896 (O4a_util.Rng.int rng 1_000_000_000)

(* generators hold no mutable or lazily built state, so domains can share
   them; each domain must see exactly its sequential output *)
let test_generate_across_domains () =
  let generators =
    List.map Generator.perfect Theory.all
    @ List.map (Synthesis.initial_generator ~client:(gpt4_client ())) Theory.all
  in
  let run seed =
    let rng = O4a_util.Rng.create seed in
    List.init 400 (fun i ->
        let g = O4a_util.Rng.choose rng generators in
        let emitted =
          if i mod 2 = 0 then Some (Generator.generate g ~rng)
          else Generator.generate_of_sort g ~rng Smtlib.Sort.Int
        in
        match emitted with
        | Some e -> String.concat "\n" (e.Generator.term :: e.Generator.decls)
        | None -> "none"
        | exception Failure msg -> "failure: " ^ msg)
  in
  let seeds = [ 1; 2 ] in
  let sequential = List.map run seeds in
  let domains = List.map (fun seed -> Domain.spawn (fun () -> run seed)) seeds in
  let parallel = List.map Domain.join domains in
  Alcotest.(check (list (list string))) "domain output = sequential output" sequential parallel

(* ------------------------- Synthesis (Algorithm 1) ------------------------- *)

let test_construct_converges () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  List.iter
    (fun theory ->
      let _, report = Synthesis.construct ~client ~solvers theory in
      check_bool
        (Printf.sprintf "%s final >= 70%% (got %d/%d)" report.Synthesis.theory_key
           report.final_valid report.sample_num)
        true
        (report.Synthesis.final_valid * 10 >= report.Synthesis.sample_num * 7);
      check_bool "final >= initial" true
        (report.Synthesis.final_valid >= report.Synthesis.initial_valid);
      check_bool "iterations bounded" true
        (report.Synthesis.iterations <= Synthesis.max_iter))
    Theory.all

let test_difficulty_drives_initial_validity () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  let report_for id =
    snd (Synthesis.construct ~client ~solvers (Theory.find id))
  in
  let easy = report_for Theory.Reals in
  let hard = report_for Theory.Finite_fields in
  check_bool
    (Printf.sprintf "ff (%d) starts below reals (%d)" hard.Synthesis.initial_valid
       easy.Synthesis.initial_valid)
    true
    (hard.Synthesis.initial_valid <= easy.Synthesis.initial_valid)

let test_construct_deterministic () =
  let run () =
    let client = Llm_sim.Client.create ~seed:11 Llm_sim.Profile.gpt4 in
    let _, report = Synthesis.construct ~client ~solvers (Theory.find Theory.Bags) in
    (report.Synthesis.initial_valid, report.Synthesis.final_valid, report.Synthesis.iterations)
  in
  check_bool "same outcome" true (run () = run ())

let test_zero_iterations_budget () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  let _, report =
    Synthesis.construct ~max_iter:0 ~client ~solvers (Theory.find Theory.Finite_fields)
  in
  check_int "no refinement rounds" 0 report.Synthesis.iterations

let test_validate_samples_counts () =
  let rng = O4a_util.Rng.create 3 in
  let valid, errors =
    Synthesis.validate_samples ~solvers ~rng
      (Generator.perfect (Theory.find Theory.Ints))
  in
  check_int "all valid" Synthesis.sample_num valid;
  check_int "no errors" 0 (List.length errors)

let test_llm_call_accounting () =
  let client = Llm_sim.Client.create ~seed:5 Llm_sim.Profile.gpt4 in
  let _ = Synthesis.construct ~client ~solvers (Theory.find Theory.Core) in
  (* at least summarize + implement *)
  check_bool "one-time calls recorded" true (Llm_sim.Client.call_count client >= 2)

let () =
  Alcotest.run "gensynth"
    [
      ( "flaws",
        [
          Alcotest.test_case "error categorization" `Quick test_categorize_errors;
          Alcotest.test_case "repair matching" `Quick test_flaw_matching;
        ] );
      ( "generator",
        [
          Alcotest.test_case "perfect generators always valid" `Slow
            test_perfect_generators_always_valid;
          Alcotest.test_case "declarations cover variables" `Quick
            test_generator_decls_cover_term_vars;
          Alcotest.test_case "per-sort emission well-sorted" `Quick
            test_generate_of_sort_well_sorted;
          Alcotest.test_case "per-sort unsupported" `Quick test_generate_of_sort_unsupported;
          Alcotest.test_case "hallucination defect" `Quick test_hallucination_defect;
          Alcotest.test_case "arity defect" `Quick test_arity_break_defect;
          Alcotest.test_case "omission defect" `Quick test_drop_alt_defect;
          Alcotest.test_case "unit-join defect" `Quick test_unit_join_defect;
          Alcotest.test_case "flawed output rejected" `Quick
            test_flawed_generator_produces_invalid;
          Alcotest.test_case "is_clean" `Quick test_is_clean;
          Alcotest.test_case "golden emissions" `Quick test_golden_emissions;
          Alcotest.test_case "derivation errors" `Quick test_derivation_errors;
          Alcotest.test_case "shared across domains" `Quick test_generate_across_domains;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "converges on every theory" `Slow test_construct_converges;
          Alcotest.test_case "difficulty ordering" `Quick test_difficulty_drives_initial_validity;
          Alcotest.test_case "deterministic" `Quick test_construct_deterministic;
          Alcotest.test_case "zero-iteration budget" `Quick test_zero_iterations_budget;
          Alcotest.test_case "validate_samples" `Quick test_validate_samples_counts;
          Alcotest.test_case "LLM accounting" `Quick test_llm_call_accounting;
        ] );
    ]
