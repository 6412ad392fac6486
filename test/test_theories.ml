open Smtlib
open Theories

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_sort = function Ok s -> Sort.to_string s | Error e -> "ERROR: " ^ e

let check_app name args expected =
  Alcotest.(check string)
    (Printf.sprintf "(%s %s)" name (String.concat " " (List.map Sort.to_string args)))
    expected
    (ok_sort (Signature.app name args))

let check_app_err name args needle =
  match Signature.app name args with
  | Ok s -> Alcotest.failf "expected error, got %s" (Sort.to_string s)
  | Error msg ->
    check_bool
      (Printf.sprintf "error mentions %s (got: %s)" needle msg)
      true
      (O4a_util.Strx.contains_sub ~sub:needle msg)

(* ------------------------- Signature: core ------------------------- *)

let test_core_ops () =
  check_app "not" [ Sort.Bool ] "Bool";
  check_app "and" [ Sort.Bool; Sort.Bool; Sort.Bool ] "Bool";
  check_app "=" [ Sort.Int; Sort.Int ] "Bool";
  check_app "=" [ Sort.Seq Sort.Int; Sort.Seq Sort.Int ] "Bool";
  check_app "distinct" [ Sort.Bool; Sort.Bool ] "Bool";
  check_app "ite" [ Sort.Bool; Sort.Int; Sort.Int ] "Int";
  check_app_err "and" [ Sort.Bool ] "at least two";
  check_app_err "=" [ Sort.Int; Sort.Bool ] "same sort";
  check_app_err "ite" [ Sort.Bool; Sort.Int; Sort.Bool ] "same sort";
  check_app_err "not" [ Sort.Int ] "one Bool"

let test_numeric_coercion () =
  (* mixed Int/Real mirror solver permissiveness *)
  check_app "=" [ Sort.Int; Sort.Real ] "Bool";
  check_app "+" [ Sort.Int; Sort.Real ] "Real";
  check_app "+" [ Sort.Int; Sort.Int ] "Int";
  check_app "/" [ Sort.Int; Sort.Int ] "Real";
  check_app "<" [ Sort.Real; Sort.Int ] "Bool";
  check_app_err "+" [ Sort.Int; Sort.Bool ] "Int or Real"

let test_arith_ops () =
  check_app "-" [ Sort.Int ] "Int";
  check_app "-" [ Sort.Real ] "Real";
  check_app "div" [ Sort.Int; Sort.Int ] "Int";
  check_app "abs" [ Sort.Int ] "Int";
  check_app "to_real" [ Sort.Int ] "Real";
  check_app "to_int" [ Sort.Real ] "Int";
  check_app "is_int" [ Sort.Real ] "Bool";
  check_app_err "div" [ Sort.Real; Sort.Real ] "Int";
  check_app_err "abs" [ Sort.Real ] "Int"

(* ------------------------- Signature: bit-vectors ------------------------- *)

let bv n = Sort.Bitvec n

let test_bv_ops () =
  check_app "bvadd" [ bv 4; bv 4 ] "(_ BitVec 4)";
  check_app "concat" [ bv 3; bv 5 ] "(_ BitVec 8)";
  check_app "bvult" [ bv 4; bv 4 ] "Bool";
  check_app "bvcomp" [ bv 4; bv 4 ] "(_ BitVec 1)";
  check_app "bv2nat" [ bv 8 ] "Int";
  check_app_err "bvadd" [ bv 4; bv 8 ] "equal width";
  check_app_err "bvult" [ bv 2; bv 3 ] "equal width";
  check_app_err "bvadd" [ bv 4 ] "at least two"

let test_bv_indexed () =
  let chk name idxs args expected =
    Alcotest.(check string) name expected (ok_sort (Signature.indexed name idxs args))
  in
  chk "extract" [ Term.Idx_num 3; Term.Idx_num 1 ] [ bv 8 ] "(_ BitVec 3)";
  chk "zero_extend" [ Term.Idx_num 4 ] [ bv 4 ] "(_ BitVec 8)";
  chk "int2bv" [ Term.Idx_num 5 ] [ Sort.Int ] "(_ BitVec 5)";
  chk "repeat" [ Term.Idx_num 3 ] [ bv 2 ] "(_ BitVec 6)";
  (match Signature.indexed "extract" [ Term.Idx_num 9; Term.Idx_num 1 ] [ bv 8 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "extract beyond width accepted");
  match Signature.indexed "bv7" [ Term.Idx_num 4 ] [] with
  | Ok (Sort.Bitvec 4) -> ()
  | _ -> Alcotest.fail "(_ bv7 4)"

(* ------------------------- Signature: strings ------------------------- *)

let s = Sort.String_sort

let test_string_ops () =
  check_app "str.++" [ s; s; s ] "String";
  check_app "str.len" [ s ] "Int";
  check_app "str.substr" [ s; Sort.Int; Sort.Int ] "String";
  check_app "str.contains" [ s; s ] "Bool";
  check_app "str.in_re" [ s; Sort.Reglan ] "Bool";
  check_app "re.union" [ Sort.Reglan; Sort.Reglan ] "RegLan";
  check_app "re.*" [ Sort.Reglan ] "RegLan";
  check_app "re.range" [ s; s ] "RegLan";
  check_app_err "str.len" [ Sort.Int ] "str.len";
  check_app_err "str.++" [ s; Sort.Int ] "String"

(* ------------------------- Signature: containers ------------------------- *)

let test_seq_ops () =
  let si = Sort.Seq Sort.Int in
  check_app "seq.unit" [ Sort.Int ] "(Seq Int)";
  check_app "seq.len" [ si ] "Int";
  check_app "seq.nth" [ si; Sort.Int ] "Int";
  check_app "seq.rev" [ si ] "(Seq Int)";
  check_app "seq.update" [ si; Sort.Int; si ] "(Seq Int)";
  check_app_err "seq.nth" [ si; s ] "seq.nth";
  check_app_err "seq.contains" [ si; Sort.Seq Sort.Bool ] "seq.contains"

let test_set_ops () =
  let si = Sort.Set Sort.Int in
  check_app "set.singleton" [ Sort.Int ] "(Set Int)";
  check_app "set.member" [ Sort.Int; si ] "Bool";
  check_app "set.card" [ si ] "Int";
  check_app "set.insert" [ Sort.Int; Sort.Int; si ] "(Set Int)";
  check_app "set.complement" [ si ] "(Set Int)";
  check_app "set.choose" [ si ] "Int";
  check_app_err "set.member" [ Sort.Bool; si ] "set.member"

let test_relation_ops () =
  let rel = Sort.Set (Sort.Tuple [ Sort.Int; Sort.Int ]) in
  check_app "rel.transpose" [ rel ] "(Set (Tuple Int Int))";
  check_app "rel.join" [ rel; rel ] "(Set (Tuple Int Int))";
  check_app "rel.product" [ rel; rel ] "(Set (Tuple Int Int Int Int))";
  check_app "tuple" [ Sort.Int; Sort.Bool ] "(Tuple Int Bool)";
  (* the Figure 10b condition: joining nullary relations is a type error *)
  let urel = Sort.Set (Sort.Tuple []) in
  check_app_err "rel.join" [ urel; urel ] "non-nullary"

let test_bag_ops () =
  let bi = Sort.Bag Sort.Int in
  check_app "bag" [ Sort.Int; Sort.Int ] "(Bag Int)";
  check_app "bag.count" [ Sort.Int; bi ] "Int";
  check_app "bag.union_disjoint" [ bi; bi ] "(Bag Int)";
  check_app "bag.setof" [ bi ] "(Bag Int)";
  check_app "bag.subbag" [ bi; bi ] "Bool";
  check_app_err "bag.count" [ Sort.Bool; bi ] "bag.count"

let test_ff_ops () =
  let f3 = Sort.Finite_field 3 in
  let f5 = Sort.Finite_field 5 in
  check_app "ff.add" [ f3; f3 ] "(_ FiniteField 3)";
  check_app "ff.mul" [ f3; f3; f3 ] "(_ FiniteField 3)";
  check_app "ff.neg" [ f5 ] "(_ FiniteField 5)";
  check_app "ff.bitsum" [ f3; f3 ] "(_ FiniteField 3)";
  check_app_err "ff.add" [ f3; f5 ] "same finite field";
  check_app_err "ff.add" [ f3 ] "at least two"

let test_array_ops () =
  let a = Sort.Array (Sort.Int, Sort.Bool) in
  check_app "select" [ a; Sort.Int ] "Bool";
  check_app "store" [ a; Sort.Int; Sort.Bool ] "(Array Int Bool)";
  check_app_err "select" [ a; Sort.Bool ] "select";
  check_app_err "store" [ a; Sort.Int; Sort.Int ] "store"

let test_qual_and_nullary () =
  check_bool "seq.empty" true
    (Signature.qual "seq.empty" (Sort.Seq Sort.Int) [] = Ok (Sort.Seq Sort.Int));
  check_bool "const array" true
    (Signature.qual "const" (Sort.Array (Sort.Int, Sort.Int)) [ Sort.Int ]
    = Ok (Sort.Array (Sort.Int, Sort.Int)));
  check_bool "const mismatch" true
    (Result.is_error
       (Signature.qual "const" (Sort.Array (Sort.Int, Sort.Int)) [ Sort.Bool ]));
  check_bool "re.none" true (Signature.nullary "re.none" = Some Sort.Reglan);
  check_bool "unknown nullary" true (Signature.nullary "zzz" = None)

let test_is_known_op () =
  List.iter
    (fun op -> check_bool op true (Signature.is_known_op op))
    [ "and"; "bvadd"; "str.len"; "seq.rev"; "set.card"; "bag.count"; "ff.bitsum";
      "rel.join"; "select"; "divisible"; "re.none" ];
  List.iter
    (fun op -> check_bool op false (Signature.is_known_op op))
    [ "foo"; "my_var"; "x1" ]

let test_unknown_op_error () = check_app_err "frobnicate" [ Sort.Int ] "frobnicate"

(* ------------------------- Typecheck ------------------------- *)

let script_of src =
  match Parser.parse_script src with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_message e)

let check_script_ok src =
  match Typecheck.check_script (script_of src) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected well-sorted, got: %s" msg

let check_script_err src needle =
  match Typecheck.check_script (script_of src) with
  | Ok () -> Alcotest.failf "expected sort error (%s)" needle
  | Error msg ->
    check_bool
      (Printf.sprintf "mentions %s (got %s)" needle msg)
      true
      (O4a_util.Strx.contains_sub ~sub:needle msg)

let test_typecheck_ok_scripts () =
  check_script_ok "(declare-fun x () Int)(assert (< x 3))(check-sat)";
  check_script_ok
    "(declare-fun f (Int Int) Bool)(declare-fun a () Int)(assert (f a 1))(check-sat)";
  check_script_ok
    "(define-fun inc ((n Int)) Int (+ n 1))(assert (= (inc 1) 2))(check-sat)";
  check_script_ok
    "(declare-fun s () (Seq Int))(assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) f)))(check-sat)";
  check_script_ok
    "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n(declare-fun l () Lst)(assert ((_ is cons) l))(check-sat)";
  check_script_ok "(declare-fun b () Bool)(assert (let ((c (not b))) (or b c)))(check-sat)";
  check_script_ok
    "(declare-fun r () (Set (Tuple Int Int)))(assert (set.member (tuple 1 2) (rel.join r r)))(check-sat)"

let test_typecheck_errors () =
  check_script_err "(assert (= x 1))(check-sat)" "unknown constant";
  check_script_err "(declare-fun x () Int)(assert x)(check-sat)" "Bool";
  check_script_err
    "(declare-fun x () Int)(declare-fun x () Bool)(check-sat)" "already declared";
  check_script_err
    "(declare-fun f (Int) Int)(assert (= (f true) 0))(check-sat)" "wrong argument sorts";
  check_script_err
    "(declare-fun f (Int) Int)(assert (= f 0))(check-sat)" "used as a constant";
  check_script_err "(define-fun g () Int true)(check-sat)" "declared";
  check_script_err
    "(declare-fun v () (_ BitVec 2))(assert (= (bvadd v #b001) v))(check-sat)"
    "equal width";
  check_script_err
    "(declare-fun r () (Set UnitTuple))(assert (set.subset (rel.join r r) r))(check-sat)"
    "non-nullary"

(* each command sees the declarations before it and its own, and a name
   declared twice resolves to its first declaration *)
let test_typecheck_declaration_scope () =
  check_script_ok "(define-fun k () Int (+ k 1))(assert (= k 2))(check-sat)";
  check_script_err "(assert (> y 0))(declare-fun y () Int)(check-sat)" "unknown constant";
  check_script_ok
    "(declare-fun is-nil (Int) Bool)\n\
     (declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n\
     (assert (is-nil 3))(check-sat)"

let test_typecheck_placeholders () =
  let src = "(declare-fun p () Bool)(assert (or p <placeholder>))(check-sat)" in
  check_bool "rejected by default" true
    (Result.is_error (Typecheck.check_script (script_of src)));
  check_bool "allowed with flag" true
    (Result.is_ok (Typecheck.check_script ~allow_placeholders:true (script_of src)))

let test_typecheck_quantifier_scope () =
  check_script_ok "(assert (forall ((x Int)) (exists ((y Int)) (< x y))))(check-sat)";
  check_script_err "(assert (forall ((x Int)) x))(check-sat)" "Bool"

let test_typecheck_match () =
  let dt = "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n" in
  check_script_ok
    (dt ^ "(declare-fun l () Lst)(assert (= (match l ((nil 0) ((cons h t) h))) 1))(check-sat)");
  check_script_ok
    (dt ^ "(declare-fun l () Lst)(assert (match l (((cons h t) (> h 0)) (_ false))))(check-sat)");
  check_script_ok
    (dt ^ "(declare-fun l () Lst)(assert (= l (match l ((other other)))))(check-sat)");
  (* non-exhaustive without a catch-all *)
  check_script_err
    (dt ^ "(declare-fun l () Lst)(assert (match l (((cons h t) true))))(check-sat)")
    "exhaustive";
  (* binder arity must match the constructor *)
  check_script_err
    (dt ^ "(declare-fun l () Lst)(assert (match l (((cons h) true) (_ false))))(check-sat)")
    "binders";
  (* case sorts must agree *)
  check_script_err
    (dt ^ "(declare-fun l () Lst)(assert (= 0 (match l ((nil 0) (_ false)))))(check-sat)")
    "disagree";
  (* scrutinee must be a datatype *)
  check_script_err
    "(declare-fun x () Int)(assert (= 0 (match x ((_ 0)))))(check-sat)" "datatype";
  (* foreign constructor *)
  check_script_err
    (dt ^ "(declare-fun l () Lst)(assert (match l (((mk a b) true) (_ false))))(check-sat)")
    "constructor"

let test_infer_shadowing () =
  let script = script_of "(declare-fun x () Int)(check-sat)" in
  let env = Typecheck.env_of_script script in
  let env' = Typecheck.add_var "x" Sort.Bool env in
  (match Typecheck.infer env' (Term.var "x") with
  | Ok Sort.Bool -> ()
  | _ -> Alcotest.fail "local binding should shadow the declaration");
  match Typecheck.infer env (Term.var "x") with
  | Ok Sort.Int -> ()
  | _ -> Alcotest.fail "declaration visible"

(* ------------------------- Theory registry ------------------------- *)

let test_registry_complete () =
  check_int "twelve theories" 12 (List.length Theory.all);
  List.iter
    (fun (t : Theory.info) ->
      check_bool (t.Theory.key ^ " doc nonempty") true
        (String.length (Theory.doc t.Theory.id) > 100);
      check_bool (t.Theory.key ^ " cfg nonempty") true
        (String.length (Theory.ground_truth_cfg t.Theory.id) > 40);
      check_bool (t.Theory.key ^ " find_by_key") true
        (Theory.find_by_key t.Theory.key = Some t))
    Theory.all

let test_registry_partition () =
  check_int "standard" 8 (List.length Theory.standard_theories);
  check_int "extensions" 4 (List.length Theory.extension_theories);
  List.iter
    (fun (t : Theory.info) ->
      check_bool (t.Theory.key ^ " marked cove") true (t.Theory.extension_of = Some "cove"))
    Theory.extension_theories

let test_ops_are_known () =
  List.iter
    (fun (t : Theory.info) ->
      List.iter
        (fun op ->
          check_bool
            (Printf.sprintf "%s/%s known" t.Theory.key op)
            true (Signature.is_known_op op))
        t.Theory.ops)
    Theory.all

let test_docs_mention_ops () =
  List.iter
    (fun (t : Theory.info) ->
      let doc = Theory.doc t.Theory.id in
      List.iter
        (fun op ->
          check_bool
            (Printf.sprintf "%s doc mentions %s" t.Theory.key op)
            true
            (O4a_util.Strx.contains_sub ~sub:op doc))
        t.Theory.ops)
    Theory.all

let test_ground_truth_cfgs_parse_and_validate () =
  List.iter
    (fun (t : Theory.info) ->
      match Grammar_kit.Ebnf.parse (Theory.ground_truth_cfg t.Theory.id) with
      | Error msg -> Alcotest.failf "%s grammar: %s" t.Theory.key msg
      | Ok cfg -> (
        match Grammar_kit.Cfg.validate cfg with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s grammar invalid: %s" t.Theory.key msg))
    Theory.all

let test_cfg_start_is_bool () =
  List.iter
    (fun (t : Theory.info) ->
      let cfg = Grammar_kit.Ebnf.parse_exn (Theory.ground_truth_cfg t.Theory.id) in
      Alcotest.(check string) (t.Theory.key ^ " start") "bool" cfg.Grammar_kit.Cfg.start)
    Theory.all

let () =
  Alcotest.run "theories"
    [
      ( "signature core/arith",
        [
          Alcotest.test_case "core ops" `Quick test_core_ops;
          Alcotest.test_case "numeric coercion" `Quick test_numeric_coercion;
          Alcotest.test_case "arith ops" `Quick test_arith_ops;
        ] );
      ( "signature bv/strings",
        [
          Alcotest.test_case "bv ops" `Quick test_bv_ops;
          Alcotest.test_case "bv indexed" `Quick test_bv_indexed;
          Alcotest.test_case "string ops" `Quick test_string_ops;
        ] );
      ( "signature extensions",
        [
          Alcotest.test_case "seq" `Quick test_seq_ops;
          Alcotest.test_case "sets" `Quick test_set_ops;
          Alcotest.test_case "relations" `Quick test_relation_ops;
          Alcotest.test_case "bags" `Quick test_bag_ops;
          Alcotest.test_case "finite fields" `Quick test_ff_ops;
          Alcotest.test_case "arrays" `Quick test_array_ops;
          Alcotest.test_case "qualified/nullary" `Quick test_qual_and_nullary;
          Alcotest.test_case "is_known_op" `Quick test_is_known_op;
          Alcotest.test_case "unknown op" `Quick test_unknown_op_error;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "well-sorted scripts" `Quick test_typecheck_ok_scripts;
          Alcotest.test_case "sort errors" `Quick test_typecheck_errors;
          Alcotest.test_case "declaration scope" `Quick test_typecheck_declaration_scope;
          Alcotest.test_case "placeholders" `Quick test_typecheck_placeholders;
          Alcotest.test_case "quantifier scope" `Quick test_typecheck_quantifier_scope;
          Alcotest.test_case "match" `Quick test_typecheck_match;
          Alcotest.test_case "shadowing" `Quick test_infer_shadowing;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "partition" `Quick test_registry_partition;
          Alcotest.test_case "ops known" `Quick test_ops_are_known;
          Alcotest.test_case "docs mention ops" `Quick test_docs_mention_ops;
          Alcotest.test_case "cfgs parse+validate" `Quick
            test_ground_truth_cfgs_parse_and_validate;
          Alcotest.test_case "cfg start symbol" `Quick test_cfg_start_is_bool;
        ] );
    ]
