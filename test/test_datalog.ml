module T = Xic_datalog.Term
module P = Xic_datalog.Parser
module S = Xic_datalog.Store
module E = Xic_datalog.Eval
module Sub = Xic_datalog.Subsume

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let i n = T.Int n
let s x = T.Str x

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_basic () =
  let st = S.create () in
  S.add st "p" [ i 1; s "a" ];
  S.add st "p" [ i 2; s "b" ];
  S.add st "q" [ i 1 ];
  checki "cardinality p" 2 (S.cardinality st "p");
  checki "total" 3 (S.total_tuples st);
  Alcotest.(check (list string)) "relations" [ "p"; "q" ] (S.relations st);
  checkb "mem" true (S.mem st "p" [ i 1; s "a" ]);
  checkb "not mem" false (S.mem st "p" [ i 1; s "b" ])

let test_store_remove () =
  let st = S.create () in
  S.add st "p" [ i 1; s "a" ];
  S.add st "p" [ i 1; s "a" ];
  checkb "remove one" true (S.remove st "p" [ i 1; s "a" ]);
  checki "bag semantics" 1 (S.cardinality st "p");
  checkb "remove second" true (S.remove st "p" [ i 1; s "a" ]);
  checkb "remove missing" false (S.remove st "p" [ i 1; s "a" ]);
  checki "empty" 0 (S.cardinality st "p")

let test_store_index () =
  let st = S.create () in
  for k = 1 to 100 do
    S.add st "p" [ i k; s "x" ]
  done;
  checki "indexed lookup" 1 (List.length (S.tuples_with_key st "p" (i 42)));
  S.add st "p" [ i 42; s "y" ];
  checki "two under key" 2 (List.length (S.tuples_with_key st "p" (i 42)))

let test_store_copy_equal () =
  let st = S.of_facts [ ("p", [ i 1 ]); ("q", [ i 2; s "b" ]) ] in
  let st' = S.copy st in
  checkb "copies equal" true (S.equal st st');
  S.add st' "p" [ i 9 ];
  checkb "diverged" false (S.equal st st');
  (* ...and the fork is two-way: the original keeps mutating too *)
  S.add st "q" [ i 3; s "c" ];
  checkb "fork isolated" false (S.mem st' "q" [ i 3; s "c" ])

let frozen_exn = Invalid_argument
    "Xic_datalog.Store: frozen generation handles are immutable"

let test_store_freeze () =
  let st = S.of_facts [ ("p", [ i 1 ]); ("p", [ i 1 ]); ("q", [ i 2; s "b" ]) ] in
  let g = S.freeze st in
  checkb "handle frozen" true (S.is_frozen g);
  checkb "writer not frozen" false (S.is_frozen st);
  checkb "handle equal" true (S.equal st g);
  Alcotest.check_raises "add raises" frozen_exn (fun () ->
    S.add g "p" [ i 9 ]);
  Alcotest.check_raises "remove raises" frozen_exn (fun () ->
    ignore (S.remove g "p" [ i 1 ]));
  Alcotest.check_raises "compact raises" frozen_exn (fun () ->
    S.compact g);
  (* the handle still serves indexed reads, privately *)
  checki "indexed read" 2 (List.length (S.tuples_with_key g "p" (i 1)));
  (* writer churn is invisible to the handle *)
  ignore (S.remove st "p" [ i 1 ]);
  S.add st "q" [ i 7; s "z" ];
  checki "handle p stable" 2 (S.cardinality g "p");
  checkb "handle q stable" false (S.mem g "q" [ i 7; s "z" ]);
  (* a fresh suffix-sharing handle costs no unshared heap *)
  checki "pristine pin is free" 0 (S.unshared_bytes ~live:st (S.freeze st))

(* ------------------------------------------------------------------ *)
(* Parser and printing                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_denial () =
  let d = P.parse_denial {| :- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R) |} in
  checki "three literals" 3 (List.length d.T.body);
  checks "printed" ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)"
    (T.denial_str d)

let test_parse_features () =
  let d = P.parse_denial {| :- p(%i, "x", 3), Y != %t, cnt(q(_, Y)) > 4, not r(Y) |} in
  checki "four literals" 4 (List.length d.T.body);
  Alcotest.(check (list string)) "params" [ "i"; "t" ] (T.denial_params d)

let test_parse_anon_distinct () =
  (* each _ is a fresh variable: p(_, _) must not force equal columns *)
  let d = P.parse_denial {| :- p(_, _) |} in
  let st = S.of_facts [ ("p", [ i 1; i 2 ]) ] in
  checkb "anonymous are independent" true (E.violated st d)

let test_parse_errors () =
  let fails x =
    match P.parse_denial x with exception P.Parse_error _ -> true | _ -> false
  in
  checkb "bare lowercase term" true (fails ":- p(X), X = abc");
  checkb "unclosed" true (fails ":- p(X");
  checkb "missing cmp" true (fails ":- X Y");
  checkb "trailing" true (fails ":- p(X) p(Y)")

let test_roundtrip () =
  List.iter
    (fun src ->
      let d = P.parse_denial src in
      let d2 = P.parse_denial (T.denial_str d) in
      checkb src true (Sub.variant d d2))
    [
      ":- p(X, Y), p(X, Z), Y != Z";
      ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4";
      ":- q(X), sum(V; r(X, V)) >= 10";
      ":- person(%i, N), N != %n";
      ":- p(X), not q(X)";
      ":- cntd(It; track(It, _, _, _), rev(_, _, It, R)) > 3, rev(_, _, _, R)";
    ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let issn_store () =
  S.of_facts
    [ ("p", [ s "i1"; s "A" ]); ("p", [ s "i2"; s "B" ]); ("p", [ s "i3"; s "C" ]) ]

let test_eval_join () =
  let st = issn_store () in
  let d = P.parse_denial ":- p(X, Y), p(X, Z), Y != Z" in
  checkb "consistent" false (E.violated st d);
  S.add st "p" [ s "i1"; s "D" ];
  checkb "violated after dup" true (E.violated st d)

let test_eval_constants () =
  let st = issn_store () in
  checkb "constant match" true (E.violated st (P.parse_denial {| :- p("i2", _) |}));
  checkb "constant miss" false (E.violated st (P.parse_denial {| :- p("i9", _) |}))

let test_eval_negation () =
  let st = issn_store () in
  checkb "not finds missing" true
    (E.violated st (P.parse_denial {| :- p(X, _), not p(X, "A") |}));
  S.add st "q" [ s "i1" ];
  checkb "anti-join" true
    (E.violated st (P.parse_denial {| :- p(X, _), not q(X) |}))

let test_eval_negation_local_vars () =
  (* negation with purely-local anonymous variables: ¬∃ semantics *)
  let st = S.of_facts [ ("r", [ i 1 ]); ("w", [ i 2; i 9 ]) ] in
  checkb "no w for r=1" true
    (E.violated st (P.parse_denial ":- r(X), not w(X, _)"));
  S.add st "w" [ i 1; i 5 ];
  checkb "now satisfied" false
    (E.violated st (P.parse_denial ":- r(X), not w(X, _)"))

let test_eval_comparison_binding () =
  let st = issn_store () in
  checkb "eq binds" true (E.violated st (P.parse_denial {| :- p(X, Y), Y = "B" |}));
  checkb "order-insensitive" true
    (E.violated st (P.parse_denial {| :- Y = "B", p(X, Y) |}))

let test_eval_cmp_ops () =
  let st = S.of_facts [ ("n", [ i 5 ]) ] in
  let t op expect = checkb op expect (E.violated st (P.parse_denial (":- n(X), X " ^ op ^ " 5"))) in
  t "=" true; t "!=" false; t "<" false; t "<=" true; t ">" false; t ">=" true

let test_eval_params () =
  let st = issn_store () in
  let d = P.parse_denial {| :- p(%i, Y), Y != %t |} in
  checkb "param hit" true
    (E.violated ~params:[ ("i", s "i1"); ("t", s "Z") ] st d);
  checkb "param miss" false
    (E.violated ~params:[ ("i", s "i1"); ("t", s "A") ] st d);
  (match E.violated st d with
   | exception E.Unsafe _ -> ()
   | _ -> Alcotest.fail "unresolved params must be rejected")

let test_eval_violations_all () =
  let st = issn_store () in
  let d = P.parse_denial ":- p(X, _)" in
  checki "three witnesses" 3 (List.length (E.violations st d))

let test_eval_unsafe () =
  let st = issn_store () in
  (match E.violated st (P.parse_denial ":- X != Y") with
   | exception E.Unsafe _ -> ()
   | _ -> Alcotest.fail "unbound comparison must be unsafe")

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let agg_store () =
  S.of_facts
    [
      ("rev", [ i 1; i 1; i 0; s "G" ]);
      ("rev", [ i 2; i 2; i 0; s "M" ]);
      ("sub", [ i 10; i 1; i 1; s "T1" ]);
      ("sub", [ i 11; i 2; i 1; s "T2" ]);
      ("sub", [ i 12; i 3; i 1; s "T3" ]);
      ("sub", [ i 13; i 1; i 2; s "T4" ]);
    ]

let test_agg_cnt () =
  let st = agg_store () in
  checkb "cnt > 2 for rev 1" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 2"));
  checkb "cnt > 3 nobody" false
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 3"))

let test_agg_cntd_distinct () =
  let st = agg_store () in
  (* duplicate tuple counts twice for cnt, once for cntd *)
  S.add st "sub" [ i 13; i 1; i 2; s "T4" ];
  checkb "cnt sees dup" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, M), M = \"M\", cnt(sub(_, _, Ir, _)) > 1"));
  checkb "cntd ignores dup" false
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, M), M = \"M\", cntd(sub(_, _, Ir, _)) > 1"))

let test_agg_target_distinct () =
  let st =
    S.of_facts
      [ ("e", [ i 1; s "x" ]); ("e", [ i 2; s "x" ]); ("e", [ i 3; s "y" ]) ]
  in
  checkb "cntd over target var" true
    (E.violated st (P.parse_denial ":- cntd(V; e(_, V)) = 2, e(_, _)"))

let test_agg_sum_max_min () =
  let st = S.of_facts [ ("v", [ i 1; i 10 ]); ("v", [ i 2; i 30 ]); ("v", [ i 3; i 10 ]) ] in
  checkb "sum" true (E.violated st (P.parse_denial ":- sum(X; v(_, X)) = 50, v(_, _)"));
  checkb "sumd" true (E.violated st (P.parse_denial ":- sumd(X; v(_, X)) = 40, v(_, _)"));
  checkb "max" true (E.violated st (P.parse_denial ":- max(X; v(_, X)) = 30, v(_, _)"));
  checkb "min" true (E.violated st (P.parse_denial ":- min(X; v(_, X)) = 10, v(_, _)"))

let test_agg_multi_atom_join () =
  (* the Example 2 shape: distinct tracks a reviewer name serves in *)
  let st =
    S.of_facts
      [
        ("track", [ i 1; i 1; i 0; s "DB" ]);
        ("track", [ i 2; i 2; i 0; s "IR" ]);
        ("rev", [ i 10; i 1; i 1; s "G" ]);
        ("rev", [ i 11; i 1; i 2; s "G" ]);
        ("rev", [ i 12; i 2; i 2; s "M" ]);
      ]
  in
  let d k =
    P.parse_denial
      (Printf.sprintf
         ":- rev(_, _, _, R), cntd(It; track(It, _, _, _), rev(_, _, It, R)) > %d" k)
  in
  checkb "G serves 2 tracks" true (E.violated st (d 1));
  checkb "nobody serves 3" false (E.violated st (d 2))

(* An aggregate's atoms listed worst-first must cost what best-first
   costs.  [n] tracks of four revs each; reviewer [A<t>] and [B<t>]
   serve in tracks [t] and [t-1], and "Solo" in track 0 only. *)
let tracks_store n =
  let facts = ref [] in
  for t = 0 to n - 1 do
    let tid = 1 + (10 * t) in
    facts := ("track", [ i tid; i (t + 1); i 0; s (Printf.sprintf "T%d" t) ]) :: !facts;
    List.iteri
      (fun k name -> facts := ("rev", [ i (tid + 1 + k); i (k + 1); i tid; s name ]) :: !facts)
      [ Printf.sprintf "A%d" t; Printf.sprintf "B%d" t;
        Printf.sprintf "A%d" ((t + 1) mod n); Printf.sprintf "B%d" ((t + 1) mod n) ]
  done;
  facts := ("rev", [ i 5; i 5; i 1; s "Solo" ]) :: !facts;
  S.of_facts !facts

let test_agg_join_order () =
  let worst = "track(It, _, _, _), rev(_, _, It, R)" in
  let best = "rev(_, _, It, R), track(It, _, _, _)" in
  let d atoms cmp = P.parse_denial (Printf.sprintf ":- rev(_, _, _, R), cntd(It; %s) %s" atoms cmp) in
  let st = tracks_store 40 in
  List.iter
    (fun cmp ->
      checkb ("same value, " ^ cmp) (E.violated st (d best cmp)) (E.violated st (d worst cmp)))
    [ "= 1"; "= 2"; "> 2"; "!= 2" ];
  checkb "Solo serves one track" true
    (E.violated st (P.parse_denial (Printf.sprintf ":- R = \"Solo\", cntd(It; %s) = 1" worst)));
  (* no reviewer serves three tracks, so every reviewer is visited *)
  let steps n = snd (E.with_meter (fun () -> E.violated (tracks_store n) (d worst "> 2"))) in
  let small = steps 40 and large = steps 80 in
  if float_of_int large > 2.5 *. float_of_int small then
    Alcotest.failf "steps grew %d -> %d when the relation doubled" small large

let test_agg_empty_group () =
  let st = S.of_facts [ ("rev", [ i 1; i 1; i 0; s "G" ]) ] in
  checkb "cnt over empty = 0" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) = 0"))

(* ------------------------------------------------------------------ *)
(* Subsumption                                                         *)
(* ------------------------------------------------------------------ *)

let sub_test phi psi expect () =
  checkb
    (Printf.sprintf "%s subsumes %s" phi psi)
    expect
    (Sub.subsumes (P.parse_denial phi) (P.parse_denial psi))

let test_subsume_instance = sub_test ":- p(X, Y)" {| :- p("a", Z), q(Z) |} true
let test_subsume_reverse = sub_test {| :- p("a", Z), q(Z) |} ":- p(X, Y)" false
let test_subsume_join = sub_test ":- p(X), q(X)" ":- p(Y), q(Y), r(Y)" true
let test_subsume_join_fail = sub_test ":- p(X), q(X)" ":- p(Y), q(Z)" false
let test_subsume_param = sub_test ":- p(%i, _)" ":- p(%i, Y), q(Y)" true
let test_subsume_param_mismatch = sub_test ":- p(%i, _)" ":- p(%j, Y)" false

let test_subsume_cmp_symmetry () =
  checkb "eq sym" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X = Y") (P.parse_denial ":- p(A, B), B = A"));
  checkb "neq sym" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X != Y") (P.parse_denial ":- p(A, B), B != A"))

let test_subsume_cmp_normalize () =
  checkb "gt as lt" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X < Y") (P.parse_denial ":- p(A, B), B > A"))

let test_subsume_agg_weakening () =
  let phi = P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 3" in
  let psi = P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4" in
  checkb "weaker bound subsumes" true (Sub.subsumes phi psi);
  checkb "not conversely" false (Sub.subsumes psi phi)

let test_variant () =
  let a = P.parse_denial ":- p(X, Y), q(Y)" in
  let b = P.parse_denial ":- p(U, V), q(V)" in
  checkb "variants" true (Sub.variant a b);
  let c = P.parse_denial ":- p(X, X), q(X)" in
  checkb "not variant" false (Sub.variant a c)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random ground stores over p/2, q/1 with small constants. *)
let gen_store =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map (fun a -> ("q", [ a ])) const ]
  in
  map S.of_facts (list_size (int_bound 12) fact)

let prop_violation_is_witness =
  QCheck2.Test.make ~name:"violation returns a real witness" ~count:200 gen_store
    (fun st ->
      let d = P.parse_denial ":- p(X, Y), q(Y)" in
      match E.violation st d with
      | None -> not (E.violated st d)
      | Some binds ->
        let x = List.assoc "X" binds and y = List.assoc "Y" binds in
        S.mem st "p" [ x; y ] && S.mem st "q" [ y ])

let prop_subsumption_semantic =
  (* if phi subsumes psi then every store violating psi violates phi *)
  QCheck2.Test.make ~name:"subsumption implies semantic entailment" ~count:200
    gen_store (fun st ->
      let phi = P.parse_denial ":- p(X, Y)" in
      let psi = P.parse_denial ":- p(X, X), q(X)" in
      (not (Sub.subsumes phi psi)) || (not (E.violated st psi)) || E.violated st phi)

let prop_cnt_matches_length =
  QCheck2.Test.make ~name:"cnt agrees with tuple count" ~count:200 gen_store
    (fun st ->
      let n = S.cardinality st "p" in
      let d = P.parse_denial (Printf.sprintf ":- q(_), cnt(p(_, _)) != %d" n) in
      (* if q is non-empty the aggregate literal must match exactly n *)
      S.cardinality st "q" = 0 || not (E.violated st d))

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

(* The solver's answer must not depend on body literal order. *)
let prop_order_independence =
  let open QCheck2.Gen in
  let shuffled_pair =
    let body = ":- p(X, Y), q(Y), X != Y, not p(Y, X)" in
    map (fun seed -> (body, seed)) (int_bound 1000)
  in
  QCheck2.Test.make ~name:"literal order independence" ~count:200
    (QCheck2.Gen.pair gen_store shuffled_pair)
    (fun (st, (body, seed)) ->
      let d = P.parse_denial body in
      let permuted =
        (* deterministic pseudo-shuffle of the body by the seed *)
        let arr = Array.of_list d.T.body in
        let n = Array.length arr in
        let s = ref seed in
        for i = n - 1 downto 1 do
          s := ((!s * 48271) + 11) mod 233280;
          let j = !s mod (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        { d with T.body = Array.to_list arr }
      in
      E.violated st d = E.violated st permuted)

(* A frozen generation must be bit-stable — byte-identical serialized
   image — under arbitrary writer mutations, including the compactions
   they trigger; and rolling every mutation back (inverse ops, reverse
   order — exactly what [Repository.rollback] replays) must bring the
   writer back to multiset equality with the generation. *)
let prop_frozen_generation_stable =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map (fun a -> ("q", [ a ])) const ]
  in
  let op =
    frequency
      [ (4, map (fun f -> `Add f) fact);
        (3, map (fun f -> `Remove f) fact);
        (1, return `Clear_q);
        (1, return `Compact) ]
  in
  QCheck2.Test.make ~name:"frozen generation bit-stable under writer churn"
    ~count:200
    (pair gen_store (list_size (int_bound 24) op))
    (fun (st, ops) ->
      let image s =
        let b = Buffer.create 256 in
        S.serialize s b;
        Buffer.contents b
      in
      let gen = S.freeze st in
      let before = image gen in
      let undo =
        List.filter_map
          (fun op ->
            match op with
            | `Add (p, tup) ->
              S.add st p tup;
              Some (`Unadd (p, tup))
            | `Remove (p, tup) ->
              if S.remove st p tup then Some (`Unremove (p, tup)) else None
            | `Clear_q ->
              let saved = S.tuples st "q" in
              S.clear_sym st (Xic_symbol.Symbol.intern "q");
              Some (`Unclear saved)
            | `Compact ->
              S.compact st;
              None)
          ops
      in
      let mid = image gen in
      List.iter
        (fun u ->
          match u with
          | `Unadd (p, tup) -> ignore (S.remove st p tup)
          | `Unremove (p, tup) -> S.add st p tup
          | `Unclear saved -> List.iter (S.add st "q") saved)
        (List.rev undo);
      let after = image gen in
      S.is_frozen gen
      && String.equal before mid
      && String.equal before after
      && S.equal st gen)

let test_eval_param_only_atom () =
  let st = S.of_facts [ ("p", [ i 7 ]) ] in
  let d = P.parse_denial ":- p(%k)" in
  checkb "hit" true (E.violated ~params:[ ("k", i 7) ] st d);
  checkb "miss" false (E.violated ~params:[ ("k", i 8) ] st d)

let test_eval_cross_product () =
  (* no shared variables: plain cross product must still work *)
  let st = S.of_facts [ ("p", [ i 1 ]); ("q", [ i 2 ]) ] in
  checkb "cross" true (E.violated st (P.parse_denial ":- p(X), q(Y)"))

let test_eval_self_join_same_tuple () =
  (* p(X,Y), p(Y,X) satisfied by a symmetric pair or a diagonal tuple *)
  let st = S.of_facts [ ("p", [ i 1; i 2 ]) ] in
  checkb "no symmetric pair" false (E.violated st (P.parse_denial ":- p(X, Y), p(Y, X)"));
  S.add st "p" [ i 2; i 1 ];
  checkb "symmetric pair" true (E.violated st (P.parse_denial ":- p(X, Y), p(Y, X)"))

let test_eval_agg_bound_from_var () =
  (* the aggregate bound may be a variable bound by another literal *)
  let st = S.of_facts [ ("lim", [ i 2 ]); ("p", [ i 1 ]); ("p", [ i 2 ]); ("p", [ i 3 ]) ] in
  checkb "bound from relation" true
    (E.violated st (P.parse_denial ":- lim(K), cnt(p(_)) > K"))

let test_subsume_not_literal () =
  let phi = P.parse_denial ":- p(X), not q(X)" in
  let psi = P.parse_denial ":- p(Y), not q(Y), r(Y)" in
  checkb "negation matched" true (Sub.subsumes phi psi);
  let psi2 = P.parse_denial ":- p(Y), q(Y)" in
  checkb "polarity respected" false (Sub.subsumes phi psi2)

let test_subsume_multiset () =
  (* two distinct literals of phi may map onto one literal of psi *)
  let phi = P.parse_denial ":- p(X, Y), p(Z, Y)" in
  let psi = P.parse_denial ":- p(A, B)" in
  checkb "non-injective map" true (Sub.subsumes phi psi)

let test_rename_apart () =
  let d = P.parse_denial ":- p(X), q(X)" in
  let r = Xic_datalog.Subst.rename_denial d in
  checkb "still a variant" true (Sub.variant d r);
  checkb "no shared names" true
    (List.for_all (fun v -> not (List.mem v (T.denial_vars d))) (T.denial_vars r))

let test_params_partial_application () =
  let d = P.parse_denial ":- p(%a, %b)" in
  let d' = Xic_datalog.Subst.apply_params_denial [ ("a", i 1) ] d in
  Alcotest.(check (list string)) "b remains" [ "b" ] (T.denial_params d')

let () =
  Alcotest.run "datalog"
    [
      ( "store",
        [
          Alcotest.test_case "basic" `Quick test_store_basic;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "index" `Quick test_store_index;
          Alcotest.test_case "copy/equal" `Quick test_store_copy_equal;
          Alcotest.test_case "freeze" `Quick test_store_freeze;
        ] );
      ( "parser",
        [
          Alcotest.test_case "denial" `Quick test_parse_denial;
          Alcotest.test_case "features" `Quick test_parse_features;
          Alcotest.test_case "anonymous vars" `Quick test_parse_anon_distinct;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "constants" `Quick test_eval_constants;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "negation locals" `Quick test_eval_negation_local_vars;
          Alcotest.test_case "comparison binding" `Quick test_eval_comparison_binding;
          Alcotest.test_case "comparison ops" `Quick test_eval_cmp_ops;
          Alcotest.test_case "parameters" `Quick test_eval_params;
          Alcotest.test_case "all violations" `Quick test_eval_violations_all;
          Alcotest.test_case "unsafe" `Quick test_eval_unsafe;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "cnt" `Quick test_agg_cnt;
          Alcotest.test_case "cntd distinct" `Quick test_agg_cntd_distinct;
          Alcotest.test_case "cntd target" `Quick test_agg_target_distinct;
          Alcotest.test_case "sum/max/min" `Quick test_agg_sum_max_min;
          Alcotest.test_case "multi-atom join" `Quick test_agg_multi_atom_join;
          Alcotest.test_case "join order" `Quick test_agg_join_order;
          Alcotest.test_case "empty group" `Quick test_agg_empty_group;
        ] );
      ( "subsumption",
        [
          Alcotest.test_case "instance" `Quick test_subsume_instance;
          Alcotest.test_case "reverse" `Quick test_subsume_reverse;
          Alcotest.test_case "join" `Quick test_subsume_join;
          Alcotest.test_case "join fail" `Quick test_subsume_join_fail;
          Alcotest.test_case "param" `Quick test_subsume_param;
          Alcotest.test_case "param mismatch" `Quick test_subsume_param_mismatch;
          Alcotest.test_case "cmp symmetry" `Quick test_subsume_cmp_symmetry;
          Alcotest.test_case "cmp normalize" `Quick test_subsume_cmp_normalize;
          Alcotest.test_case "agg weakening" `Quick test_subsume_agg_weakening;
          Alcotest.test_case "variants" `Quick test_variant;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "param-only atom" `Quick test_eval_param_only_atom;
          Alcotest.test_case "cross product" `Quick test_eval_cross_product;
          Alcotest.test_case "self join" `Quick test_eval_self_join_same_tuple;
          Alcotest.test_case "agg bound from var" `Quick test_eval_agg_bound_from_var;
          Alcotest.test_case "subsume negation" `Quick test_subsume_not_literal;
          Alcotest.test_case "subsume multiset" `Quick test_subsume_multiset;
          Alcotest.test_case "rename apart" `Quick test_rename_apart;
          Alcotest.test_case "partial params" `Quick test_params_partial_application;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_violation_is_witness;
          QCheck_alcotest.to_alcotest prop_subsumption_semantic;
          QCheck_alcotest.to_alcotest prop_cnt_matches_length;
          QCheck_alcotest.to_alcotest prop_order_independence;
          QCheck_alcotest.to_alcotest prop_frozen_generation_stable;
        ] );
    ]
