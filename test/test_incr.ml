(* QCheck properties for the delta algebra (lib/datalog/delta.ml) and
   the incremental maintenance layer behind [Repository.set_incremental]:

   - a fact inserted and then deleted inside one batch nets to nothing;
   - the net multiset matches a reference counting model;
   - one batch delta equals the sequential composition of its split;
   - the lazy any-column store index is an exact column filter;
   - savepoint rollback restores the pre-savepoint materialization;
   - journal recovery replay maintains the same views as the live run;
   - views that absorb the deltas of several unread guards, a rolled-back
     guard and a savepoint rollback at once equal a fresh
     materialization;
   - frozen views stay bit-stable while the live ones keep being
     maintained, and equal a fresh materialization over the base store
     frozen with them. *)

module Store = Xic_datalog.Store
module Delta = Xic_datalog.Delta
module Term = Xic_datalog.Term
module Symbol = Xic_symbol.Symbol
open Xic_core
module Conf = Xic_workload.Conference
module Prng = Xic_workload.Prng
module XU = Xic_xupdate.Xupdate
module XP = Xic_xpath
module J = Xic_journal.Journal

(* ------------------------------------------------------------------ *)
(* Delta algebra                                                       *)
(* ------------------------------------------------------------------ *)

let syms = [| Symbol.intern "p"; Symbol.intern "q" |]

(* (add?, relation, tuple) over two relations and tiny constants, so
   collisions — the interesting case — are frequent. *)
let gen_op =
  let open QCheck2.Gen in
  let const = map (fun n -> Term.Int n) (int_bound 2) in
  map3
    (fun add s t -> (add, s, t))
    bool (int_bound 1)
    (list_size (return 2) const)

let gen_ops = QCheck2.Gen.(list_size (int_bound 24) gen_op)

let apply_ops d ops =
  List.iter
    (fun (add, s, tup) ->
      if add then Delta.add d syms.(s) tup else Delta.remove d syms.(s) tup)
    ops

let prop_cancellation =
  QCheck2.Test.make ~name:"insert then delete cancels" ~count:300 gen_ops
    (fun ops ->
      let d = Delta.create () in
      List.iter (fun (_, s, tup) -> Delta.add d syms.(s) tup) ops;
      List.iter (fun (_, s, tup) -> Delta.remove d syms.(s) tup) ops;
      Delta.is_empty d
      && Delta.added d = []
      && Delta.removed d = []
      && Delta.touched d = []
      && Delta.gross_added d = List.length ops
      && Delta.gross_removed d = List.length ops)

let prop_net_model =
  QCheck2.Test.make ~name:"net multiset matches counting model" ~count:300
    gen_ops (fun ops ->
      let d = Delta.create () in
      apply_ops d ops;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, s, tup) ->
          let k = (s, tup) in
          let c = try Hashtbl.find model k with Not_found -> 0 in
          Hashtbl.replace model k (if add then c + 1 else c - 1))
        ops;
      let expect pos =
        Hashtbl.fold
          (fun (s, tup) c acc ->
            if (pos && c > 0) || ((not pos) && c < 0) then
              (syms.(s), tup, abs c) :: acc
            else acc)
          model []
      in
      let sort = List.sort compare in
      sort (Delta.added d) = sort (expect true)
      && sort (Delta.removed d) = sort (expect false))

let prop_compose =
  QCheck2.Test.make ~name:"batch delta = sequential composition" ~count:300
    QCheck2.Gen.(pair gen_ops (int_bound 24))
    (fun (ops, k) ->
      let batch = Delta.create () in
      apply_ops batch ops;
      let rec split i acc rest =
        match rest with
        | tl when i = 0 -> (List.rev acc, tl)
        | [] -> (List.rev acc, [])
        | x :: tl -> split (i - 1) (x :: acc) tl
      in
      let pre, suf = split (min k (List.length ops)) [] ops in
      let d1 = Delta.create () and d2 = Delta.create () in
      apply_ops d1 pre;
      apply_ops d2 suf;
      Delta.compose ~into:d1 d2;
      Delta.equal d1 batch
      && Delta.gross_added d1 = Delta.gross_added batch
      && Delta.gross_removed d1 = Delta.gross_removed batch)

(* The residual delta joins probe [Store.tuples_with_col]; the lazy
   secondary index must stay an exact filter on the column under
   interleaved adds and removes, whether built before or after the
   mutations. *)
let prop_col_index =
  QCheck2.Test.make ~name:"any-column index equals column filter" ~count:300
    QCheck2.Gen.(pair gen_ops (int_bound 1))
    (fun (ops, col) ->
      let s = Store.create () in
      let early = Store.create () in
      (* [early] builds the index before the mutations, [s] after. *)
      ignore (Store.tuples_with_col_sym early syms.(0) col (Term.Int 0));
      List.iter
        (fun (add, r, tup) ->
          if add then begin
            Store.add_sym s syms.(r) tup;
            Store.add_sym early syms.(r) tup
          end
          else begin
            ignore (Store.remove_sym s syms.(r) tup);
            ignore (Store.remove_sym early syms.(r) tup)
          end)
        ops;
      let sort = List.sort compare in
      List.for_all
        (fun key ->
          let expect r =
            List.filter
              (fun tup -> List.nth_opt tup col = Some (Term.Int key))
              (Store.tuples_sym r syms.(0))
            |> sort
          in
          sort (Store.tuples_with_col_sym s syms.(0) col (Term.Int key))
          = expect s
          && sort (Store.tuples_with_col_sym early syms.(0) col (Term.Int key))
             = expect early)
        [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Frozen views                                                        *)
(* ------------------------------------------------------------------ *)

module Incr = Xic_datalog.Incr

(* One denial per maintenance route over the delta algebra's p/q
   relations: a monotone join (delta insertions, deletion
   re-verification), a negation and an aggregate (full recompute, which
   clears the view relation). *)
let view_denials =
  [ ("join", [ Xic_datalog.Parser.parse_denial ":- p(X, Y), q(Y, Z)" ]);
    ("orphan", [ Xic_datalog.Parser.parse_denial ":- p(X, _), not q(X, _)" ]);
    ("crowd", [ Xic_datalog.Parser.parse_denial ":- q(X, _), cnt(p(X, _)) > 1" ]) ]

(* Apply [ops] to the base store and feed the net delta to the views. *)
let maintain st inc ops =
  let d = Delta.create () in
  List.iter
    (fun (add, r, tup) ->
      if add then begin
        Store.add_sym st syms.(r) tup;
        Delta.add d syms.(r) tup
      end
      else if Store.remove_sym st syms.(r) tup then Delta.remove d syms.(r) tup)
    ops;
  Incr.apply_delta inc st d

let prop_frozen_views_stable =
  QCheck2.Test.make ~name:"frozen views bit-stable under view maintenance"
    ~count:200
    QCheck2.Gen.(pair gen_ops (list_size (int_bound 8) (pair gen_ops bool)))
    (fun (init, churn) ->
      let image s =
        let b = Buffer.create 256 in
        Store.serialize s b;
        Buffer.contents b
      in
      let st = Store.create () in
      let inc = Incr.create view_denials in
      Incr.initialize inc st;
      maintain st inc init;
      let base = Store.freeze st and frozen = Incr.freeze inc in
      let before = image (Incr.view frozen) in
      let stable =
        List.for_all
          (fun (ops, compact) ->
            maintain st inc ops;
            if compact then Store.compact (Incr.view inc);
            String.equal before (image (Incr.view frozen)))
          churn
      in
      let fresh = Incr.create view_denials in
      Incr.initialize fresh base;
      stable
      && Store.is_frozen (Incr.view frozen)
      && Store.equal (Incr.view frozen) (Incr.view fresh)
      && Incr.violated frozen = Incr.violated fresh)

(* ------------------------------------------------------------------ *)
(* Maintenance through the repository                                  *)
(* ------------------------------------------------------------------ *)

let names = [| "Ann"; "Bob"; "Carl"; "Dora"; "Ed" |]
let words = [| "Logic"; "Types"; "Query"; "Index" |]

let fixed_pub =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let fixed_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let mk_repo () =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_document repo fixed_pub;
  Repository.load_document repo fixed_rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.set_incremental repo true;
  repo

let count repo path =
  List.length (XP.Eval.select (Repository.doc repo) (XP.Parser.parse path))

let random_rev_path r repo =
  let t = 1 + Prng.int r (count repo "/review/track") in
  let rv = 1 + Prng.int r (count repo (Printf.sprintf "/review/track[%d]/rev" t)) in
  Printf.sprintf "/review/track[%d]/rev[%d]" t rv

let random_sub_path r repo =
  let rev = random_rev_path r repo in
  let ns = count repo (rev ^ "/sub") in
  if ns = 0 then None
  else Some (Printf.sprintf "%s/sub[%d]" rev (1 + Prng.int r ns))

let sub_content r =
  XU.Elem
    ( "sub",
      [],
      [ XU.Elem ("title", [], [ XU.Text (Prng.pick r words) ]);
        XU.Elem
          ("auts", [], [ XU.Elem ("name", [], [ XU.Text (Prng.pick r names) ]) ])
      ] )

let random_update r repo =
  let mk op select content =
    [ { XU.op; select = XP.Parser.parse select; content } ]
  in
  match Prng.int r 4 with
  | 0 ->
    Option.map
      (fun p ->
        Conf.insert_submission ~select:p ~title:(Prng.pick r words)
          ~author:(Prng.pick r names))
      (random_sub_path r repo)
  | 1 ->
    Option.map
      (fun p -> mk XU.Insert_before p [ sub_content r ])
      (random_sub_path r repo)
  | 2 -> Some (mk XU.Append (random_rev_path r repo) [ sub_content r ])
  | _ -> Option.map (fun p -> mk XU.Remove p []) (random_sub_path r repo)

let apply_random r repo txn =
  match random_update r repo with
  | Some u -> ignore (Repository.txn_apply txn u : Repository.outcome)
  | None -> ()

let prop_savepoint_rollback =
  QCheck2.Test.make ~name:"rollback restores pre-savepoint materialization"
    ~count:40
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Prng.create seed in
      let repo = mk_repo () in
      let txn = Repository.begin_txn repo in
      (* a committed-prefix update first, so the savepoint does not
         always sit at the initial state *)
      apply_random r repo txn;
      let verdict0 = Repository.check_incremental repo in
      let view0 =
        match Repository.incr_view repo with
        | Some v -> Store.freeze v
        | None -> Alcotest.fail "no materialized views"
      in
      let sp = Repository.txn_savepoint txn in
      for _ = 1 to 1 + Prng.int r 2 do
        apply_random r repo txn
      done;
      (* materialize mid-savepoint: the rollback's inverse deltas must
         retract exactly what this pass added *)
      ignore (Repository.check_incremental repo : string list);
      Repository.txn_rollback_to txn sp;
      Repository.commit_txn txn;
      let verdict1 = Repository.check_incremental repo in
      match Repository.incr_view repo with
      | Some v -> verdict0 = verdict1 && Store.equal view0 v
      | None -> false)

let prop_recovery_replay =
  QCheck2.Test.make ~name:"recovery replay maintains views like the live run"
    ~count:25
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Prng.create seed in
      let live = mk_repo () in
      ignore (Repository.check_incremental live : string list);
      let path = Test_tmp.fresh "test_incr" ".j" in
      let j = J.open_ ~sync:false path in
      for _ = 1 to 1 + Prng.int r 2 do
        let txn = Repository.begin_txn ~journal:j live in
        for _ = 1 to 1 + Prng.int r 2 do
          apply_random r live txn
        done;
        if Prng.int r 4 = 0 then Repository.rollback_txn txn
        else Repository.commit_txn txn;
        ignore (Repository.check_incremental live : string list)
      done;
      J.close j;
      let fresh = mk_repo () in
      ignore (Repository.check_incremental fresh : string list);
      ignore (Repository.recover (J.read path) fresh : Repository.recovery_report);
      let live_verdict = Repository.check_incremental live in
      let fresh_verdict = Repository.check_incremental fresh in
      Sys.remove path;
      live_verdict = fresh_verdict
      &&
      match (Repository.incr_view live, Repository.incr_view fresh) with
      | Some a, Some b -> Store.equal a b
      | _ -> false)

(* Guards flush the base store only; the views catch up at the next
   read.  Legal guards with no read between them, a guard the full
   check rolls back, and a savepoint rollback must leave the views
   exactly as a fresh materialization over the same store. *)
let prop_deferred_maintenance =
  QCheck2.Test.make ~name:"deferred view maintenance equals a fresh materialization"
    ~count:30
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Prng.create seed in
      let repo = mk_repo () in
      Repository.register_pattern repo (Conf.submission_pattern (Repository.schema repo));
      ignore (Repository.check_incremental repo : string list);
      let legal () =
        Option.map
          (fun select ->
            Conf.insert_submission ~select ~title:(Prng.pick r words)
              ~author:(Printf.sprintf "Zed%d" (Prng.int r 1000)))
          (random_sub_path r repo)
      in
      for _ = 1 to 1 + Prng.int r 4 do
        Option.iter (fun u -> ignore (Repository.guarded_update repo u)) (legal ())
      done;
      (* an unmatched statement authored by the reviewer: applied, found
         violating by the full check, compensated *)
      let own =
        [ { XU.op = XU.Append; select = XP.Parser.parse "/review/track[1]/rev[1]";
            content =
              [ XU.Elem
                  ( "sub", [],
                    [ XU.Elem ("title", [], [ XU.Text "Own" ]);
                      XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "Carl" ]) ]) ] ) ] } ]
      in
      (match Repository.guarded_update repo own with
       | Repository.Rolled_back "conflict" -> ()
       | _ -> Alcotest.fail "the reviewer's own submission must be rolled back");
      let txn = Repository.begin_txn repo in
      Option.iter (fun u -> ignore (Repository.txn_apply txn u)) (legal ());
      let sp = Repository.txn_savepoint txn in
      Option.iter (fun u -> ignore (Repository.txn_apply txn u)) (legal ());
      Repository.txn_rollback_to txn sp;
      Repository.commit_txn txn;
      let verdict = Repository.check_incremental repo in
      let fresh =
        Xic_datalog.Incr.create
          (List.map
             (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
             (Repository.constraints repo))
      in
      Xic_datalog.Incr.initialize fresh (Repository.store repo);
      verdict = Xic_datalog.Incr.violated fresh
      &&
      match Repository.incr_view repo with
      | Some v -> Store.equal v (Xic_datalog.Incr.view fresh)
      | None -> false)

let () =
  Alcotest.run "incr"
    [
      ( "delta algebra",
        [
          QCheck_alcotest.to_alcotest prop_cancellation;
          QCheck_alcotest.to_alcotest prop_net_model;
          QCheck_alcotest.to_alcotest prop_compose;
          QCheck_alcotest.to_alcotest prop_col_index;
        ] );
      ( "maintenance",
        [
          QCheck_alcotest.to_alcotest prop_savepoint_rollback;
          QCheck_alcotest.to_alcotest prop_recovery_replay;
          QCheck_alcotest.to_alcotest prop_deferred_maintenance;
          QCheck_alcotest.to_alcotest prop_frozen_views_stable;
        ] );
    ]
