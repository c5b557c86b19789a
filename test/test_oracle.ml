(* Differential test oracle (index layer): randomized conference-style
   documents, denials from the paper's constraint class, and random
   XUpdate sequences.  Eight evaluation routes must agree on every
   check — the indexed planner, the scan interpreter, the Datalog
   evaluation of the shredded relational mapping, the cached compiled
   plans, the parallel checker at [-j 2..4], the fully traced checker
   (spans + detailed metrics on), the fused single-pass loader
   (parse+intern+shred in one sweep, compared against the legacy
   parse-then-shred pipeline relation by relation), and the incremental
   delta-maintained checker (materialized denial views vs from-scratch
   recompute, [Store.equal] on the views) — and the incrementally
   maintained indexes must equal indexes rebuilt from scratch after
   every apply / undo / savepoint-rollback / crash-recovery sequence.
   Before every randomized guarded statement, the guard's Datalog
   pre-check must agree with the XQuery simplified check.

   Iteration count comes from [XIC_ORACLE_ITERS] (small by default so
   [dune runtest] stays fast); [dune build @oracle] runs 500.  The PRNG
   is seeded per iteration and every failure message carries the seed,
   so failures reproduce deterministically. *)

open Xic_core
module Conf = Xic_workload.Conference
module Prng = Xic_workload.Prng
module XU = Xic_xupdate.Xupdate
module XP = Xic_xpath
module J = Xic_journal.Journal
module Index = Xic_xml.Index
module Obs = Xic_obs.Obs

let checkb = Alcotest.(check bool)

let iters =
  match Sys.getenv_opt "XIC_ORACLE_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 30)
  | None -> 30

(* ------------------------------------------------------------------ *)
(* Random documents (valid against the pub/rev DTDs)                   *)
(* ------------------------------------------------------------------ *)

let names = [| "Ann"; "Bob"; "Carl"; "Dora"; "Ed"; "Fay"; "Gus"; "Hal"; "Ina" |]
let words = [| "Logic"; "Types"; "Query"; "Index"; "Proofs"; "Graphs"; "Views" |]

let buf_elt b tag s = Buffer.add_string b (Printf.sprintf "<%s>%s</%s>" tag s tag)

let gen_pub r =
  let b = Buffer.create 256 in
  Buffer.add_string b "<dblp>";
  for _ = 1 to Prng.int r 5 do
    Buffer.add_string b "<pub>";
    buf_elt b "title" (Prng.pick r words);
    for _ = 0 to Prng.int r 3 do
      Buffer.add_string b "<aut>";
      buf_elt b "name" (Prng.pick r names);
      Buffer.add_string b "</aut>"
    done;
    Buffer.add_string b "</pub>"
  done;
  Buffer.add_string b "</dblp>";
  Buffer.contents b

let gen_sub r b =
  Buffer.add_string b "<sub>";
  buf_elt b "title" (Prng.pick r words ^ " " ^ Prng.pick r words);
  for _ = 0 to Prng.int r 2 do
    Buffer.add_string b "<auts>";
    buf_elt b "name" (Prng.pick r names);
    Buffer.add_string b "</auts>"
  done;
  Buffer.add_string b "</sub>"

let gen_rev r =
  let b = Buffer.create 512 in
  Buffer.add_string b "<review>";
  for _ = 0 to Prng.int r 2 do
    Buffer.add_string b "<track>";
    buf_elt b "name" (Prng.pick r words);
    for _ = 0 to Prng.int r 2 do
      Buffer.add_string b "<rev>";
      buf_elt b "name" (Prng.pick r names);
      for _ = 0 to Prng.int r 3 do
        gen_sub r b
      done;
      Buffer.add_string b "</rev>"
    done;
    Buffer.add_string b "</track>"
  done;
  Buffer.add_string b "</review>";
  Buffer.contents b

let repo_of ~pub ~rev =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_document repo pub;
  Repository.load_document repo rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

let random_repo r = repo_of ~pub:(gen_pub r) ~rev:(gen_rev r)

(* Same repository, built through the fused single-pass loader instead
   of parse-then-shred: the store is filled by the parser's sink. *)
let repo_of_fused ~pub ~rev =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo pub;
  Repository.load_fused repo rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

(* ------------------------------------------------------------------ *)
(* Oracle assertions                                                   *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

(* Compare the five routes without toggling [set_use_index], so the
   live index stays incrementally maintained across the whole sequence
   instead of being dropped and rebuilt at every check.  [check_full]
   runs the cached closure plans (compiled route); re-running it with
   parallelism 2..4 additionally exercises the shared-index phase and
   the domain pool's deterministic merge. *)
let check_agreement ~seed repo what =
  let doc = Repository.doc repo in
  let idx = Repository.index repo in
  let verdict f =
    sorted
      (List.filter_map
         (fun c -> if f c then Some c.Constr.name else None)
         (Repository.constraints repo))
  in
  let indexed = verdict (fun c -> Constr.violated_xquery ?index:idx doc c) in
  let scan = verdict (fun c -> Constr.violated_xquery doc c) in
  let datalog = sorted (Repository.check_full_datalog repo) in
  let compiled = sorted (Repository.check_full repo) in
  Repository.set_parallelism repo (2 + (seed mod 3));
  let parallel = sorted (Repository.check_full repo) in
  Repository.set_parallelism repo 1;
  (* Sixth route: full instrumentation on.  Spans and detailed metrics
     must not change verdicts, and the observed counters must satisfy
     their structural invariants: every index probe enumerates at least
     one candidate event, and every plan-cache consultation is either a
     hit or a compilation. *)
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_detailed true;
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Metrics.set_detailed false;
        Obs.Trace.reset ())
      (fun () -> sorted (Repository.check_full repo))
  in
  let counters, _ = Repository.metrics repo in
  let cval name = Option.value ~default:0 (List.assoc_opt name counters) in
  checkb
    (Printf.sprintf "[seed %d] %s: probes <= candidates" seed what)
    true
    (cval "eval_index_probes" <= cval "eval_candidates");
  checkb
    (Printf.sprintf "[seed %d] %s: plan hits + misses = requests" seed what)
    true
    (cval "plan_cache_hits" + cval "plan_cache_misses"
     = cval "plan_compile_requests");
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: indexed = scan" seed what)
    scan indexed;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: datalog = scan" seed what)
    scan datalog;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: compiled plans = scan" seed what)
    scan compiled;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: parallel (-j 2..4) = scan" seed what)
    scan parallel;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: traced = scan" seed what)
    scan traced

let check_index_consistent ~seed repo what =
  match Repository.index repo with
  | None -> Alcotest.failf "[seed %d] %s: index unexpectedly disabled" seed what
  | Some i ->
    ignore (Index.by_name i "sub" : Xic_xml.Doc.node_id list);
    (match Index.consistency_errors i with
     | [] -> ()
     | errs ->
       Alcotest.failf "[seed %d] %s: index inconsistent: %s" seed what
         (String.concat "; " errs))

(* ------------------------------------------------------------------ *)
(* Random updates                                                      *)
(* ------------------------------------------------------------------ *)

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
  | _ ->
    Option.map (fun p -> mk XU.Remove p []) (random_sub_path r repo)

(* ------------------------------------------------------------------ *)
(* Regression: rollback must not leave a stale index                   *)
(* ------------------------------------------------------------------ *)

let fixed_pub =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let fixed_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let fixed_repo () = repo_of ~pub:fixed_pub ~rev:fixed_rev

(* Before the index was maintained at the [Doc] observer level, the undo
   path of [Xupdate] emitted no maintenance events: after a rollback the
   index still listed the reverted insertion.  This reproduces that. *)
let test_rollback_not_stale () =
  let repo = fixed_repo () in
  match Repository.index repo with
  | None -> Alcotest.fail "index expected"
  | Some i ->
    checkb "phantom absent before" true (Index.by_pcdata i ~tag:"title" "Phantom" = []);
    let u =
      Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
        ~title:"Phantom" ~author:"Zed"
    in
    let undo = Repository.apply_unchecked repo u in
    checkb "insertion indexed" true (Index.by_pcdata i ~tag:"title" "Phantom" <> []);
    Repository.rollback repo undo;
    checkb "rolled-back insertion purged from index" true
      (Index.by_pcdata i ~tag:"title" "Phantom" = []);
    checkb "index consistent after rollback" true (Index.consistent i)

let test_savepoint_rollback_not_stale () =
  let repo = fixed_repo () in
  match Repository.index repo with
  | None -> Alcotest.fail "index expected"
  | Some i ->
    ignore (Index.by_name i "sub" : Xic_xml.Doc.node_id list);
    let txn = Repository.begin_txn repo in
    let sp = Repository.txn_savepoint txn in
    (match
       Repository.txn_apply txn
         (Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
            ~title:"Ghost" ~author:"Zed")
     with
     | Repository.Applied _ -> ()
     | _ -> Alcotest.fail "legal insertion should apply");
    checkb "insertion indexed" true (Index.by_pcdata i ~tag:"title" "Ghost" <> []);
    Repository.txn_rollback_to txn sp;
    Repository.commit_txn txn;
    checkb "savepoint rollback purged from index" true
      (Index.by_pcdata i ~tag:"title" "Ghost" = []);
    checkb "index consistent after savepoint rollback" true (Index.consistent i)

(* A guarded statement inside [txn].  When it instantiates the
   registered pattern, the guard's Datalog pre-check over the mirror
   must first agree with the XQuery reference route on the same state. *)
let guard ~seed repo txn u =
  (match Repository.match_update repo u with
   | None -> ()
   | Some (p, v) ->
     let xq, xq_degs = Repository.try_check_optimized repo p v in
     let dl, dl_degs = Repository.try_check_optimized_datalog repo p v in
     checkb (Printf.sprintf "[seed %d] pre-checks complete" seed) true
       (xq_degs = [] && dl_degs = []);
     Alcotest.(check (list string))
       (Printf.sprintf "[seed %d] datalog pre-check = xquery pre-check" seed)
       (sorted xq) (sorted dl));
  ignore (Repository.txn_apply txn u : Repository.outcome)

(* ------------------------------------------------------------------ *)
(* Randomized oracles                                                  *)
(* ------------------------------------------------------------------ *)

let test_apply_undo_oracle () =
  for i = 1 to iters do
    let seed = 1000 + i in
    let r = Prng.create seed in
    let repo = random_repo r in
    check_index_consistent ~seed repo "initial";
    check_agreement ~seed repo "initial";
    let undos = ref [] in
    for s = 1 to 1 + Prng.int r 5 do
      match random_update r repo with
      | None -> ()
      | Some u ->
        undos := Repository.apply_unchecked repo u :: !undos;
        let what = Printf.sprintf "after apply %d" s in
        check_index_consistent ~seed repo what;
        check_agreement ~seed repo what
    done;
    (* Roll back a random suffix (possibly all) of the applied updates,
       in reverse application order. *)
    let k = Prng.int r (List.length !undos + 1) in
    List.iteri
      (fun n u ->
        if n < k then begin
          Repository.rollback repo u;
          check_index_consistent ~seed repo (Printf.sprintf "after undo %d" n)
        end)
      !undos;
    check_agreement ~seed repo "after undos"
  done

let test_txn_savepoint_oracle () =
  for i = 1 to max 1 (iters / 3) do
    let seed = 5000 + i in
    let r = Prng.create seed in
    let repo = random_repo r in
    check_index_consistent ~seed repo "initial";
    let txn = Repository.begin_txn repo in
    let apply_some n =
      for _ = 1 to n do
        Option.iter (guard ~seed repo txn) (random_update r repo)
      done
    in
    apply_some (1 + Prng.int r 3);
    let sp = Repository.txn_savepoint txn in
    apply_some (1 + Prng.int r 3);
    Repository.txn_rollback_to txn sp;
    check_index_consistent ~seed repo "after savepoint rollback";
    check_agreement ~seed repo "after savepoint rollback";
    apply_some 1;
    if Prng.bool r then Repository.commit_txn txn
    else Repository.rollback_txn txn;
    check_index_consistent ~seed repo "after txn close";
    check_agreement ~seed repo "after txn close"
  done

let fresh_path () = Test_tmp.fresh "test_oracle" ".j"

let test_recover_oracle () =
  for i = 1 to max 1 (iters / 3) do
    let seed = 9000 + i in
    (* Two generators with the same seed: [r] drives the original run,
       [r2] regenerates identical base documents for the crashed copy. *)
    let r = Prng.create seed in
    let r2 = Prng.create seed in
    let repo = random_repo r in
    let path = fresh_path () in
    let j = J.open_ ~sync:false path in
    let txn = Repository.begin_txn ~journal:j repo in
    for _ = 1 to 1 + Prng.int r 3 do
      match random_update r repo with
      | Some u -> ignore (Repository.txn_apply txn u : Repository.outcome)
      | None -> ()
    done;
    Repository.commit_txn txn;
    J.close j;
    (* "Crash": replay the journal against a fresh repository whose
       index is forced *before* recovery, so replay must maintain it. *)
    let repo2 = repo_of ~pub:(gen_pub r2) ~rev:(gen_rev r2) in
    check_index_consistent ~seed repo2 "before recover";
    ignore (Repository.recover (J.read path) repo2 : Repository.recovery_report);
    check_index_consistent ~seed repo2 "after recover";
    check_agreement ~seed repo2 "after recover";
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] recovered verdicts = original" seed)
      (sorted (Repository.check_full repo))
      (sorted (Repository.check_full repo2));
    Sys.remove path
  done

(* ------------------------------------------------------------------ *)
(* Seventh route: fused loader vs legacy parse-then-shred              *)
(* ------------------------------------------------------------------ *)

module Store = Xic_datalog.Store

(* Relation-by-relation comparison with a named culprit on mismatch —
   [Store.equal] alone would only say "differs". *)
let check_stores_equal ~seed what legacy fused =
  (* Compare non-empty relations only, matching [Store.equal]: removing
     the last tuple of a relation leaves an empty record behind, which a
     from-scratch build never creates. *)
  let rels s =
    Store.relations s
    |> List.filter (fun n -> Store.cardinality s n > 0)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: same relations" seed what)
    (rels legacy) (rels fused);
  List.iter
    (fun rel ->
      let ts s = List.sort compare (Store.tuples s rel) in
      if ts legacy <> ts fused then
        Alcotest.failf "[seed %d] %s: relation %s differs (%d vs %d tuples)"
          seed what rel
          (Store.cardinality legacy rel)
          (Store.cardinality fused rel))
    (rels legacy);
  checkb
    (Printf.sprintf "[seed %d] %s: stores equal" seed what)
    true
    (Store.equal legacy fused)

let test_fused_loader_oracle () =
  let run ~seed ~pub ~rev what =
    let legacy = repo_of ~pub ~rev in
    let fused = repo_of_fused ~pub ~rev in
    check_stores_equal ~seed what (Repository.store legacy)
      (Repository.store fused);
    check_index_consistent ~seed fused what;
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] %s: fused verdicts = legacy" seed what)
      (sorted (Repository.check_full legacy))
      (sorted (Repository.check_full fused));
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] %s: fused datalog verdicts = legacy" seed what)
      (sorted (Repository.check_full_datalog legacy))
      (sorted (Repository.check_full_datalog fused))
  in
  (* The paper's running scenario: Example 1 (review conflict) and
     Example 2 (reviewer workload) over the fixed pub/rev documents,
     once consistent and once with a planted conflict (Carl reviews a
     submission he co-authored). *)
  run ~seed:0 ~pub:fixed_pub ~rev:fixed_rev "examples 1+2 consistent";
  let conflicted_rev =
    {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>Joint</title><auts><name>Carl</name></auts></sub></rev></track></review>|}
  in
  run ~seed:0 ~pub:fixed_pub ~rev:conflicted_rev "examples 1+2 violated";
  for i = 1 to iters do
    let seed = 13000 + i in
    let r = Prng.create seed in
    run ~seed ~pub:(gen_pub r) ~rev:(gen_rev r) "random"
  done

(* ------------------------------------------------------------------ *)
(* Eighth route: incremental maintenance vs recompute                  *)
(* ------------------------------------------------------------------ *)

(* Three-way agreement after every commit of a randomized transaction
   stream: (a) the incremental verdict equals the full check, (b) the
   event-maintained store equals a from-scratch re-shred, (c) the
   delta-maintained denial views equal views recomputed from scratch on
   the current store. *)
let check_incremental_agreement ~seed repo what =
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: incremental verdict = full" seed what)
    (sorted (Repository.check_full repo))
    (sorted (Repository.check_incremental repo));
  check_stores_equal ~seed
    (what ^ " (maintained store vs re-shred)")
    (Xic_relmap.Shred.shred
       (Schema.mapping (Repository.schema repo))
       (Repository.doc repo))
    (Repository.store repo);
  let maintained =
    match Repository.incr_view repo with
    | Some v -> Store.freeze v
    | None -> Alcotest.failf "[seed %d] %s: no materialized views" seed what
  in
  Repository.set_incremental repo false;  (* drop the views... *)
  Repository.set_incremental repo true;
  ignore (Repository.check_incremental repo : string list);  (* ...recompute *)
  match Repository.incr_view repo with
  | Some fresh ->
    check_stores_equal ~seed (what ^ " (maintained views vs recompute)")
      fresh maintained
  | None -> Alcotest.failf "[seed %d] %s: recompute built no views" seed what

let test_incremental_oracle () =
  (* the paper's fixed scenario, consistent and violated *)
  List.iter
    (fun (what, rev) ->
      let repo = repo_of ~pub:fixed_pub ~rev in
      Repository.set_incremental repo true;
      check_incremental_agreement ~seed:0 repo what)
    [ ("examples consistent", fixed_rev);
      ( "examples violated",
        {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>Joint</title><auts><name>Carl</name></auts></sub></rev></track></review>|}
      ) ];
  for i = 1 to iters do
    let seed = 17000 + i in
    let r = Prng.create seed in
    let repo = random_repo r in
    Repository.set_incremental repo true;
    check_incremental_agreement ~seed repo "initial";
    let path = fresh_path () in
    let j = J.open_ ~sync:false path in
    for round = 1 to 1 + Prng.int r 3 do
      let txn = Repository.begin_txn ~journal:j repo in
      for _ = 1 to 1 + Prng.int r 2 do
        Option.iter (guard ~seed repo txn) (random_update r repo)
      done;
      (* sometimes wind a savepoint forward and roll it back: the
         inverse deltas must retract exactly what the forward pass
         materialized *)
      if Prng.bool r then begin
        let sp = Repository.txn_savepoint txn in
        Option.iter (guard ~seed repo txn) (random_update r repo);
        ignore (Repository.check_incremental repo : string list);
        Repository.txn_rollback_to txn sp
      end;
      if Prng.int r 4 = 0 then Repository.rollback_txn txn
      else Repository.commit_txn txn;
      check_incremental_agreement ~seed repo
        (Printf.sprintf "after txn round %d" round)
    done;
    J.close j;
    (* replay the journal into a fresh repository with views materialized
       before recovery: replay deltas must maintain them too *)
    let r2 = Prng.create seed in
    let repo2 = repo_of ~pub:(gen_pub r2) ~rev:(gen_rev r2) in
    Repository.set_incremental repo2 true;
    ignore (Repository.check_incremental repo2 : string list);
    ignore (Repository.recover (J.read path) repo2 : Repository.recovery_report);
    check_incremental_agreement ~seed repo2 "after recovery replay";
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] recovered incremental verdict = original" seed)
      (sorted (Repository.check_incremental repo))
      (sorted (Repository.check_incremental repo2));
    Sys.remove path
  done

(* ------------------------------------------------------------------ *)
(* Route 9: the resident server                                        *)
(* ------------------------------------------------------------------ *)

(* A forked server child answers over a Unix-domain socket while the
   parent mirrors the same randomized workload onto a shadow repository
   through the library API.  Every step must agree verdict for verdict:
   live checks, guarded updates, transactional batches, and pinned
   reads (which must keep answering at their generation while newer
   ones commit).  A checkpoint fires mid-stream — truncating the
   server's journal under the pins — and after a graceful shutdown the
   parent restarts from snapshot + journal suffix and re-checks
   parity. *)

module Srv = Xic_server.Server
module Proto = Xic_server.Protocol

let outcome_tag9 = function
  | Repository.Applied `Optimized -> "applied:optimized"
  | Repository.Applied `Runtime_simplified -> "applied:runtime_simplified"
  | Repository.Applied `Full_check -> "applied:full_check"
  | Repository.Rejected_early c -> "rejected:" ^ c
  | Repository.Rolled_back c -> "rolled_back:" ^ c

let response_tag resp =
  if not (Proto.bool_field "ok" resp) then "error"
  else
    match Proto.string_field "outcome" resp with
    | Some "applied" ->
      (match Proto.string_field "strategy" resp with
       | Some s -> "applied:" ^ s
       | None -> "applied:?")
    | Some o ->
      o ^ ":"
      ^ Option.value ~default:"?" (Proto.string_field "constraint" resp)
    | None -> "error"

let connect_retry sock =
  let rec go n =
    match Proto.connect (Proto.Unix_sock sock) with
    | fd -> fd
    | exception _ when n > 0 ->
      ignore (Unix.select [] [] [] 0.05);
      go (n - 1)
  in
  go 100

let violated_of resp =
  match Proto.list_field "violated" resp with
  | Some vs ->
    sorted
      (List.filter_map
         (function Proto.String v -> Some v | _ -> None)
         vs)
  | None -> [ "<malformed>" ]

let test_server_oracle () =
  for i = 1 to max 2 (iters / 5) do
    let seed = 21000 + i in
    let r = Prng.create seed in
    let pub = gen_pub r and rev = gen_rev r in
    let sock = Test_tmp.fresh "oracle_srv" ".sock" in
    let jpath = Test_tmp.fresh "oracle_srv" ".j" in
    let spath = Test_tmp.fresh "oracle_srv" ".xics" in
    (match Unix.fork () with
     | 0 ->
       (try
          let repo = repo_of ~pub ~rev in
          Repository.set_incremental repo true;
          let j = J.open_ ~sync:false jpath in
          let srv =
            Srv.create
              ~config:
                { Srv.default_config with
                  Srv.journal = Some j; snapshot_path = Some spath }
              repo
          in
          let lfd = Srv.listen (Proto.Unix_sock sock) in
          Srv.serve ~idle_timeout:0.05 srv lfd;
          Unix._exit 0
        with _ -> Unix._exit 97)
     | child ->
       (* whatever happens, never leave the server child running — an
          orphan would hold the test runner's output pipe open forever *)
       Fun.protect ~finally:(fun () ->
           (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
           (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ()))
       @@ fun () ->
       let shadow = repo_of ~pub ~rev in
       Repository.set_incremental shadow true;
       let fd = connect_retry sock in
       let rq j = Proto.request fd j in
       let fail fmt = Alcotest.failf ("[seed %d] server oracle: " ^^ fmt) seed in
       let errors = ref 0 in
       (* durable statement prefix (newest first) and the pin points
          recorded against it, for the end-of-run time-travel oracle *)
       let applied = ref [] in
       let asof_records = ref [] in
       let record_applied u tag =
         if String.starts_with ~prefix:"applied" tag then applied := u :: !applied
       in
       let guard_one u =
         let resp =
           rq
             (Proto.Obj
                [ ("op", Proto.String "guard");
                  ("update", Proto.String (XU.to_string u)) ])
         in
         let shadow_tag =
           match Repository.guarded_update shadow u with
           | o -> outcome_tag9 o
           | exception _ -> incr errors; "error"
         in
         let server_tag = response_tag resp in
         if shadow_tag <> server_tag then
           fail "guard diverged: server %s, shadow %s" server_tag shadow_tag;
         record_applied u shadow_tag
       in
       let check_parity what =
         let resp = rq (Proto.Obj [ ("op", Proto.String "check") ]) in
         Alcotest.(check (list string))
           (Printf.sprintf "[seed %d] %s: server check = shadow" seed what)
           (sorted (Repository.check_full shadow))
           (violated_of resp)
       in
       let steps = 8 + Prng.int r 6 in
       let checkpoint_at = steps / 2 in
       for step = 1 to steps do
         (match Prng.int r 4 with
          | 0 -> check_parity (Printf.sprintf "step %d" step)
          | 1 ->
            (match random_update r shadow with
             | Some u -> guard_one u
             | None -> ())
          | 2 ->
            (* a transactional batch, 1-3 statements generated against
               the pre-batch state on both sides *)
            let us =
              List.filter_map
                (fun _ -> random_update r shadow)
                (List.init (1 + Prng.int r 3) Fun.id)
            in
            if us <> [] then begin
              let resp =
                rq
                  (Proto.Obj
                     [ ("op", Proto.String "txn");
                       ( "updates",
                         Proto.List
                           (List.map
                              (fun u -> Proto.String (XU.to_string u))
                              us) ) ])
              in
              let shadow_tags =
                match Repository.guarded_batch shadow us with
                | rs ->
                  List.map (fun x -> outcome_tag9 x.Repository.outcome) rs
                | exception _ ->
                  incr errors;
                  List.map (fun _ -> "error") us
              in
              let server_tags =
                if not (Proto.bool_field "ok" resp) then begin
                  incr errors;
                  List.map (fun _ -> "error") us
                end
                else
                  match Proto.list_field "results" resp with
                  | Some rs -> List.map response_tag rs
                  | None -> [ "<malformed>" ]
              in
              Alcotest.(check (list string))
                (Printf.sprintf "[seed %d] step %d: txn batch verdicts" seed
                   step)
                shadow_tags server_tags;
              if List.length us = List.length shadow_tags then
                List.iter2 record_applied us shadow_tags
            end
          | _ ->
            (* a pinned reader opened before a write must keep answering
               the pre-write verdict *)
            let pre = sorted (Repository.check_full shadow) in
            let presp = rq (Proto.Obj [ ("op", Proto.String "pin") ]) in
            let pid =
              match Proto.int_field "pin" presp with
              | Some p -> p
              | None -> fail "pin request failed"
            in
            (* remember the generation and the statement prefix it
               closed over — the time-travel oracle below replays it *)
            (match Proto.int_field "generation" presp with
             | Some g -> asof_records := (g, List.length !applied) :: !asof_records
             | None -> fail "pin response lacks a generation");
            (match random_update r shadow with
             | Some u -> guard_one u
             | None -> ());
            let pinned =
              rq
                (Proto.Obj
                   [ ("op", Proto.String "check"); ("pin", Proto.Int pid) ])
            in
            Alcotest.(check (list string))
              (Printf.sprintf "[seed %d] step %d: pinned verdict is pre-write"
                 seed step)
              pre (violated_of pinned);
            ignore
              (rq
                 (Proto.Obj
                    [ ("op", Proto.String "unpin"); ("pin", Proto.Int pid) ])));
         if step = checkpoint_at then begin
           let cresp = rq (Proto.Obj [ ("op", Proto.String "checkpoint") ]) in
           if not (Proto.bool_field "ok" cresp) then
             fail "mid-stream checkpoint failed";
           check_parity "after mid-stream checkpoint"
         end
       done;
       check_parity "final";
       (* time-travel oracle: every recorded pin generation still in the
          server's retained history must answer exactly what a fresh
          repository replayed to that statement prefix answers; pruned
          generations (mid-stream checkpoint, retention bound) must be
          refused, never served stale *)
       if !errors = 0 then begin
         let hist = rq (Proto.Obj [ ("op", Proto.String "history") ]) in
         if not (Proto.bool_field "ok" hist) then fail "history failed";
         let still_retained =
           match Proto.list_field "retained" hist with
           | Some rs ->
             List.filter_map (fun x -> Proto.int_field "generation" x) rs
           | None -> []
         in
         let applied_fwd = Array.of_list (List.rev !applied) in
         List.iter
           (fun (g, n) ->
             let resp =
               rq
                 (Proto.Obj
                    [ ("op", Proto.String "check"); ("as_of", Proto.Int g) ])
             in
             if List.mem g still_retained then begin
               if not (Proto.bool_field "ok" resp) then
                 fail "as_of %d refused though retained" g;
               let replay = repo_of ~pub ~rev in
               Repository.set_incremental replay true;
               for k = 0 to n - 1 do
                 ignore (Repository.guarded_update replay applied_fwd.(k))
               done;
               Alcotest.(check (list string))
                 (Printf.sprintf
                    "[seed %d] as_of %d = fresh replay of %d statement(s)"
                    seed g n)
                 (sorted (Repository.check_full replay))
                 (violated_of resp)
             end
             else if Proto.bool_field "ok" resp then
               fail "as_of %d served though pruned from retention" g)
           !asof_records
       end;
       ignore (rq (Proto.Obj [ ("op", Proto.String "shutdown") ]));
       Unix.close fd;
       let _, status = Unix.waitpid [] child in
       (match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED n -> fail "server child exited %d" n
        | _ -> fail "server child killed");
       (* restart from the durable pair and re-check parity — skipped if
          an apply error interrupted a batch (both sides diverge from
          the journal identically, but not durably) *)
       if !errors = 0 && Sys.file_exists spath then begin
         let s = Conf.schema () in
         let repo2 = Repository.create s in
         List.iter
           (Repository.add_constraint repo2)
           [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
         Repository.register_pattern repo2 (Conf.submission_pattern s);
         let meta = Repository.load_snapshot repo2 spath in
         let rr = J.read jpath in
         ignore
           (Repository.recover ~skip:(Repository.recover_skip meta rr) rr
              repo2
             : Repository.recovery_report);
         Alcotest.(check (list string))
           (Printf.sprintf "[seed %d] verdict after restart = shadow" seed)
           (sorted (Repository.check_full shadow))
           (sorted (Repository.check_full repo2))
       end;
       List.iter
         (fun p -> try Sys.remove p with Sys_error _ -> ())
         [ sock; jpath; spath ])
  done

(* ------------------------------------------------------------------ *)
(* Symbol interning round trip                                         *)
(* ------------------------------------------------------------------ *)

(* The global table is append-only and hash-consed: [name] must invert
   [intern], and re-interning must return the identical symbol without
   growing the table. *)
let test_intern_roundtrip () =
  let r = Prng.create 77 in
  let seen = Hashtbl.create 64 in
  for i = 1 to 300 do
    let s =
      String.init (1 + Prng.int r 12) (fun _ -> Char.chr (33 + Prng.int r 94))
    in
    let sym = Symbol.intern s in
    checkb (Printf.sprintf "name (intern %S) = %S (iter %d)" s s i) true
      (String.equal (Symbol.name sym) s);
    checkb "re-intern is the identical symbol" true
      (Symbol.equal (Symbol.intern s) sym);
    (match Hashtbl.find_opt seen s with
     | Some sym' -> checkb "stable across iterations" true (Symbol.equal sym sym')
     | None -> Hashtbl.replace seen s sym);
    checkb "interned strings are members" true (Symbol.mem s)
  done;
  let before = Symbol.count () in
  Hashtbl.iter (fun s _ -> ignore (Symbol.intern s : Symbol.t)) seen;
  Alcotest.(check int) "re-interning grows nothing" before (Symbol.count ())

let () =
  Alcotest.run "oracle"
    [
      ( "regression",
        [
          Alcotest.test_case "rollback purges index" `Quick test_rollback_not_stale;
          Alcotest.test_case "savepoint rollback purges index" `Quick
            test_savepoint_rollback_not_stale;
          Alcotest.test_case "symbol intern round trip" `Quick
            test_intern_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "apply/undo agreement" `Quick test_apply_undo_oracle;
          Alcotest.test_case "txn savepoints" `Quick test_txn_savepoint_oracle;
          Alcotest.test_case "crash recovery" `Quick test_recover_oracle;
          Alcotest.test_case "fused loader" `Quick test_fused_loader_oracle;
          Alcotest.test_case "incremental recompute" `Quick
            test_incremental_oracle;
          Alcotest.test_case "resident server" `Quick test_server_oracle;
        ] );
    ]
