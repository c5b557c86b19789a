(* Durability: write-ahead journal, fault injection, crash recovery,
   transactions, and evaluation budgets. *)

open Xic_core
module Conf = Xic_workload.Conference
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Journal files live in a shared temp directory removed at exit (CI
   runs these binaries from the repo root, not only dune's sandbox). *)
let fresh_path () = Test_tmp.fresh "test_journal" ".j"

let schema = lazy (Conf.schema ())

let pub_doc =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let rev_doc =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let make_repo () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_document repo pub_doc;
  Repository.load_document repo rev_doc;
  Repository.add_constraint repo (Conf.conflict s);
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

let snapshot repo = Xic_xml.Xml_printer.to_string (Repository.doc repo)

let legal_update ?(title = "Ok") ?(author = "Zoe") () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title ~author

let illegal_update () =
  legal_update ~title:"Bad" ~author:"Carl" ()

(* An update matching no registered pattern, exercising the full-check
   fallback (and its journal records). *)
let unmatched_update author =
  [ { XU.op = XU.Append;
      select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
      content =
        [ XU.Elem ("sub", [],
             [ XU.Elem ("title", [], [ XU.Text "App" ]);
               XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text author ]) ]) ]) ];
    } ]

let recover_fresh path =
  let repo = make_repo () in
  let report = Repository.recover (J.read path) repo in
  (repo, report)

(* ------------------------------------------------------------------ *)
(* Journal file format                                                 *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  let t1 = J.next_txn j in
  let t2 = J.next_txn j in
  let entries =
    [ J.Intent { txn = t1; seq = 0; strategy = "optimized"; payload = "<u>one</u>" };
      J.Commit { txn = t1 };
      J.Intent { txn = t2; seq = 0; strategy = "full_check"; payload = "line1\nline2" };
      J.Abort { txn = t2 } ]
  in
  List.iter (J.append j) entries;
  J.close j;
  let rr = J.read p in
  checkb "no torn tail" false rr.J.torn;
  checkb "entries survive the round trip" true (rr.J.entries = entries);
  (* only t1 committed; multi-line payloads intact *)
  (match J.committed rr.J.entries with
   | [ (txn, [ J.Intent { payload; _ } ]) ] ->
     checki "committed txn" t1 txn;
     checks "payload" "<u>one</u>" payload
   | _ -> Alcotest.fail "expected exactly the committed transaction")

let test_journal_torn_tail () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "ok" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  (* simulate a crash mid-record: garbage half-record at the tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 p in
  output_string oc "\000\000\000\042torn";
  close_out oc;
  let rr = J.read p in
  checkb "torn tail detected" true rr.J.torn;
  checki "valid prefix kept" 2 (List.length rr.J.entries);
  (* reopening truncates the tail so appends land on a valid prefix *)
  let j = J.open_ p in
  checki "next txn past journaled ids" 2 (J.next_txn j);
  J.append j (J.Commit { txn = 5 });
  J.close j;
  let rr = J.read p in
  checkb "clean after reopen + append" false rr.J.torn;
  checki "three records" 3 (List.length rr.J.entries)

let read_bin path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_bin path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* "XICJ2\n" + 8-byte generation *)
let header_len = 14

(* Byte offset just past record [i] (records are
   [4-byte BE length | payload | 16-byte MD5]). *)
let record_end file i =
  let pos = ref header_len in
  for _ = 0 to i do
    let b k = Char.code file.[!pos + k] in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    pos := !pos + 4 + len + 16
  done;
  !pos

(* Cut the journal at EVERY byte offset inside the last record: each
   truncation must classify as a torn tail and keep exactly the intact
   prefix — no cut point may corrupt recovery. *)
let test_torn_at_every_byte_offset () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j
    (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "payload-one" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  let full = read_bin p in
  let n = String.length full in
  let rec1_end = record_end full 0 in
  checki "two records span the file" n (record_end full 1);
  let cut_path = fresh_path () in
  for cut = header_len to n - 1 do
    write_bin cut_path (String.sub full 0 cut);
    let rr = J.read cut_path in
    let expect_entries, prefix_end =
      if cut >= rec1_end then (1, rec1_end) else (0, header_len)
    in
    checki
      (Printf.sprintf "cut at %d keeps the intact prefix" cut)
      expect_entries
      (List.length rr.J.entries);
    match rr.J.tail with
    | J.Clean ->
      checkb (Printf.sprintf "cut at %d clean only on a boundary" cut) true
        (cut = prefix_end)
    | J.Torn { dropped } ->
      checki (Printf.sprintf "cut at %d dropped bytes" cut) (cut - prefix_end)
        dropped
    | J.Corrupt _ ->
      Alcotest.fail
        (Printf.sprintf "cut at %d: truncation must never read as corruption"
           cut)
  done;
  (* reopening any truncation for append still works: the torn suffix is
     discarded and fresh records land on the valid prefix *)
  write_bin cut_path (String.sub full 0 (n - 3));
  let j = J.open_ cut_path in
  J.append j (J.Commit { txn = 9 });
  J.close j;
  let rr = J.read cut_path in
  checkb "clean after reopen" true (rr.J.tail = J.Clean);
  checki "prefix + fresh record" 2 (List.length rr.J.entries)

(* A full-length record failing its checksum in the MIDDLE of the file
   is not a crash artifact: it must classify as Corrupt (so `xicheck
   recover` can exit 4), still replaying the valid prefix. *)
let test_corrupt_mid_record () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j
    (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "first" });
  J.append j
    (J.Intent { txn = 1; seq = 1; strategy = "optimized"; payload = "second" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  let full = read_bin p in
  let rec1_end = record_end full 0 in
  let b = Bytes.of_string full in
  (* flip a byte inside record 2's payload *)
  let i = rec1_end + 5 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_bin p (Bytes.to_string b);
  let rr = J.read p in
  checki "valid prefix kept" 1 (List.length rr.J.entries);
  (match rr.J.tail with
   | J.Corrupt { dropped } ->
     checki "bad record and everything after dropped"
       (String.length full - rec1_end) dropped
   | J.Clean | J.Torn _ ->
     Alcotest.fail "mid-file checksum mismatch must classify as Corrupt");
  checkb "legacy torn flag still raised" true rr.J.torn

let test_reset_bumps_generation () =
  let p = fresh_path () in
  let j = J.open_ p in
  checki "fresh journals start at generation 1" 1 (J.generation j);
  checki "empty" 0 (J.entry_count j);
  J.append j (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "x" });
  J.append j (J.Commit { txn = 1 });
  checki "two entries" 2 (J.entry_count j);
  J.reset j;
  checki "generation bumped" 2 (J.generation j);
  checki "truncated" 0 (J.entry_count j);
  (* the handle stays usable across the rename swap *)
  J.append j (J.Commit { txn = 7 });
  J.close j;
  let rr = J.read p in
  checki "read generation" 2 rr.J.generation;
  checki "only post-reset records" 1 (List.length rr.J.entries);
  (* a crash before the reset rename leaves the old journal intact *)
  let p2 = fresh_path () in
  let j2 = J.open_ p2 in
  J.append j2 (J.Commit { txn = 3 });
  FP.set ~action:FP.Raise "journal_reset_rename";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match J.reset j2 with
   | exception FP.Triggered "journal_reset_rename" -> ()
   | () -> Alcotest.fail "armed reset failpoint must fire");
  J.close j2;
  let rr = J.read p2 in
  checki "old generation survives the crashed reset" 1 rr.J.generation;
  checki "old entries survive" 1 (List.length rr.J.entries)

let test_journal_not_a_journal () =
  let p = fresh_path () in
  let oc = open_out p in
  output_string oc "<not-a-journal/>\n";
  close_out oc;
  match J.read p with
  | exception J.Journal_error _ -> ()
  | _ -> Alcotest.fail "bad header must be rejected"

let test_committed_truncate () =
  (* savepoint rollback: a truncate record drops the suffix *)
  let i n = J.Intent { txn = 7; seq = n; strategy = "optimized"; payload = string_of_int n } in
  let entries = [ i 0; i 1; i 2; J.Truncate { txn = 7; keep = 1 }; i 3; J.Commit { txn = 7 } ] in
  match J.committed entries with
  | [ (7, [ J.Intent { payload = "0"; _ }; J.Intent { payload = "3"; _ } ]) ] -> ()
  | _ -> Alcotest.fail "truncate must drop intents past the savepoint"

let test_failpoint_mid_write () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (J.Commit { txn = 1 });
  FP.set ~action:FP.Raise "mid_write";
  Fun.protect ~finally:FP.clear @@ fun () ->
  (match J.append j (J.Commit { txn = 2 }) with
   | exception FP.Triggered "mid_write" -> ()
   | () -> Alcotest.fail "armed failpoint must fire");
  (* the handle is poisoned, the file carries a torn tail *)
  FP.clear ();
  (match J.append j (J.Commit { txn = 3 }) with
   | exception J.Journal_error _ -> ()
   | () -> Alcotest.fail "append on a torn journal must be refused");
  let rr = J.read p in
  checkb "torn" true rr.J.torn;
  checki "only the first record" 1 (List.length rr.J.entries)

(* With tracing on, a firing failpoint leaves a zero-duration span event
   named after it, so fault-injection runs are visible in the trace. *)
let test_failpoint_records_span_event () =
  let module Obs = Xic_obs.Obs in
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
  @@ fun () ->
  Obs.Trace.reset ();
  let p = fresh_path () in
  let j = J.open_ p in
  FP.set ~action:FP.Raise "mid_write";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   Obs.Trace.with_span "test" (fun () ->
       match J.append j (J.Commit { txn = 1 }) with
       | exception FP.Triggered "mid_write" -> ()
       | () -> Alcotest.fail "armed failpoint must fire"));
  let rec has name (sp : Obs.Trace.span) =
    sp.Obs.Trace.name = name || List.exists (has name) sp.Obs.Trace.children
  in
  checkb "failpoint:mid_write event in trace" true
    (List.exists (has "failpoint:mid_write") (Obs.Trace.roots ()))

(* ------------------------------------------------------------------ *)
(* Crash recovery properties                                           *)
(* ------------------------------------------------------------------ *)

(* For every named crash point, recovery from the journal must yield the
   pre-update state (the commit record never made it) with constraints
   intact — never a torn or half-applied document. *)
let test_crash_before_commit_recovers_pre_state () =
  List.iter
    (fun fp ->
      let p = fresh_path () in
      let repo = make_repo () in
      let before = snapshot repo in
      let j = J.open_ p in
      FP.set ~action:FP.Raise fp;
      (Fun.protect ~finally:FP.clear @@ fun () ->
       match Repository.guarded_update ~journal:j repo (legal_update ()) with
       | exception FP.Triggered _ -> ()
       | _ -> Alcotest.fail (fp ^ ": armed failpoint must fire"));
      (try J.close j with J.Journal_error _ -> ());
      let recovered, report = recover_fresh p in
      checks (fp ^ ": pre-update state") before (snapshot recovered);
      checki (fp ^ ": nothing replayed") 0 report.Repository.replayed_txns;
      checkb (fp ^ ": in-flight txn discarded") true
        (report.Repository.discarded_txns <= 1);
      Alcotest.(check (list string)) (fp ^ ": consistent") []
        report.Repository.post_violations)
    [ "before_apply"; "after_apply"; "before_commit"; "mid_write" ]

let test_committed_update_recovers_post_state () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  (match Repository.guarded_update ~journal:j repo (legal_update ()) with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "legal update must apply via the optimized path");
  let after = snapshot repo in
  J.close j;
  let recovered, report = recover_fresh p in
  checks "post-update state" after (snapshot recovered);
  checki "one txn" 1 report.Repository.replayed_txns;
  checki "one statement" 1 report.Repository.replayed_statements;
  checkb "no torn tail" false report.Repository.torn_tail;
  Alcotest.(check (list string)) "consistent" [] report.Repository.post_violations

let test_refused_updates_leave_no_committed_trace () =
  let p = fresh_path () in
  let repo = make_repo () in
  let before = snapshot repo in
  let j = J.open_ p in
  (* rejected before execution: no records at all *)
  (match Repository.guarded_update ~journal:j repo (illegal_update ()) with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "self-review must be rejected early");
  (* executed, violating, compensated: intent + truncate + abort *)
  (match Repository.guarded_update ~journal:j repo (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating fallback must be rolled back");
  J.close j;
  checks "repository unchanged" before (snapshot repo);
  let recovered, report = recover_fresh p in
  checks "recovery yields the base state" before (snapshot recovered);
  checki "nothing replayed" 0 report.Repository.replayed_txns

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let test_txn_commit_and_recover () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  (match Repository.txn_apply tx (legal_update ~title:"A" ~author:"Zoe" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "statement 1 must apply");
  let sp = Repository.txn_savepoint tx in
  (match Repository.txn_apply tx (legal_update ~title:"B" ~author:"Max" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "statement 2 must apply");
  Repository.txn_rollback_to tx sp;
  checki "statement 2 undone" 1 (Repository.txn_statements tx);
  (match Repository.txn_apply tx (legal_update ~title:"C" ~author:"Ada" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "statement 3 must apply");
  Repository.commit_txn tx;
  let after = snapshot repo in
  J.close j;
  checkb "B was rolled back" false
    (let doc = Repository.doc repo in
     Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//sub/title") |> List.exists
       (fun n -> Xic_xml.Doc.text_content doc n = "B"));
  let recovered, report = recover_fresh p in
  checks "replay equals the committed state" after (snapshot recovered);
  checki "one txn, two effective statements" 2 report.Repository.replayed_statements;
  Alcotest.(check (list string)) "consistent" [] report.Repository.post_violations

let test_txn_statement_violation_keeps_txn_open () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  (match Repository.txn_apply tx (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal statement must apply");
  (* a violating full-check statement is compensated individually *)
  (match Repository.txn_apply tx (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating statement must be rolled back");
  checki "only the legal statement counted" 1 (Repository.txn_statements tx);
  Repository.commit_txn tx;
  let after = snapshot repo in
  J.close j;
  let recovered, _ = recover_fresh p in
  checks "replay skips the compensated statement" after (snapshot recovered)

let test_txn_rollback () =
  let p = fresh_path () in
  let repo = make_repo () in
  let before = snapshot repo in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  ignore (Repository.txn_apply tx (legal_update ~title:"A" ~author:"Zoe" ()));
  ignore (Repository.txn_apply tx (legal_update ~title:"B" ~author:"Max" ()));
  Repository.rollback_txn tx;
  J.close j;
  checks "rollback restores the document" before (snapshot repo);
  (match Repository.txn_apply tx (legal_update ()) with
   | exception Repository.Repository_error _ -> ()
   | _ -> Alcotest.fail "closed transaction must refuse statements");
  let recovered, report = recover_fresh p in
  checks "aborted txn is not replayed" before (snapshot recovered);
  checki "discarded" 1 report.Repository.discarded_txns

(* ------------------------------------------------------------------ *)
(* Evaluation budgets and graceful degradation                         *)
(* ------------------------------------------------------------------ *)

let test_budget_exceeded_raises () =
  let repo = make_repo () in
  let q = (List.hd (Repository.constraints repo)).Constr.xquery in
  (match
     Xic_xquery.Eval.with_budget ~steps:1 (fun () ->
         Xic_xquery.Eval.eval_bool (Repository.doc repo) q)
   with
   | exception Xic_xpath.Eval.Budget_exceeded -> ()
   | _ -> Alcotest.fail "one step cannot evaluate a full constraint");
  (* generous budgets do not change results; the budget is scoped *)
  checkb "result under ample budget" false
    (Xic_xquery.Eval.with_budget ~steps:1_000_000 (fun () ->
         Xic_xquery.Eval.eval_bool (Repository.doc repo) q));
  checkb "no budget left installed" false
    (match Xic_xquery.Eval.eval_bool (Repository.doc repo) q with
     | b -> b
     | exception Xic_xpath.Eval.Budget_exceeded ->
       Alcotest.fail "budget must be uninstalled outside with_budget")

let test_budget_datalog () =
  let repo = make_repo () in
  let s = Repository.store repo in
  let d = List.hd (List.hd (Repository.constraints repo)).Constr.datalog in
  (match
     Xic_datalog.Eval.with_budget ~steps:1 (fun () -> Xic_datalog.Eval.violated s d)
   with
   | exception Xic_datalog.Eval.Budget_exceeded -> ()
   | _ -> Alcotest.fail "one step cannot evaluate a denial");
  checkb "ample budget" false
    (Xic_datalog.Eval.with_budget ~steps:1_000_000 (fun () ->
         Xic_datalog.Eval.violated s d))

let test_exhausted_budget_degrades_to_full_check () =
  let repo = make_repo () in
  Repository.set_eval_budget repo (Some 1);
  (* the optimized pre-check cannot finish in one step: the update must
     still be applied — via the full check — and the report must say so *)
  let report = Repository.guarded_update_report repo (legal_update ()) in
  (match report.Repository.outcome with
   | Repository.Applied `Full_check -> ()
   | _ -> Alcotest.fail "exhausted budget must fall back to the full check");
  (match report.Repository.degradations with
   | [ { Repository.failed_check = "conflict"; reason } ] ->
     checks "reason" "step budget exhausted" reason
   | _ -> Alcotest.fail "the degradation must be reported");
  (* correctness is preserved: an illegal unmatched update is still refused *)
  let report = Repository.guarded_update_report repo (unmatched_update "Carl") in
  (match report.Repository.outcome with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "full-check fallback must still reject violations");
  Alcotest.(check (list string)) "consistent" [] (Repository.check_full repo);
  (* with the budget lifted the optimized path is back *)
  Repository.set_eval_budget repo None;
  match Repository.guarded_update repo (legal_update ~title:"Y" ~author:"Uma" ()) with
  | Repository.Applied `Optimized -> ()
  | _ -> Alcotest.fail "no budget: optimized path again"

let test_budget_degrades_runtime_simplification () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_document repo pub_doc;
  Repository.load_document repo rev_doc;
  Repository.add_constraint repo (Conf.conflict s);
  Repository.set_eval_budget repo (Some 1);
  let report =
    Repository.guarded_update_report ~fallback:`Runtime_simplification repo
      (legal_update ())
  in
  (match report.Repository.outcome with
   | Repository.Applied `Full_check -> ()
   | _ -> Alcotest.fail "degraded runtime simplification must use the full check");
  checkb "degradation reported" true (report.Repository.degradations <> [])

let test_try_check_optimized_reports_degradations () =
  let repo = make_repo () in
  let u = legal_update () in
  match Repository.match_update repo u with
  | None -> Alcotest.fail "update must match the pattern"
  | Some (p, valuation) ->
    Repository.set_eval_budget repo (Some 1);
    let violated, degs = Repository.try_check_optimized repo p valuation in
    Alcotest.(check (list string)) "no verdict" [] violated;
    checki "one degradation" 1 (List.length degs);
    (* the raising variant keeps its legacy contract *)
    (match Repository.check_optimized repo p valuation with
     | exception Repository.Repository_error _ -> ()
     | _ -> Alcotest.fail "check_optimized must raise on degradation");
    Repository.set_eval_budget repo None;
    let violated, degs = Repository.try_check_optimized repo p valuation in
    Alcotest.(check (list string)) "legal" [] violated;
    checki "no degradation" 0 (List.length degs)

(* One budget serves both pre-check routes: the guard's Datalog
   pre-check and its XQuery reference count different steps, but a
   budget that lets one finish on this document lets the other finish
   too, and one step stops both. *)
let test_budget_same_on_both_routes () =
  let repo = make_repo () in
  let u = legal_update () in
  match Repository.match_update repo u with
  | None -> Alcotest.fail "update must match the pattern"
  | Some (p, valuation) ->
    List.iter
      (fun (budget, degraded) ->
        Repository.set_eval_budget repo (Some budget);
        let _, xq = Repository.try_check_optimized repo p valuation in
        let _, dl = Repository.try_check_optimized_datalog repo p valuation in
        checkb (Printf.sprintf "xquery degraded at %d" budget) degraded (xq <> []);
        checkb (Printf.sprintf "datalog degraded at %d" budget) degraded (dl <> []))
      [ (1, true); (10_000, false) ];
    (match (Repository.guarded_update_report repo u).Repository.outcome with
     | Repository.Applied `Optimized -> ()
     | _ -> Alcotest.fail "a realistic budget keeps the guard on the pre-check")

(* ------------------------------------------------------------------ *)
(* Statement serialization and atomicity                               *)
(* ------------------------------------------------------------------ *)

let test_xupdate_attribute_roundtrip () =
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/review/track[1]";
        content =
          [ XU.Elem ("rev", [ ("id", "r9"); ("note", "a<b&\"c\"") ],
               [ XU.Elem ("name", [], [ XU.Text "Eve" ]) ]) ];
      } ]
  in
  let s = XU.to_string u in
  let u' = XU.parse_string s in
  checks "serialization is a fixpoint" s (XU.to_string u');
  match u' with
  | [ { XU.content = [ XU.Elem ("rev", attrs, _) ]; _ } ] ->
    Alcotest.(check (list (pair string string)))
      "attributes survive" [ ("id", "r9"); ("note", "a<b&\"c\"") ] attrs
  | _ -> Alcotest.fail "unexpected parse"

let test_apply_is_atomic () =
  let repo = make_repo () in
  let before = snapshot repo in
  let u =
    legal_update ()
    @ [ { XU.op = XU.Remove;
          select = Xic_xpath.Parser.parse "//no-such-element";
          content = [] } ]
  in
  (match XU.apply (Repository.doc repo) u with
   | exception XU.Xupdate_error _ -> ()
   | _ -> Alcotest.fail "failing modification must raise");
  checks "prefix rolled back" before (snapshot repo)

let () =
  Alcotest.run "journal"
    [
      ( "journal file",
        [
          Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "torn at every byte offset" `Quick
            test_torn_at_every_byte_offset;
          Alcotest.test_case "corrupt mid-record" `Quick
            test_corrupt_mid_record;
          Alcotest.test_case "reset bumps the generation" `Quick
            test_reset_bumps_generation;
          Alcotest.test_case "bad header" `Quick test_journal_not_a_journal;
          Alcotest.test_case "truncate grouping" `Quick test_committed_truncate;
          Alcotest.test_case "mid-write failpoint" `Quick test_failpoint_mid_write;
          Alcotest.test_case "failpoint traced as span event" `Quick
            test_failpoint_records_span_event;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash before commit" `Quick
            test_crash_before_commit_recovers_pre_state;
          Alcotest.test_case "committed survives" `Quick
            test_committed_update_recovers_post_state;
          Alcotest.test_case "refused leaves no trace" `Quick
            test_refused_updates_leave_no_committed_trace;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit + savepoint + recover" `Quick
            test_txn_commit_and_recover;
          Alcotest.test_case "statement violation" `Quick
            test_txn_statement_violation_keeps_txn_open;
          Alcotest.test_case "rollback" `Quick test_txn_rollback;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "xquery budget" `Quick test_budget_exceeded_raises;
          Alcotest.test_case "datalog budget" `Quick test_budget_datalog;
          Alcotest.test_case "degrades to full check" `Quick
            test_exhausted_budget_degrades_to_full_check;
          Alcotest.test_case "degrades runtime simp" `Quick
            test_budget_degrades_runtime_simplification;
          Alcotest.test_case "try_check_optimized" `Quick
            test_try_check_optimized_reports_degradations;
          Alcotest.test_case "same budget on both routes" `Quick
            test_budget_same_on_both_routes;
        ] );
      ( "statements",
        [
          Alcotest.test_case "attribute round trip" `Quick
            test_xupdate_attribute_roundtrip;
          Alcotest.test_case "atomic apply" `Quick test_apply_is_atomic;
        ] );
    ]
