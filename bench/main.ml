(* Benchmark harness reproducing the paper's evaluation (Section 7).

   Experiments (see DESIGN.md's per-experiment index):
     fig1a      Figure 1(a) — "Conflict of interests" (Example 1)
     fig1b      Figure 1(b) — "Conference workload"   (Example 2)
     fig_simp   simplification cost (the paper reports < 50 ms)
     ex45       the relational ISSN example (Examples 4/5)
     ablations  datalog- vs xquery-level optimized checks; After without
                Optimize; early rejection vs rollback
     index      indexed vs scan evaluation of full and simplified checks
     journal    write-ahead journaling overhead on guarded updates
     incremental  delta-maintained denial views vs full re-evaluation
     server_obs  serve-path cost of structured logging and tracing
     micro      Bechamel micro-benchmarks of the moving parts
     datalog_plans  compiled Datalog plans vs the reference interpreter
                and XQuery, per denial (not in all; EXPERIMENTS.md runs
                it with --sizes 256000,1024000,4096000)
     all        everything above but datalog_plans (default)

   The system itself (ingest, cold start, pins, the resident server,
   per-layer costs) is measured same-host by perfbench/, not here.

   Document sizes are scaled-down stand-ins for the paper's 32–256 MB
   (same 1:8 spread); absolute numbers differ from the paper's testbed,
   the *shape* of the curves is what is reproduced. *)

open Xic_core
module Conf = Xic_workload.Conference
module Gen = Xic_workload.Generator
module T = Xic_datalog.Term

let default_sizes = [ 32_000; 64_000; 128_000; 256_000; 512_000; 1_024_000 ]

let now () = Unix.gettimeofday ()

(* Mean wall-clock ms of [f] over [reps] runs after one warm-up. *)
let time_ms ?(reps = 5) f =
  ignore (f ());
  let t0 = now () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (now () -. t0) *. 1000.0 /. float_of_int reps

(* (median, min) wall-clock ms of [f] over at least 5 samples after one
   warm-up.  [batch] amortizes timer granularity for µs-scale runs: each
   sample times [batch] consecutive runs and reports the per-run mean. *)
(* [clean] runs a full major collection before each sample (outside the
   timed window), so runs that drop MB-scale structures per rep measure
   the operation itself rather than the incremental collection of the
   previous rep's garbage. *)
let time_stats ?(reps = 5) ?(batch = 1) ?(clean = false) f =
  ignore (f ());
  let reps = max reps 5 in
  let sample () =
    if clean then Gc.full_major ();
    let t0 = now () in
    for _ = 1 to batch do
      ignore (f ())
    done;
    (now () -. t0) *. 1000.0 /. float_of_int batch
  in
  let samples = Array.init reps (fun _ -> sample ()) in
  Array.sort Float.compare samples;
  let n = Array.length samples in
  let median =
    if n mod 2 = 1 then samples.(n / 2)
    else (samples.((n / 2) - 1) +. samples.(n / 2)) /. 2.0
  in
  (median, samples.(0))

type setup = {
  repo : Repository.t;
  pattern : Pattern.t;
  ds : Gen.dataset;
}

let setup ~size ~constraint_ () =
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  let repo = Repository.create s in
  (* validation is part of loading; skip it here to keep setup fast *)
  Repository.load_document ~validate:false repo ds.Gen.pub_xml;
  Repository.load_document ~validate:false repo ds.Gen.rev_xml;
  Repository.add_constraint repo (constraint_ s);
  let pattern = Conf.submission_pattern s in
  Repository.register_pattern repo pattern;
  { repo; pattern; ds }

(* The three curves of Figure 1: full check, optimized check, and
   update + full check + rollback (the paper's diamonds, squares and
   triangles). *)
let figure ~name ~constraint_ ~sizes ~reps () =
  Printf.printf "# %s\n" name;
  Printf.printf
    "# %-12s %-10s %-14s %-14s %-20s %s\n" "size(bytes)" "subs"
    "original(ms)" "optimized(ms)" "upd+check+undo(ms)" "speedup";
  List.iter
    (fun size ->
      let { repo; pattern; ds } = setup ~size ~constraint_ () in
      let legal =
        Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench Paper"
          ~author:ds.Gen.legal_author
      in
      let valuation =
        match Repository.match_update repo legal with
        | Some (_, v) -> v
        | None -> failwith "bench update must match the pattern"
      in
      let orig_med, _ =
        time_stats ~reps (fun () -> Repository.check_full repo)
      in
      let opt_med, _ =
        time_stats ~reps ~batch:20 (fun () ->
            Repository.check_optimized repo pattern valuation)
      in
      let upd_med, _ =
        time_stats ~reps (fun () ->
            let undo = Repository.apply_unchecked repo legal in
            let r = Repository.check_full repo in
            Repository.rollback repo undo;
            r)
      in
      let speedup = orig_med /. (opt_med +. 1e-9) in
      Printf.printf "%-14d %-10d %-14.3f %-14.4f %-20.3f %.0fx\n%!"
        ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions orig_med opt_med
        upd_med speedup)
    sizes;
  print_newline ()

let fig1a ~sizes ~reps () =
  figure ~name:"Figure 1(a) — Conflict of interests (Example 1)"
    ~constraint_:Conf.conflict ~sizes ~reps ()

let fig1b ~sizes ~reps () =
  figure ~name:"Figure 1(b) — Conference workload (Example 2)"
    ~constraint_:Conf.workload ~sizes ~reps ()

(* ------------------------------------------------------------------ *)
(* Simplification cost (§7, footnote 4: "less than 50 ms")             *)
(* ------------------------------------------------------------------ *)

let fig_simp () =
  Printf.printf "# Simplification cost (paper: < 50 ms per constraint)\n";
  Printf.printf "# %-12s %-14s %s\n" "constraint" "simp(ms)" "denials in/out";
  let s = Conf.schema () in
  let pattern = Conf.submission_pattern s in
  List.iter
    (fun make ->
      let c = make s in
      let t =
        time_ms ~reps:50 (fun () -> Pattern.simplify s pattern c)
      in
      let out = Pattern.simplify s pattern c in
      Printf.printf "%-14s %-14.3f %d -> %d\n%!" c.Constr.name t
        (List.length c.Constr.datalog) (List.length out))
    [ Conf.conflict; Conf.workload; Conf.track_load ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Examples 4/5: the relational ISSN catalogue                          *)
(* ------------------------------------------------------------------ *)

let ex45 () =
  Printf.printf "# Examples 4/5 — relational ISSN uniqueness\n";
  let phi = Xic_datalog.Parser.parse_denial ":- p(X, Y), p(X, Z), Y != Z" in
  let u = [ Xic_datalog.Parser.parse_atom "p(%i, %t)" ] in
  let simplified = Xic_simplify.Simp.simp ~update:u [ phi ] in
  Printf.printf "Simp^U({phi}) = %s\n"
    (String.concat " ; " (List.map T.denial_str simplified));
  let store = Xic_datalog.Store.create () in
  for k = 1 to 50_000 do
    Xic_datalog.Store.add store "p"
      [ T.Str (Printf.sprintf "issn-%d" k); T.Str (Printf.sprintf "title %d" k) ]
  done;
  let params = [ ("i", T.Str "issn-77"); ("t", T.Str "another title") ] in
  let t_full = time_ms ~reps:5 (fun () -> Xic_datalog.Eval.violated store phi) in
  let t_simp =
    time_ms ~reps:500 (fun () ->
        List.exists (fun d -> Xic_datalog.Eval.violated ~params store d) simplified)
  in
  Printf.printf
    "50k tuples: full check %.3f ms, simplified check %.5f ms (%.0fx)\n\n%!"
    t_full t_simp (t_full /. (t_simp +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablations ~reps () =
  let size = 128_000 in
  Printf.printf "# Ablations (%d-byte dataset)\n" size;
  let { repo; pattern; ds } = setup ~size ~constraint_:Conf.conflict () in
  let s = Repository.schema repo in
  Repository.add_constraint repo (Conf.workload s);
  Repository.add_constraint repo (Conf.track_load s);

  (* (a) optimized check: XQuery evaluation vs Datalog store evaluation *)
  let legal =
    Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
      ~author:ds.Gen.legal_author
  in
  let valuation =
    match Repository.match_update repo legal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  ignore (Repository.store repo);  (* shred outside the timed region *)
  let t_xq =
    time_ms ~reps:(reps * 10) (fun () ->
        Repository.check_optimized repo pattern valuation)
  in
  let t_dl =
    time_ms ~reps:(reps * 10) (fun () ->
        Repository.check_optimized_datalog repo pattern valuation)
  in
  Printf.printf "optimized check: xquery %.4f ms | datalog store %.4f ms\n%!"
    t_xq t_dl;

  (* (b) After without Optimize: the unoptimized output contains the
     original constraints, so checking it costs as much as a full check *)
  let c = Conf.conflict s in
  let after_only = Xic_simplify.After.denials pattern.Pattern.atoms c.Constr.datalog in
  let simplified = Pattern.simplify s pattern c in
  Printf.printf "After alone: %d denials; Simp: %d denials\n"
    (List.length after_only) (List.length simplified);
  let mapping = Schema.mapping s in
  let doc = Repository.doc repo in
  let params = Pattern.xquery_params valuation in
  (* After-only denials still mention fresh-id parameters; bind them to a
     nonexistent placeholder node for the measurement of the translatable
     subset. *)
  let translatable =
    List.filter_map
      (fun d ->
        match Xic_translate.Translate.denial mapping d with
        | q -> if List.for_all (fun p -> List.mem_assoc p params || p = "p") (Xic_xquery.Ast.params q) then Some q else None
        | exception Xic_translate.Translate.Untranslatable _ -> None)
      after_only
  in
  let t_after =
    time_ms ~reps (fun () ->
        List.exists (fun q -> Xic_xquery.Eval.eval_bool doc ~params q) translatable)
  in
  let t_simp =
    time_ms ~reps:(reps * 10) (fun () ->
        Repository.check_optimized repo pattern valuation)
  in
  Printf.printf
    "checking After-only output (%d translatable denials): %.3f ms | Simp output: %.4f ms\n%!"
    (List.length translatable) t_after t_simp;

  (* (c) early rejection vs apply + detect + rollback for illegal updates *)
  let illegal =
    Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"Bad"
      ~author:ds.Gen.conflict_reviewer
  in
  let bad_valuation =
    match Repository.match_update repo illegal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  let t_early =
    time_ms ~reps:(reps * 10) (fun () ->
        Repository.check_optimized repo pattern bad_valuation)
  in
  let t_late =
    time_ms ~reps (fun () ->
        let undo = Repository.apply_unchecked repo illegal in
        let r = Repository.check_full repo in
        Repository.rollback repo undo;
        r)
  in
  Printf.printf
    "illegal update: early rejection %.4f ms | apply+detect+rollback %.3f ms (%.0fx)\n%!"
    t_early t_late (t_late /. (t_early +. 1e-9));

  (* (d) runtime simplification (Section 7, footnote 4): an unregistered
     update pattern still gets a pre-execution check by running Simp on
     the fly; compare against the execute–check–compensate strategy. *)
  let fresh_repo () =
    let s2 = Conf.schema () in
    let r = Repository.create s2 in
    Repository.load_document ~validate:false r ds.Gen.pub_xml;
    Repository.load_document ~validate:false r ds.Gen.rev_xml;
    Repository.add_constraint r (Conf.conflict s2);
    Repository.add_constraint r (Conf.workload s2);
    Repository.add_constraint r (Conf.track_load s2);
    r
  in
  let r1 = fresh_repo () in
  let illegal2 =
    Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"Bad"
      ~author:ds.Gen.conflict_reviewer
  in
  let t_runtime =
    time_ms ~reps (fun () ->
        match Repository.guarded_update ~fallback:`Runtime_simplification r1 illegal2 with
        | Repository.Rejected_early _ -> true
        | _ -> failwith "expected early rejection")
  in
  let r2 = fresh_repo () in
  let t_fullfb =
    time_ms ~reps (fun () ->
        match Repository.guarded_update ~fallback:`Full_check r2 illegal2 with
        | Repository.Rolled_back _ -> true
        | _ -> failwith "expected rollback")
  in
  Printf.printf
    "unregistered illegal update: runtime simplification %.3f ms | full-check fallback %.3f ms (%.0fx)\n\n%!"
    t_runtime t_fullfb (t_fullfb /. (t_runtime +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Indexed vs scan evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* The same checks answered by the scanning interpreter and through the
   secondary indexes (identical verdicts; the warm-up run of [time_ms]
   absorbs the one-off lazy index build). *)
let index_bench ~sizes ~reps () =
  List.iter
    (fun (name, constraint_) ->
      Printf.printf "# Indexed vs scan — %s\n" name;
      Printf.printf "# %-12s %-12s %-12s %-9s %-14s %-14s %s\n" "size(bytes)"
        "full/scan" "full/idx" "speedup" "simplified/scan" "simplified/idx"
        "speedup";
      List.iter
        (fun size ->
          let { repo; pattern; ds } = setup ~size ~constraint_ () in
          let legal =
            Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
              ~author:ds.Gen.legal_author
          in
          let valuation =
            match Repository.match_update repo legal with
            | Some (_, v) -> v
            | None -> failwith "bench update must match the pattern"
          in
          let timed_pair f =
            Repository.set_use_index repo false;
            let scan = f () in
            Repository.set_use_index repo true;
            let indexed = f () in
            (scan, indexed)
          in
          let full_scan, full_idx =
            timed_pair (fun () ->
                time_ms ~reps (fun () -> Repository.check_full repo))
          in
          let simp_scan, simp_idx =
            timed_pair (fun () ->
                time_ms ~reps:(reps * 20) (fun () ->
                    Repository.check_optimized repo pattern valuation))
          in
          Printf.printf "%-14d %-12.3f %-12.3f %-9s %-15.4f %-14.4f %s\n%!"
            ds.Gen.stats.Gen.bytes full_scan full_idx
            (Printf.sprintf "%.1fx" (full_scan /. (full_idx +. 1e-9)))
            simp_scan simp_idx
            (Printf.sprintf "%.1fx" (simp_scan /. (simp_idx +. 1e-9))))
        sizes;
      print_newline ())
    [ ("Conflict of interests (Example 1)", Conf.conflict);
      ("Conference workload (Example 2)", Conf.workload) ]

(* ------------------------------------------------------------------ *)
(* Write-ahead journaling overhead                                      *)
(* ------------------------------------------------------------------ *)

(* One journaled transaction = two records (intent + commit/abort), each
   fsync'd in the default durable mode.  The benchmark runs the same
   guarded update bare, journaled without fsync, and journaled durably;
   the transaction is rolled back each time so the repository (and hence
   the optimized-check cost) stays fixed across repetitions. *)
let journal_bench ~sizes ~reps () =
  Printf.printf "# Write-ahead journaling overhead (guarded update, ms/op)\n";
  Printf.printf "# %-12s %-14s %-16s %-16s %s\n" "size(bytes)" "bare"
    "journal(nosync)" "journal(fsync)" "fsync cost";
  let reps = reps * 10 in
  List.iter
    (fun size ->
      let { repo; ds; _ } = setup ~size ~constraint_:Conf.conflict () in
      let legal =
        Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
          ~author:ds.Gen.legal_author
      in
      let guarded ?journal () =
        let tx = Repository.begin_txn ?journal repo in
        (match Repository.txn_apply tx legal with
         | Repository.Applied _ -> ()
         | _ -> failwith "bench update must be applied");
        Repository.rollback_txn tx
      in
      let t_bare = time_ms ~reps (fun () -> guarded ()) in
      let with_journal ~sync =
        let path = Printf.sprintf "bench_journal_%b.j" sync in
        let j = Xic_journal.Journal.open_ ~sync path in
        let t = time_ms ~reps (fun () -> guarded ~journal:j ()) in
        Xic_journal.Journal.close j;
        Sys.remove path;
        t
      in
      let t_nosync = with_journal ~sync:false in
      let t_sync = with_journal ~sync:true in
      Printf.printf "%-14d %-14.4f %-16.4f %-16.4f %+.4f ms\n%!"
        ds.Gen.stats.Gen.bytes t_bare t_nosync t_sync (t_sync -. t_nosync))
    sizes;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:64_000 () in
  let repo = Repository.create s in
  Repository.load_document ~validate:false repo ds.Gen.pub_xml;
  Repository.load_document ~validate:false repo ds.Gen.rev_xml;
  Repository.add_constraint repo (Conf.conflict s);
  let pattern = Conf.submission_pattern s in
  Repository.register_pattern repo pattern;
  let doc = Repository.doc repo in
  let mapping = Schema.mapping s in
  let legal =
    Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
      ~author:ds.Gen.legal_author
  in
  let valuation =
    match Repository.match_update repo legal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  let xpath_all_subs = Xic_xpath.Parser.parse "//sub" in
  let c1 = Conf.conflict s in
  let tests =
    [
      Test.make ~name:"xml_parse_64k" (Staged.stage (fun () ->
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.rev_xml)));
      Test.make ~name:"xpath_descendant" (Staged.stage (fun () ->
          ignore (Xic_xpath.Eval.select doc xpath_all_subs)));
      Test.make ~name:"shred_64k" (Staged.stage (fun () ->
          ignore (Xic_relmap.Shred.shred mapping doc)));
      Test.make ~name:"compile_constraint" (Staged.stage (fun () ->
          ignore (Conf.conflict s)));
      Test.make ~name:"simplify_conflict" (Staged.stage (fun () ->
          ignore (Pattern.simplify s pattern c1)));
      Test.make ~name:"optimized_check" (Staged.stage (fun () ->
          ignore (Repository.check_optimized repo pattern valuation)));
      Test.make ~name:"pattern_match" (Staged.stage (fun () ->
          ignore (Repository.match_update repo legal)));
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  Printf.printf "# Micro-benchmarks (monotonic clock, ns/run)\n";
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-30s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "%-30s (no estimate)\n%!" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* PR 7: incremental (delta-driven) checking                           *)
(* ------------------------------------------------------------------ *)

(* Post-update verdict cost, full re-evaluation vs the delta-maintained
   views: per document size, dirty the store with a k-modification
   statement, time one verdict, undo — so the full check faces a
   document-sized problem every sample while the incremental check sees
   only the delta.  Like the paper's optimized curves in Figure 1, the
   incremental column should go flat in document size and scale with k
   instead. *)
let incremental_bench ~sizes ~reps () =
  Printf.printf
    "# Incremental checking — maintained views vs full re-evaluation\n";
  Printf.printf "# %-12s %-6s %-14s %-16s %s\n" "size(bytes)" "stmts"
    "full(ms)" "incremental(ms)" "speedup";
  let ks = [ 1; 4; 16 ] in
  List.iter
    (fun size ->
      let { repo; ds; _ } = setup ~size ~constraint_:Conf.conflict () in
      Repository.set_incremental repo true;
      ignore (Repository.check_incremental repo : string list);
      List.iter
        (fun k ->
          let u =
            List.concat
              (List.init k (fun i ->
                   Conf.insert_submission ~select:ds.Gen.legal_select
                     ~title:(Printf.sprintf "Bench Paper %d" i)
                     ~author:ds.Gen.legal_author))
          in
          (* verdict parity, once per row *)
          let undo = Repository.apply_unchecked repo u in
          let full = List.sort compare (Repository.check_full repo) in
          let incr = List.sort compare (Repository.check_incremental repo) in
          if full <> incr then failwith "incremental verdict diverged";
          Repository.rollback repo undo;
          ignore (Repository.check_incremental repo : string list);
          let median f =
            ignore (f ());
            let n = max reps 5 in
            let s = Array.init n (fun _ -> f ()) in
            Array.sort Float.compare s;
            s.(n / 2)
          in
          let sample_full () =
            let undo = Repository.apply_unchecked repo u in
            let t0 = now () in
            ignore (Repository.check_full repo : string list);
            let dt = (now () -. t0) *. 1000.0 in
            Repository.rollback repo undo;
            dt
          in
          let sample_incr () =
            let undo = Repository.apply_unchecked repo u in
            let t0 = now () in
            ignore (Repository.check_incremental repo : string list);
            let dt = (now () -. t0) *. 1000.0 in
            Repository.rollback repo undo;
            (* consume the inverse delta outside the timed window *)
            ignore (Repository.check_incremental repo : string list);
            dt
          in
          let full_ms = median sample_full in
          let incr_ms = median sample_incr in
          let speedup = full_ms /. (incr_ms +. 1e-9) in
          Printf.printf "%-14d %-6d %-14.3f %-16.4f %.0fx\n%!"
            ds.Gen.stats.Gen.bytes k full_ms incr_ms speedup)
        ks)
    sizes;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Compiled Datalog plans vs the reference interpreter vs XQuery        *)
(* ------------------------------------------------------------------ *)

module DE = Xic_datalog.Eval
module DR = Xic_datalog.Eval_reference
module Incr = Xic_datalog.Incr

(* Per full-constraint denial: the reference interpreter, the compiled
   plan (compiled once, outside the timing) and, per constraint, the
   XQuery full check — median ms, steps and minor words of one run of
   all witnesses; then the view build ([Incr.initialize]) against
   [check_full].  Rows whose time grows more than 4.5x between the last
   two sizes are flagged. *)
let datalog_plans ~sizes ~reps () =
  Printf.printf "# Compiled Datalog plans — reference vs compiled vs XQuery\n";
  Printf.printf "# %-11s %-14s %-10s %12s %10s %12s\n" "size(bytes)" "denial"
    "route" "median(ms)" "steps" "minor_words";
  let rows = Hashtbl.create 16 in
  let row size key route ms steps words =
    Hashtbl.replace rows (key, route, size) ms;
    Printf.printf "%-13d %-14s %-10s %12.3f %10s %12.0f\n%!" size key route ms
      (if steps < 0 then "-" else string_of_int steps)
      words
  in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  List.iter
    (fun size ->
      let s = Conf.schema () in
      let ds = Gen.generate ~seed:42 ~target_bytes:size () in
      let repo = Repository.create s in
      Repository.load_document ~validate:false repo ds.Gen.pub_xml;
      Repository.load_document ~validate:false repo ds.Gen.rev_xml;
      let constraints = [ Conf.conflict s; Conf.workload s; Conf.track_load s ] in
      List.iter (Repository.add_constraint repo) constraints;
      let store = Repository.store repo in
      let bytes = ds.Gen.stats.Gen.bytes in
      List.iter
        (fun (c : Constr.t) ->
          List.iteri
            (fun i d ->
              let key = Printf.sprintf "%s#%d" c.Constr.name i in
              let reference () = DR.violations store d in
              let plan = DE.compile d in
              let compiled () =
                let acc = ref [] in
                ignore
                  (DE.run ~all:true plan store [||] (fun slots ->
                       acc := DE.bindings plan slots :: !acc));
                !acc
              in
              let norm l = List.sort compare (List.map (List.sort compare) l) in
              if norm (reference ()) <> norm (compiled ()) then
                failwith ("compiled plan disagrees with the reference on " ^ key);
              let ms f = fst (time_stats ~reps ~clean:true f) in
              row bytes key "reference" (ms reference) (snd (DR.with_meter reference))
                (words reference);
              row bytes key "compiled" (ms compiled) (snd (DE.with_meter compiled))
                (words compiled))
            c.Constr.datalog;
          let plan = Constr.compile c in
          let xquery () =
            Constr.violated_compiled ?index:(Repository.index repo)
              (Repository.doc repo) c plan
          in
          row bytes c.Constr.name "xquery" (fst (time_stats ~reps ~clean:true xquery))
            (-1) (words xquery))
        constraints;
      let init () =
        let i =
          Incr.create
            (List.map
               (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
               constraints)
        in
        Incr.initialize i store
      in
      let full () = Repository.check_full repo in
      List.iter
        (fun (route, f) ->
          row bytes "all" route (fst (time_stats ~reps ~clean:true f)) (-1) (words f))
        [ ("initialize", init); ("check_full", fun () -> ignore (full ())) ])
    sizes;
  (match List.rev sizes with
   | large :: mid :: _ ->
     Hashtbl.iter
       (fun (key, route, size) ms ->
         if size = mid then
           match Hashtbl.find_opt rows (key, route, large) with
           | Some ms' when ms' > 4.5 *. ms ->
             Printf.printf "# growth > 4.5x: %s %s %.3f -> %.3f ms (%.1fx)\n" key route
               ms ms' (ms' /. ms)
           | _ -> ())
       rows
   | _ -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Observability overhead on the resident server                        *)
(* ------------------------------------------------------------------ *)

module Srv = Xic_server.Server
module Proto = Xic_server.Protocol

(* Serve-path cost of the observability stack: request latency against
   a plain server vs one with structured debug logging, request tracing
   and the slow-request ring all enabled.  Both servers are alive at
   once and the measurement rounds alternate between them in
   interleaved order, so the two populations face the same machine
   state; per-side medians are compared. *)
let server_obs_bench ~reps () =
  let size = 256_000 in
  Printf.printf "# Observability overhead on the serve path (%d bytes)\n" size;
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  (* three configurations: the PR 8 server, the production observability
     setting (info-level structured log + metrics — per-request debug
     lines are filtered before rendering), and the full diagnostic
     stack (per-request debug lines, request tracing, slow ring). *)
  let configs = [ ("plain", `Plain); ("log+metrics", `Info);
                  ("debug+trace", `Debug) ] in
  let spawn mode sock logpath =
    match Unix.fork () with
    | 0 ->
      (try
         (match mode with
          | `Plain -> ()
          | `Info | `Debug ->
            Xic_obs.Log.set_format Xic_obs.Log.Json;
            Xic_obs.Log.set_level
              (match mode with
               | `Debug -> Xic_obs.Log.Debug
               | _ -> Xic_obs.Log.Info);
            (match Xic_obs.Log.open_path logpath with
             | Ok () -> ()
             | Error m -> failwith m);
            if mode = `Debug then Xic_obs.Obs.Trace.set_enabled true);
         let repo = Repository.create s in
         Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
         Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
         Repository.add_constraint repo (Conf.conflict s);
         let srv = Srv.create repo in
         let lfd = Srv.listen (Proto.Unix_sock sock) in
         Srv.serve ~idle_timeout:0.05 srv lfd;
         Unix._exit 0
       with _ -> Unix._exit 97)
    | pid -> pid
  in
  let servers =
    List.map
      (fun (name, mode) ->
        let sock = Filename.temp_file "bench_obs" ".sock" in
        let logpath = Filename.temp_file "bench_obs" ".log" in
        Sys.remove sock;
        (name, sock, logpath, spawn mode sock logpath))
      configs
  in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun (_, sock, logpath, pid) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ sock; logpath ])
        servers)
  @@ fun () ->
  let rec connect sock n =
    match Proto.connect (Proto.Unix_sock sock) with
    | fd -> fd
    | exception _ when n > 0 ->
      ignore (Unix.select [] [] [] 0.1);
      connect sock (n - 1)
  in
  let fds =
    List.map (fun (name, sock, _, _) -> (name, connect sock 200)) servers
  in
  let check_req = Proto.Obj [ ("op", Proto.String "check") ] in
  let round fd k =
    let t0 = now () in
    for _ = 1 to k do
      ignore (Proto.request fd check_req)
    done;
    (now () -. t0) *. 1000.0 /. float_of_int k
  in
  (* rounds long enough (~7ms) that scheduler jitter does not dominate
     the microsecond-scale per-check differences being measured *)
  let k = 500 in
  List.iter (fun (_, fd) -> ignore (round fd k)) fds;
  List.iter (fun (_, fd) -> ignore (round fd k)) fds;
  let n = max (6 * reps) 30 in
  let nc = List.length fds in
  let fda = Array.of_list fds in
  let samples = Array.make_matrix nc n 0.0 in
  (* rotate the visiting order every round so no configuration always
     runs first (or last) within a round *)
  for i = 0 to n - 1 do
    for j = 0 to nc - 1 do
      let c = (i + j) mod nc in
      samples.(c).(i) <- round (snd fda.(c)) k
    done
  done;
  let med arr =
    let a = Array.copy arr in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let meds =
    List.mapi (fun c (name, _) -> (name, med samples.(c))) fds
  in
  (* overhead from the per-configuration minima: scheduler and cache
     noise on a shared machine is strictly additive, so the minimum
     over rounds is the closest estimate of each configuration's true
     cost, and the ratio of minima the most stable overhead figure *)
  let plain_idx =
    let rec find i = function
      | ("plain", _) :: _ -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> assert false
    in
    find 0 fds
  in
  let minimum arr = Array.fold_left Float.min arr.(0) arr in
  let overhead_of c =
    (minimum samples.(c) /. minimum samples.(plain_idx) -. 1.0) *. 100.0
  in
  let overheads =
    List.mapi (fun c (name, _) -> (name, overhead_of c)) fds
  in
  Printf.printf "# %-30s %-18s %s\n" "configuration" "ms/check (median)"
    "overhead";
  List.iter
    (fun (name, ms) ->
      Printf.printf "%-32s %-18.4f %+.1f%%\n" name ms
        (List.assoc name overheads))
    meds;
  Printf.printf "(%d checks/round, %d rounds per configuration)\n%!" k n;
  List.iter
    (fun (_, fd) ->
      ignore (Proto.request fd (Proto.Obj [ ("op", Proto.String "shutdown") ]));
      Unix.close fd)
    fds;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let reps = ref 5 in
  let sizes = ref default_sizes in
  let which = ref [] in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest ->
      reps := int_of_string n;
      parse rest
    | "--sizes" :: s :: rest ->
      sizes := List.map int_of_string (String.split_on_char ',' s);
      parse rest
    | x :: rest ->
      which := x :: !which;
      parse rest
  in
  parse args;
  let which = if !which = [] then [ "all" ] else List.rev !which in
  let reps = !reps and sizes = !sizes in
  let run = function
    | "fig1a" -> fig1a ~sizes ~reps ()
    | "fig1b" -> fig1b ~sizes ~reps ()
    | "fig_simp" -> fig_simp ()
    | "ex45" -> ex45 ()
    | "ablations" -> ablations ~reps ()
    | "index" -> index_bench ~sizes ~reps ()
    | "journal" -> journal_bench ~sizes ~reps ()
    | "incremental" -> incremental_bench ~sizes ~reps ()
    | "server_obs" -> server_obs_bench ~reps ()
    | "micro" -> micro ()
    | "datalog_plans" -> datalog_plans ~sizes ~reps ()
    | "all" ->
      fig1a ~sizes ~reps ();
      fig1b ~sizes ~reps ();
      fig_simp ();
      ex45 ();
      ablations ~reps ();
      index_bench ~sizes ~reps ();
      journal_bench ~sizes ~reps ();
      incremental_bench ~sizes ~reps ();
      server_obs_bench ~reps ();
      micro ()
    | other ->
      Printf.eprintf
        "unknown experiment %S (expected \
         fig1a|fig1b|fig_simp|ex45|ablations|index|journal|incremental|\
         server_obs|micro|datalog_plans|all)\n"
        other;
      exit 2
  in
  List.iter run which
