(* The end-to-end workloads.  Each is a closed loop: one load-generator
   (this process) holds one connection to one [xicheck serve] over a
   Unix socket and sends its next request only after the previous
   verdict came back — a guard client waits for its verdict — or, for
   cold starts, runs one fresh xicheck process at a time.

   Every verdict is recorded and, after the timed window, compared with
   an in-process reference replay of the same statements on a fresh
   repository ([Fixture.reference_repo]). *)

module P = Xic_server.Protocol
module R = Xic_core.Repository

type config = {
  xicheck : string;  (* path of the built xicheck binary *)
  seed : int;
  seconds : float;
  dir : string;  (* work directory inside the checkout *)
  smoke : bool;  (* tiny documents, for a quick end-to-end pass *)
}

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* the first few, for the log *)
  dataset_bytes : int;
  metrics : (string * float * string) list;  (* the end-to-end set *)
  details : (string * float * string) list;  (* per-class figures *)
}

(* Samples keyed by request class. *)
module Samples = struct
  type 'a t = (string, 'a list) Hashtbl.t

  let create () : 'a t = Hashtbl.create 16
  let add (t : 'a t) k v = Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k))
  let get (t : 'a t) k = Option.value ~default:[] (Hashtbl.find_opt t k)
end

(* Median and tail of one class, named as in the class's figures.  The
   tail is the highest percentile with at least ten samples beyond it. *)
let class_figures name samples =
  let n = List.length samples in
  let a = Util.sorted_of_list samples in
  let count = (name ^ ".count", float_of_int n, "count") in
  if n = 0 then [ count ]
  else
    let p50 = (name ^ "_p50_ms", Util.percentile a 50.0, "ms") in
    match Util.tail_percentile n with
    | Some p when p > 50.0 ->
      [ p50;
        (Printf.sprintf "%s_p%g_ms" name p, Util.percentile a p, "ms");
        count ]
    | _ -> [ p50; count ]

let sample_median samples name =
  match samples with
  | [] -> failwith ("no samples of " ^ name)
  | l -> Util.median l

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* Shared hosts drift: on a shared 2-vCPU Xeon VM (2.1 GHz) the same
   loop ran up to twice as slow from one minute to the next, far beyond
   any regression bound.  So every run also times a fixed
   kernel that shares no code with xicheck ([Util.calibration_kernel])
   every [interval] seconds, and the time metrics are scaled by
   [reference_ms] / (the kernel's median in this run): milliseconds on
   a host where the kernel takes [reference_ms].  The raw figures and
   the kernel's median are printed beside them. *)
module Speed = struct
  let reference_ms = 5.0
  let interval = 0.1
  let samples = ref []
  let last = ref 0.0

  let probe () =
    samples := Util.calibrate () :: !samples;
    last := Util.now ()

  let tick () = if Util.now () -. !last >= interval then probe ()
  let kernel_ms () = Util.median !samples
  let factor () = reference_ms /. kernel_ms ()
end

(* The end-to-end set from raw figures: times scaled to the reference
   host, rates the other way, memory as measured.  Returns the set and
   the raw figures for the details. *)
let normalized ~setup_s ~fast ~slow ~ops ~rss =
  let f = Speed.factor () in
  ( [ ("setup_s", setup_s *. f, "s");
      ("fast_p50_ms", fast *. f, "ms");
      ("slow_p50_ms", slow *. f, "ms");
      ("ops_per_s", ops /. f, "1/s");
      ("server_peak_rss_mb", rss, "MB") ],
    [ ("raw.setup_s", setup_s, "s");
      ("raw.fast_p50_ms", fast, "ms");
      ("raw.slow_p50_ms", slow, "ms");
      ("raw.ops_per_s", ops, "1/s");
      ("host.kernel_ms", Speed.kernel_ms (), "ms");
      ("host.speed_factor", f, "x") ] )

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t fmt =
  Printf.ksprintf
    (fun m ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 8 then t.notes <- m :: t.notes)
    fmt

(* ------------------------------------------------------------------ *)
(* Server runs                                                         *)
(* ------------------------------------------------------------------ *)

let serve_args (fx : Fixture.t) ~journal =
  Fixture.dtd_args fx @ Fixture.doc_args fx
  @ [ "--constraints"; fx.Fixture.constraints; "--pattern"; fx.Fixture.pattern;
      "--journal"; journal ]

let setups = 5

(* Start the server [setups] times, each up to its first live verdict,
   and keep the last one.  Returns the server and the median set-up
   time.  The first verdict also builds the materialized views. *)
let start_server cfg fx tl =
  let sock = Filename.concat cfg.dir "s.sock" in
  let journal = Filename.concat cfg.dir "wal.j" in
  let rec go k times =
    Util.remove_quietly journal;
    Speed.probe ();
    let t0 = Util.now () in
    let srv = Proc.start ~xicheck:cfg.xicheck ~sock (serve_args fx ~journal) in
    let resp = Proc.call srv (Proc.op "check" []) in
    let dt = Util.now () -. t0 in
    tl.attempted <- tl.attempted + 1;
    if P.bool_field "consistent" resp <> true || P.int_field "generation" resp <> Some 0
    then fail tl "first verdict: %s" (P.to_string resp);
    if k < setups then begin
      if not (Proc.shutdown srv) then fail tl "server did not shut down cleanly";
      go (k + 1) (dt :: times)
    end
    else (srv, Util.median (dt :: times))
  in
  go 1 []

(* Response fields, as the comparison with the reference needs them. *)
let outcome_of resp =
  match P.string_field "outcome" resp with
  | Some "applied" -> "applied"
  | Some o -> o ^ ":" ^ Option.value ~default:"?" (P.string_field "constraint" resp)
  | None -> "error:" ^ P.to_string resp

let violated_of resp =
  match P.list_field "violated" resp with
  | Some l -> List.sort compare (List.filter_map (function P.String s -> Some s | _ -> None) l)
  | None -> [ "<no verdict>" ]

(* What was sent and what came back, in order, for the replay. *)
type event =
  | Guard of string * P.json  (* statement, response *)
  | Live of P.json
  | Pinned of string * int * P.json
      (* isolation and generation the read must answer with *)
  | Pin of P.json
  | Other of P.json  (* must merely succeed *)

let rec find_int key (j : P.json) =
  match j with
  | P.Obj fields ->
    (match List.assoc_opt key fields with
     | Some (P.Int n) -> Some n
     | _ -> List.find_map (fun (_, v) -> find_int key v) fields)
  | P.List l -> List.find_map (find_int key) l
  | _ -> None

(* Replay [events] on a fresh reference repository and count every
   response that disagrees with it.  Reference verdicts come from the
   full XQuery check, an executor independent of the server's
   materialized views.  Ends with the server's final live verdict and
   store size against the reference's. *)
let verify fx tl events ~final_check ~final_stats =
  let repo = Fixture.reference_repo fx in
  let verdicts = Hashtbl.create 64 in
  let verdict_now () =
    let g = R.generation repo in
    match Hashtbl.find_opt verdicts g with
    | Some v -> v
    | None ->
      let v = List.sort compare (R.check_full repo) in
      Hashtbl.replace verdicts g v;
      v
  in
  let expect_check ~isolation ~gen ~verdict resp =
    if not (P.bool_field "ok" resp) then fail tl "check error: %s" (P.to_string resp)
    else if P.string_field "isolation" resp <> Some isolation
         || P.int_field "generation" resp <> Some gen
         || violated_of resp <> verdict
    then
      fail tl "check mismatch: got %s, expected %s at generation %d" (P.to_string resp)
        isolation gen
  in
  ignore (verdict_now ());
  List.iter
    (function
      | Guard (stmt, resp) ->
        let r = R.guarded_update_report repo (Xic_xupdate.Xupdate.parse_string stmt) in
        let want = Fixture.outcome_string r.R.outcome in
        let got = outcome_of resp in
        if got <> want || P.int_field "generation" resp <> Some (R.generation repo) then
          fail tl "guard verdict %s, reference %s (generation %d)" got want
            (R.generation repo)
      | Live resp ->
        expect_check ~isolation:"live" ~gen:(R.generation repo) ~verdict:(verdict_now ()) resp
      | Pin resp ->
        ignore (verdict_now ());
        if P.int_field "generation" resp <> Some (R.generation repo) then
          fail tl "pin at generation %s, reference at %d"
            (P.to_string resp) (R.generation repo)
      | Other resp ->
        if not (P.bool_field "ok" resp) then fail tl "request failed: %s" (P.to_string resp)
      | Pinned (isolation, gen, resp) ->
        (match Hashtbl.find_opt verdicts gen with
         | Some verdict -> expect_check ~isolation ~gen ~verdict resp
         | None -> fail tl "read at generation %d, which the reference never saw" gen))
    events;
  tl.attempted <- tl.attempted + 1;
  expect_check ~isolation:"live" ~gen:(R.generation repo) ~verdict:(verdict_now ()) final_check;
  let facts = Xic_datalog.Store.total_tuples (R.store repo) in
  match find_int "serve_store_facts" final_stats with
  | Some n when n = facts -> ()
  | got ->
    fail tl "server store holds %s facts, reference %d"
      (match got with Some n -> string_of_int n | None -> "?")
      facts

(* One timed round trip; errors and timeouts become error responses so
   the replay counts them. *)
let timed srv req =
  let t0 = Util.now () in
  match Proc.call srv req with
  | resp -> (resp, Util.ms_since t0)
  | exception e ->
    (P.Obj [ ("ok", P.Bool false); ("error", P.String (Printexc.to_string e)) ],
     Util.ms_since t0)

(* Close a server run: final live check and stats (untimed), peak
   RSS, shutdown, then the replay. *)
let finish_server fx tl srv events =
  let final_check = fst (timed srv (Proc.op "check" [])) in
  let final_stats = fst (timed srv (Proc.op "stats" [])) in
  let rss = Proc.peak_rss_mb srv.Proc.pid in
  if not (Proc.shutdown srv) then fail tl "server did not shut down cleanly";
  verify fx tl (List.rev events) ~final_check ~final_stats;
  rss

let result ~tl ~fx ~metrics:(metrics, raw) ~details =
  { attempted = tl.attempted; failed = tl.failed; failures = List.rev tl.notes;
    dataset_bytes = Fixture.dataset_bytes fx; metrics; details = raw @ details }

(* ------------------------------------------------------------------ *)
(* guard_1mb                                                           *)
(* ------------------------------------------------------------------ *)

(* Legal guards alternate with refused ones, so every refused guard
   meets a freshly mutated document, as in a stream of mostly-legal
   submissions; most refusals come from conflict's cheap disjunct. *)
let guard_mix =
  Fixture.[ [ (Legal, 1) ]; [ (Self_conflict, 8); (Coauthor, 1); (Overload, 1) ] ]

let guard_workload cfg =
  let bytes = if cfg.smoke then 32_000 else 1_000_000 in
  let fx = Fixture.create ~seed:cfg.seed ~bytes ~dir:cfg.dir in
  let tl = tally () in
  let srv, setup_s = start_server cfg fx tl in
  let st = Fixture.stream fx guard_mix in
  let samples = Samples.create () in
  let events = ref [] in
  let send_guard ~timed_window =
    let kind, stmt = Fixture.next st in
    let resp, ms = timed srv (Proc.op "guard" [ ("update", P.String stmt) ]) in
    events := Guard (stmt, resp) :: !events;
    tl.attempted <- tl.attempted + 1;
    if timed_window then begin
      Samples.add samples ("kind." ^ Fixture.kind_name kind) ms;
      Samples.add samples
        (if P.string_field "outcome" resp = Some "applied" then "guard_applied"
         else "guard_rejected")
        ms
    end
  in
  let send_check () =
    let resp, ms = timed srv (Proc.op "check" []) in
    events := Live resp :: !events;
    tl.attempted <- tl.attempted + 1;
    Samples.add samples "check_live" ms
  in
  (* warm-up: the first statements compile their plans *)
  for _ = 1 to 8 do send_guard ~timed_window:false done;
  send_check ();
  let deadline = Util.now () +. cfg.seconds in
  let i = ref 0 in
  (try
     while Util.now () < deadline do
       Speed.tick ();
       if !i mod 21 = 20 then send_check () else send_guard ~timed_window:true;
       incr i
     done
   with Fixture.Exhausted -> ());
  let rss = finish_server fx tl srv !events in
  let applied = Samples.get samples "guard_applied"
  and rejected = Samples.get samples "guard_rejected" in
  let guards = applied @ rejected in
  let guards_per_s = float_of_int (List.length guards) /. (Util.sum guards /. 1000.0) in
  result ~tl ~fx
    ~metrics:
      (normalized ~setup_s
         ~fast:(sample_median (Samples.get samples "kind.self_conflict") "cheap refusals")
         ~slow:(sample_median applied "applied guards")
         ~ops:guards_per_s ~rss)
    ~details:
      (class_figures "guard_applied" applied
       @ class_figures "guard_rejected" rejected
       @ [ ("guards_per_s", guards_per_s, "1/s") ]
       @ List.concat_map
           (fun k ->
             let name = "kind." ^ Fixture.kind_name k in
             class_figures name (Samples.get samples name))
           Fixture.[ Legal; Self_conflict; Coauthor; Overload ]
       @ class_figures "check_live" (Samples.get samples "check_live"))

(* ------------------------------------------------------------------ *)
(* read_256kb                                                          *)
(* ------------------------------------------------------------------ *)

let checks_per_round = 200

let read_workload cfg =
  let bytes = if cfg.smoke then 32_000 else 256_000 in
  let fx = Fixture.create ~seed:cfg.seed ~bytes ~dir:cfg.dir in
  let tl = tally () in
  let srv, setup_s = start_server cfg fx tl in
  let st = Fixture.stream fx Fixture.[ [ (Legal, 1) ] ] in
  let samples = Samples.create () in
  let events = ref [] in
  let send cls req wrap =
    let resp, ms = timed srv req in
    events := wrap resp :: !events;
    tl.attempted <- tl.attempted + 1;
    Samples.add samples cls ms;
    resp
  in
  (* every pin taken so far, newest first: (pin id, generation); the two
     newest are held, older ones are released into retained history *)
  let pins = ref [] in
  let round r =
    for _ = 1 to checks_per_round do
      ignore (send "check_live" (Proc.op "check" []) (fun x -> Live x))
    done;
    let _, stmt = Fixture.next st in
    ignore (send "guard" (Proc.op "guard" [ ("update", P.String stmt) ]) (fun x -> Guard (stmt, x)));
    (* odd rounds read through the pin held since the previous round,
       even rounds travel back to a generation kept only as history *)
    (match !pins with
     | (id, g) :: _ when r mod 2 = 1 ->
       ignore
         (send "check_pinned" (Proc.op "check" [ ("pin", P.Int id) ]) (fun x ->
              Pinned ("pinned", g, x)))
     | _ :: _ :: _ :: (_, g) :: _ ->
       ignore
         (send "check_pinned" (Proc.op "check" [ ("as_of", P.Int g) ]) (fun x ->
              Pinned ("as_of", g, x)))
     | _ -> ());
    let resp = send "pin" (Proc.op "pin" []) (fun x -> Pin x) in
    (match (P.int_field "pin" resp, P.int_field "generation" resp) with
     | Some id, Some g -> pins := (id, g) :: !pins
     | _ -> ());
    match !pins with
    | _ :: _ :: (id, _) :: _ ->
      ignore (send "unpin" (Proc.op "unpin" [ ("pin", P.Int id) ]) (fun x -> Other x))
    | _ -> ()
  in
  (* warm-up round: plans compiled, first pin taken *)
  round 0;
  Hashtbl.reset samples;
  let deadline = Util.now () +. cfg.seconds in
  let r = ref 1 in
  (try
     while Util.now () < deadline do
       Speed.tick ();
       round !r;
       incr r
     done
   with Fixture.Exhausted -> ());
  let rss = finish_server fx tl srv !events in
  let live = Samples.get samples "check_live"
  and pinned = Samples.get samples "check_pinned" in
  let checks_per_s = float_of_int (List.length live) /. (Util.sum live /. 1000.0) in
  result ~tl ~fx
    ~metrics:
      (normalized ~setup_s ~fast:(sample_median live "live checks")
         ~slow:(sample_median pinned "pinned checks") ~ops:checks_per_s ~rss)
    ~details:
      (class_figures "check_live" live
       @ [ ("checks_per_s", checks_per_s, "1/s") ]
       @ class_figures "check_pinned" pinned
       @ List.concat_map
           (fun c -> class_figures c (Samples.get samples c))
           [ "guard"; "pin"; "unpin" ])

(* ------------------------------------------------------------------ *)
(* coldstart_1mb                                                       *)
(* ------------------------------------------------------------------ *)

(* The verdict a one-shot [xicheck check] printed. *)
let oneshot_verdict out =
  List.filter_map
    (fun line ->
      if line = "consistent" then None
      else if String.length line > 10 && String.sub line 0 10 = "VIOLATED: " then
        Some (String.sub line 10 (String.length line - 10))
      else None)
    (String.split_on_char '\n' out)
  |> List.sort compare

let coldstart_workload cfg =
  let bytes = if cfg.smoke then 32_000 else 1_000_000 in
  let fx = Fixture.create ~seed:cfg.seed ~bytes ~dir:cfg.dir in
  let tl = tally () in
  let path name = Filename.concat cfg.dir name in
  let snapshot = path "state.xis" and out = path "oneshot.out" in
  let expected =
    let repo = Fixture.reference_repo fx in
    List.sort compare (R.check_full repo)
  in
  let constraints = [ "--constraints"; fx.Fixture.constraints ] in
  (* set-up: the snapshot image every cold start below loads *)
  let setup_times =
    List.init setups (fun _ ->
        Util.remove_quietly snapshot;
        Speed.probe ();
        let t0 = Util.now () in
        let st, _ =
          Proc.run ~out cfg.xicheck
            (("checkpoint" :: Fixture.dtd_args fx) @ Fixture.doc_args fx @ constraints
            @ [ "--snapshot"; snapshot ])
        in
        tl.attempted <- tl.attempted + 1;
        if st <> Unix.WEXITED 0 then fail tl "checkpoint failed";
        Util.now () -. t0)
  in
  let samples = Samples.create () in
  let rss = ref [] in
  let oneshot cls args =
    let t0 = Util.now () in
    let st, stdout = Proc.run ~out cfg.xicheck (("check" :: Fixture.dtd_args fx) @ args @ constraints) in
    Samples.add samples cls (Util.ms_since t0);
    tl.attempted <- tl.attempted + 1;
    let want_status = if expected = [] then Unix.WEXITED 0 else Unix.WEXITED 1 in
    if st <> want_status || oneshot_verdict stdout <> expected then
      fail tl "%s printed %S" cls stdout
  in
  let serve_first () =
    let sock = path "s.sock" and journal = path "cold.j" in
    Util.remove_quietly journal;
    let t0 = Util.now () in
    let srv =
      Proc.start ~xicheck:cfg.xicheck ~sock
        (Fixture.dtd_args fx
        @ [ "--snapshot"; snapshot; "--pattern"; fx.Fixture.pattern; "--journal"; journal ]
        @ constraints)
    in
    let resp, _ = timed srv (Proc.op "check" []) in
    Samples.add samples "serve_first_verdict" (Util.ms_since t0);
    tl.attempted <- tl.attempted + 1;
    if P.bool_field "consistent" resp <> (expected = []) || violated_of resp <> expected then
      fail tl "first verdict %s" (P.to_string resp);
    rss := Proc.peak_rss_mb srv.Proc.pid :: !rss;
    if not (Proc.shutdown srv) then fail tl "server did not shut down cleanly"
  in
  let cycle () =
    List.iter
      (fun run ->
        Speed.tick ();
        run ())
      [ (fun () -> oneshot "oneshot_snapshot" [ "--snapshot"; snapshot ]);
        serve_first;
        (fun () -> oneshot "oneshot_xml" (Fixture.doc_args fx));
        (fun () -> oneshot "oneshot_snapshot" [ "--snapshot"; snapshot ]) ]
  in
  cycle ();
  Hashtbl.reset samples;
  rss := [];
  let deadline = Util.now () +. cfg.seconds in
  while Util.now () < deadline do cycle () done;
  let snap = Samples.get samples "oneshot_snapshot"
  and xml = Samples.get samples "oneshot_xml"
  and first = Samples.get samples "serve_first_verdict" in
  let all = snap @ xml @ first in
  let verdicts_per_s = float_of_int (List.length all) /. (Util.sum all /. 1000.0) in
  result ~tl ~fx
    ~metrics:
      (normalized ~setup_s:(Util.median setup_times)
         ~fast:(sample_median snap "one-shot snapshot checks")
         ~slow:(sample_median first "first verdicts") ~ops:verdicts_per_s
         ~rss:(Util.median !rss))
    ~details:
      (class_figures "oneshot_snapshot" snap
       @ class_figures "oneshot_xml" xml
       @ class_figures "serve_first_verdict" first
       @ [ ("verdicts_per_s", verdicts_per_s, "1/s") ])
