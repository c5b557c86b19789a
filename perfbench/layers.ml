(* The traced run: per-layer numbers, measured in-process from outside
   the library.

   It replays a workload's seeded request sequence in three passes that
   run in lockstep, each on its own freshly loaded repository:
   - the handle pass sends the real request bodies through
     [Server.handle] (no socket) and times each call;
   - the untraced and traced layer passes make the calls the serve path
     makes for each request, in the same order, through the layers'
     public functions — the traced one wraps each call in a span and
     reads the GC counters around it, so the two passes' totals give
     the tracing overhead.
   A shadow pass then times the Datalog executor of the simplified check
   (off the serve path) beside the XQuery one on the same states.
   A socket pass against a spawned [xicheck serve] gives the round trip
   that [Server.handle] does not see, and the cold phase times each
   start-up step once per repeat. *)

module P = Xic_server.Protocol
module Srv = Xic_server.Server
module R = Xic_core.Repository
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  req : int;  (* request index; -1 outside the replay *)
  start_us : float;
  dur_us : float;
  words : float;  (* words allocated inside the span *)
  depth : int;
}

let tracing = ref false
let spans : span list ref = ref []
let depth = ref 0
let current_req = ref (-1)
let epoch = Util.now ()

let span name f =
  if not !tracing then f ()
  else begin
    let w0 = Util.words_allocated () in
    let t0 = Util.now () in
    incr depth;
    let finish () =
      let t1 = Util.now () in
      decr depth;
      spans :=
        { name; req = !current_req; start_us = (t0 -. epoch) *. 1e6;
          dur_us = (t1 -. t0) *. 1e6; words = Util.words_allocated () -. w0;
          depth = !depth }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

let chrome_json spans =
  let ev s =
    Printf.sprintf
      {|{"name":"%s","cat":"layer","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"req":%d,"gc_words":%.0f}}|}
      s.name s.start_us s.dur_us s.req s.words
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map ev spans) ^ "\n]}\n"

(* Self time: a span's duration minus the part its direct children
   cover.  Spans are recorded at their end, so children precede their
   parent in chronological-completion order. *)
let self_times spans =
  let chrono = List.rev spans in
  let pending = Hashtbl.create 8 in
  List.map
    (fun s ->
      let child = Option.value ~default:0.0 (Hashtbl.find_opt pending (s.depth + 1)) in
      Hashtbl.remove pending (s.depth + 1);
      Hashtbl.replace pending s.depth
        (s.dur_us +. Option.value ~default:0.0 (Hashtbl.find_opt pending s.depth));
      (s, s.dur_us -. child))
    chrono

(* ------------------------------------------------------------------ *)
(* Request sequence                                                    *)
(* ------------------------------------------------------------------ *)

type req =
  | Check
  | Guard of string
  | Pin
  | Check_pin  (* through the newest pin *)
  | Check_as_of  (* at the oldest pinned generation *)
  | Unpin  (* the oldest pin *)

(* The workload's request order (as in [Workloads]), shortened. *)
let sequence ~workload ~smoke fx =
  let scale n = if smoke then max 2 (n / 10) else n in
  match workload with
  | "guard_1mb" ->
    let st = Fixture.stream fx Workloads.guard_mix in
    let body =
      List.init (scale 105) (fun i ->
          if i mod 21 = 20 then Check else Guard (snd (Fixture.next st)))
    in
    (Check :: body) @ [ Pin; Guard (snd (Fixture.next st)); Check; Check_pin; Check_as_of; Unpin ]
  | "read_256kb" ->
    let st = Fixture.stream fx Fixture.[ [ (Legal, 1) ] ] in
    Check
    :: List.concat
         (List.init (scale 8) (fun r ->
              List.init Workloads.checks_per_round (fun _ -> Check)
              @ [ Guard (snd (Fixture.next st)) ]
              @ (if r = 0 then [] else if r mod 2 = 1 then [ Check_pin ] else [ Check_as_of ])
              @ [ Pin ] @ if r >= 2 then [ Unpin ] else []))
  | _ ->
    (* a cold server's first verdict, then a short mixed stream *)
    let st = Fixture.stream fx Workloads.guard_mix in
    (Check
     :: List.init (scale 40) (fun i ->
            if i mod 10 = 9 then Check else Guard (snd (Fixture.next st))))
    @ [ Pin; Guard (snd (Fixture.next st)); Check_pin; Check_as_of; Unpin; Check ]

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let fresh_repo fx =
  let repo = Fixture.reference_repo fx in
  ignore (R.check_incremental repo);
  repo

let journal_path dir name =
  let p = Filename.concat dir name in
  Util.remove_quietly p;
  p

let op_class = function
  | Check -> "check"
  | Guard _ -> "guard"
  | Check_pin | Check_as_of -> "pinned"
  | Pin -> "pin"
  | Unpin -> "unpin"

(* Each pass is a stepper over its own repository: [step i req] makes
   request [i]'s calls, [finish] returns what the pass measured.  The
   three passes run in lockstep, rotating which goes first, so they meet
   the same machine state and their totals can be compared. *)

(* per op class: (µs, GC words) of each Server.handle call *)
type handle_pass = { ops : (float * float) Workloads.Samples.t; quiet_us : float }

(* Server.handle on the real request bodies.  Pin ids come from the
   server's own responses. *)
let handle_stepper fx dir =
  let repo = fresh_repo fx in
  let journal = J.open_ (journal_path dir "handle.j") in
  let srv = Srv.create ~config:{ Srv.default_config with journal = Some journal } repo in
  let acc = Workloads.Samples.create () in
  let pins = ref [] in
  let oldest () = List.nth !pins (List.length !pins - 1) in
  let handle req =
    let w0 = Util.words_allocated () in
    let t0 = Util.now () in
    let resp = Srv.handle srv req in
    let us = Util.us_since t0 in
    (resp, us, Util.words_allocated () -. w0)
  in
  let step _ r =
    let body =
      match r with
      | Check -> Proc.op "check" []
      | Guard stmt -> Proc.op "guard" [ ("update", P.String stmt) ]
      | Pin -> Proc.op "pin" []
      | Check_pin -> Proc.op "check" [ ("pin", P.Int (fst (List.hd !pins))) ]
      | Check_as_of -> Proc.op "check" [ ("as_of", P.Int (snd (oldest ()))) ]
      | Unpin -> Proc.op "unpin" [ ("pin", P.Int (fst (oldest ()))) ]
    in
    let resp, us, words = handle body in
    if not (P.bool_field "ok" resp) then failwith ("handle pass: " ^ P.to_string resp);
    (match r with
     | Pin ->
       pins :=
         (Option.get (P.int_field "pin" resp), Option.get (P.int_field "generation" resp))
         :: !pins
     | Unpin -> pins := List.filteri (fun i _ -> i < List.length !pins - 1) !pins
     | _ -> ());
    Workloads.Samples.add acc (op_class r) (us, words)
  in
  let finish () =
    (* quiescent live checks: nothing pending, for the socket comparison *)
    let quiet =
      List.init 300 (fun _ ->
          let _, us, _ = handle (Proc.op "check" []) in
          us)
    in
    Srv.shutdown srv;
    { ops = acc; quiet_us = Util.median quiet }
  in
  (step, finish)

type layer_pass = {
  total_ms : float;
  guards : int;
  applied : int;
  journal_bytes : int;
  journal_records : int;
  index_hits : int;
  index_fallbacks : int;
  plan_misses : int;
  delta : R.delta_stats * R.delta_stats;  (* before, after *)
  retained_bytes : int;
  frame_bytes : int;
}

let encode json = span "protocol.encode" (fun () -> P.to_string json)
let decode body = span "protocol.decode" (fun () -> P.of_string body)

let check_json ~isolation ~generation violated =
  P.Obj
    [ ("ok", P.Bool true);
      ("consistent", P.Bool (violated = []));
      ("violated", P.List (List.map (fun v -> P.String v) violated));
      ("generation", P.Int generation);
      ("isolation", P.String isolation) ]

(* The serve path's calls for each request, in order, through the
   layers' public functions.  Guards run as [xicheck serve] runs a lone
   guard: intent record synced, apply, commit record synced; the mirror
   flush and view maintenance happen at the next read, as in the
   server.  The generation counter is the repository's own and is not
   advanced here, so pins and time-travel reads name the current one. *)
let layer_stepper fx dir ~traced =
  let repo = fresh_repo fx in
  let journal = J.open_ (journal_path dir (if traced then "traced.j" else "plain.j")) in
  let pins = ref [] in
  let oldest () = List.nth !pins (List.length !pins - 1) in
  let index () =
    match R.index_stats repo with
    | Some s -> (s.Xic_xml.Index.hits, s.Xic_xml.Index.fallbacks)
    | None -> (0, 0)
  in
  let hits0, fb0 = index () in
  let plan0 = (R.plan_stats repo).R.plan_misses in
  let delta0 = R.delta_stats repo in
  let jb0 = J.bytes journal and jr0 = J.entry_count journal in
  let guards = ref 0 and applied = ref 0 and frame_bytes = ref 0 in
  let total_us = ref 0.0 in
  let serve r =
    match r with
    | Check ->
      ignore (span "mirror.flush_maintain" (fun () -> R.store repo));
      let v = span "incr.violated" (fun () -> R.check_incremental repo) in
      check_json ~isolation:"live" ~generation:(R.generation repo) v
    | Guard stmt ->
      incr guards;
      let u = span "xupdate.parse" (fun () -> XU.parse_string stmt) in
      (match span "pattern.match" (fun () -> R.match_update repo u) with
       | None -> failwith "guard matches no pattern"
       | Some (p, valuation) ->
         (match
            span "xquery.simplified_check" (fun () -> R.try_check_optimized repo p valuation)
          with
          | c :: _, _ ->
            P.Obj [ ("ok", P.Bool true); ("outcome", P.String "rejected");
                    ("constraint", P.String c) ]
          | [], _ ->
            incr applied;
            let txn = J.next_txn journal in
            span "journal.intent" (fun () ->
                J.append journal
                  (J.Intent { txn; seq = 0; strategy = "optimized"; payload = XU.to_string u }));
            ignore (span "xupdate.apply" (fun () -> R.apply_unchecked repo u));
            span "journal.commit_fsync" (fun () -> J.append journal (J.Commit { txn }));
            P.Obj [ ("ok", P.Bool true); ("outcome", P.String "applied");
                    ("strategy", P.String "optimized") ]))
    | Pin ->
      let p = span "store.pin" (fun () -> R.pin repo) in
      pins := p :: !pins;
      P.Obj [ ("ok", P.Bool true); ("pin", P.Int (List.length !pins));
              ("generation", P.Int (R.pin_generation p)) ]
    | Check_pin ->
      let p = List.hd !pins in
      let v = span "datalog.pinned_check" (fun () -> R.check_pinned repo p) in
      check_json ~isolation:"pinned" ~generation:(R.pin_generation p) v
    | Check_as_of ->
      let g = R.pin_generation (oldest ()) in
      let v =
        match span "datalog.as_of_check" (fun () -> R.check_as_of repo g) with
        | Some v -> v
        | None -> failwith "as_of generation not retained"
      in
      check_json ~isolation:"as_of" ~generation:g v
    | Unpin ->
      span "store.unpin" (fun () -> R.unpin repo (oldest ()));
      pins := List.filteri (fun i _ -> i < List.length !pins - 1) !pins;
      P.Obj [ ("ok", P.Bool true) ]
  in
  let step i r =
    let body =
      P.to_string
        (match r with
         | Check -> Proc.op "check" []
         | Check_pin -> Proc.op "check" [ ("pin", P.Int (List.length !pins)) ]
         | Check_as_of -> Proc.op "check" [ ("as_of", P.Int (R.generation repo)) ]
         | Guard stmt -> Proc.op "guard" [ ("update", P.String stmt) ]
         | Pin -> Proc.op "pin" []
         | Unpin -> Proc.op "unpin" [ ("pin", P.Int 1) ])
    in
    tracing := traced;
    current_req := i;
    let t0 = Util.now () in
    let out =
      span ("request." ^ op_class r) @@ fun () ->
      ignore (decode body);
      encode (serve r)
    in
    total_us := !total_us +. Util.us_since t0;
    tracing := false;
    frame_bytes := !frame_bytes + String.length body + String.length out + 8
  in
  let finish () =
    let hits1, fb1 = index () in
    let pass =
      { total_ms = !total_us /. 1000.0; guards = !guards; applied = !applied;
        journal_bytes = J.bytes journal - jb0; journal_records = J.entry_count journal - jr0;
        index_hits = hits1 - hits0; index_fallbacks = fb1 - fb0;
        plan_misses = (R.plan_stats repo).R.plan_misses - plan0;
        delta = (delta0, R.delta_stats repo);
        retained_bytes = R.retained_bytes repo; frame_bytes = !frame_bytes }
    in
    J.close journal;
    pass
  in
  (step, finish)

(* Both executors of the simplified check on the same (flushed) states;
   the state then advances through the ordinary guarded update. *)
let shadow_pass fx seq =
  (* no materialized views here: flushing before each guard would pay
     their maintenance, which belongs to the next read on the serve path *)
  let repo = Fixture.reference_repo fx in
  let xq = ref [] and dl = ref [] in
  List.iter
    (function
      | Guard stmt ->
        let u = XU.parse_string stmt in
        ignore (R.store repo);
        (match R.match_update repo u with
         | Some (p, v) ->
           let t0 = Util.now () in
           ignore (R.try_check_optimized repo p v);
           xq := Util.us_since t0 :: !xq;
           let t1 = Util.now () in
           ignore (R.check_optimized_datalog repo p v);
           dl := Util.us_since t1 :: !dl
         | None -> ());
        ignore (R.guarded_update repo u)
      | _ -> ())
    seq;
  (Util.mean !xq, Util.mean !dl)

(* Fig. 1 readout: both executors of the simplified check at two
   document sizes, on the same seeded guard mix. *)
let fig1_probe ~seed ~smoke ~dir =
  List.map
    (fun bytes ->
      let fx = Fixture.create ~seed ~bytes ~dir:(Filename.concat dir "fig1") in
      let st = Fixture.stream fx Workloads.guard_mix in
      let seq = List.init (if smoke then 5 else 40) (fun _ -> Guard (snd (Fixture.next st))) in
      (Fixture.dataset_bytes fx, shadow_pass fx seq))
    (if smoke then [ 16_000; 32_000 ] else [ 256_000; 1_000_000 ])

(* ------------------------------------------------------------------ *)
(* Cold phase and socket pass                                          *)
(* ------------------------------------------------------------------ *)

let cold_phase ~xicheck ~smoke fx dir =
  let reps = if smoke then 1 else 3 in
  let med f = Util.median (List.init reps (fun _ -> f ())) in
  let timed_ms f =
    let t0 = Util.now () in
    let r = f () in
    (r, Util.ms_since t0)
  in
  let spawn_ms =
    med (fun () ->
        let t0 = Util.now () in
        ignore (Proc.run ~out:(Filename.concat dir "version.out") xicheck [ "--version" ]);
        Util.ms_since t0)
  in
  let s = Fixture.schema () in
  let image = Filename.concat dir "layers.xis" in
  Util.remove_quietly image;
  (* each repeat builds a fresh repository; the first also writes the
     snapshot image the load timing reads back *)
  let steps k =
    let repo = R.create s in
    let (), load =
      timed_ms (fun () ->
          R.load_fused repo fx.Fixture.ds.Xic_workload.Generator.pub_xml;
          R.load_fused repo fx.Fixture.ds.Xic_workload.Generator.rev_xml)
    in
    let facts = Xic_datalog.Store.total_tuples (R.store repo) in
    let (), add = timed_ms (fun () -> List.iter (R.add_constraint repo) (Fixture.constraints s)) in
    let (), register = timed_ms (fun () -> R.register_pattern repo (Fixture.pattern s)) in
    let _, full = timed_ms (fun () -> R.check_full repo) in
    R.set_incremental repo true;
    let _, init = timed_ms (fun () -> R.check_incremental repo) in
    if k = 0 then ignore (R.checkpoint repo image);
    [| load; float_of_int facts; add; register; full; init |]
  in
  let runs = List.init reps steps in
  let col i = Util.median (List.map (fun a -> a.(i)) runs) in
  let load_ms = med (fun () -> snd (timed_ms (fun () -> R.load_snapshot (R.create s) image))) in
  [ ("process.spawn_ms", spawn_ms);
    ("ingest.load_fused_ms", col 0);
    ("ingest.facts", col 1);
    ("constr.add_ms", col 2);
    ("simplify.register_pattern_ms", col 3);
    ("xquery.full_check_ms", col 4);
    ("incr.initialize_ms", col 5);
    ("snapshot.load_ms", load_ms);
    ("snapshot.image_bytes", float_of_int (Unix.stat image).Unix.st_size) ]

(* Median round trip of a quiescent live check through a real socket. *)
let socket_rtt_us ~xicheck fx dir =
  let srv =
    Proc.start ~xicheck ~sock:(Filename.concat dir "l.sock")
      (Workloads.serve_args fx ~journal:(journal_path dir "socket.j"))
  in
  Fun.protect ~finally:(fun () -> ignore (Proc.shutdown srv)) @@ fun () ->
  ignore (Proc.call srv (Proc.op "check" []));
  Util.median
    (List.init 300 (fun _ ->
         let t0 = Util.now () in
         ignore (Proc.call srv (Proc.op "check" []));
         Util.us_since t0))

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* In-handle layers of each op class: what [Server.handle] covers
   (decode and encode happen outside it). *)
let handle_layers = function
  | "guard" ->
    [ "xupdate.parse"; "pattern.match"; "xquery.simplified_check"; "journal.intent";
      "xupdate.apply"; "journal.commit_fsync" ]
  | "check" -> [ "mirror.flush_maintain"; "incr.violated" ]
  | "pinned" -> [ "datalog.pinned_check"; "datalog.as_of_check" ]
  | _ -> []

type output = {
  metrics : (string * float) list;
  table : string;  (* per-layer table, reconciliation and overhead *)
  trace_json : string;
  fig1 : string;  (* the Fig. 1 readout *)
  requests : int;  (* requests replayed, over every pass *)
  dataset_bytes : int;
}

let run ~xicheck ~workload ~seed ~smoke ~dir =
  let bytes =
    match workload with
    | "read_256kb" -> if smoke then 32_000 else 256_000
    | _ -> if smoke then 32_000 else 1_000_000
  in
  let fx = Fixture.create ~seed ~bytes ~dir in
  let seq = sequence ~workload ~smoke fx in
  let cold = cold_phase ~xicheck ~smoke fx dir in
  Gc.compact ();
  spans := [];
  let h_step, h_finish = handle_stepper fx dir in
  let u_step, u_finish = layer_stepper fx dir ~traced:false in
  let t_step, t_finish = layer_stepper fx dir ~traced:true in
  let steppers = [| h_step; u_step; t_step |] in
  List.iteri (fun i r -> for k = 0 to 2 do steppers.((i + k) mod 3) i r done) seq;
  let recorded = !spans in
  spans := [];
  let hp = h_finish () and plain = u_finish () and traced = t_finish () in
  let handles = hp.ops and quiet_handle_us = hp.quiet_us in
  Gc.compact ();
  let xq_shadow, dl_shadow = shadow_pass fx seq in
  let rtt = socket_rtt_us ~xicheck fx dir in
  (* per-layer aggregates over the traced pass *)
  let selfs = self_times recorded in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, w = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. self, w +. s.words))
    selfs;
  let mean_us name =
    match Hashtbl.find_opt by_name name with
    | Some (n, tot, _) when n > 0 -> tot /. float_of_int n
    | _ -> 0.0
  in
  let handle_mean cls f =
    match Workloads.Samples.get handles cls with
    | [] -> 0.0
    | l -> Util.mean (List.map f l)
  in
  (* in-handle layer time per request of an op class; each of those
     layers runs only under requests of that class *)
  let layer_sum_per_req cls =
    let reqs = Hashtbl.create 64 and total = ref 0.0 in
    List.iter
      (fun (s, self) ->
        if s.name = "request." ^ cls then Hashtbl.replace reqs s.req ()
        else if List.mem s.name (handle_layers cls) then total := !total +. self)
      selfs;
    let n = Hashtbl.length reqs in
    if n = 0 then 0.0 else !total /. float_of_int n
  in
  let guards = float_of_int (max 1 traced.guards) in
  let d0, d1 = traced.delta in
  let per_guard f = float_of_int (f d1 - f d0) /. guards in
  let unattributed cls = handle_mean cls fst -. layer_sum_per_req cls in
  let metrics =
    [ ("protocol.decode_us", mean_us "protocol.decode");
      ("protocol.encode_us", mean_us "protocol.encode");
      ("protocol.frame_bytes", float_of_int traced.frame_bytes /. float_of_int (List.length seq));
      ("server.handle_us.check", handle_mean "check" fst);
      ("server.handle_us.guard", handle_mean "guard" fst);
      ("server.handle_us.pinned", handle_mean "pinned" fst);
      ("server.socket_us", rtt -. quiet_handle_us);
      ("server.unattributed_us.check", unattributed "check");
      ("server.unattributed_us.guard", unattributed "guard");
      ("server.alloc_words.check", handle_mean "check" snd);
      ("server.alloc_words.guard", handle_mean "guard" snd);
      ("pattern.match_us", mean_us "pattern.match");
      ("xquery.simplified_check_us", mean_us "xquery.simplified_check");
      ("index.hits_per_guard", float_of_int traced.index_hits /. guards);
      ("index.fallbacks_per_guard", float_of_int traced.index_fallbacks /. guards);
      ("plan.misses_per_guard", float_of_int traced.plan_misses /. guards);
      ("datalog.simplified_check_us", dl_shadow);
      ("xupdate.parse_us", mean_us "xupdate.parse");
      ("xupdate.apply_us", mean_us "xupdate.apply");
      ("journal.intent_us", mean_us "journal.intent");
      ("journal.commit_fsync_us", mean_us "journal.commit_fsync");
      ("journal.bytes_per_applied_guard",
       float_of_int traced.journal_bytes /. float_of_int (max 1 traced.applied));
      ("journal.records_per_guard", float_of_int traced.journal_records /. guards);
      ("mirror.flush_maintain_us", mean_us "mirror.flush_maintain");
      ("delta.facts_per_guard",
       per_guard (fun d -> d.R.delta_facts_added + d.R.delta_facts_removed));
      ("incr.evals_per_guard", per_guard (fun d -> d.R.incr_evals));
      ("incr.reverifies_per_guard", per_guard (fun d -> d.R.incr_reverifies));
      ("incr.recomputes_per_guard", per_guard (fun d -> d.R.incr_recomputes));
      ("incr.violated_us", mean_us "incr.violated");
      ("store.pin_us", mean_us "store.pin");
      ("datalog.pinned_check_ms", mean_us "datalog.pinned_check" /. 1000.0);
      ("datalog.as_of_check_ms", mean_us "datalog.as_of_check" /. 1000.0);
      ("store.retained_bytes", float_of_int traced.retained_bytes) ]
    @ cold
  in
  (* the per-op table *)
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "# per-layer table (%s, seed %d, traced pass, %d requests)\n" workload seed (List.length seq);
  pr "%-28s %8s %14s %12s %14s\n" "layer" "calls" "self_total_us" "self_mean_us" "gc_words_mean";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
  |> List.iter (fun (name, (n, tot, w)) ->
         pr "%-28s %8d %14.1f %12.2f %14.1f\n" name n tot
           (tot /. float_of_int n) (w /. float_of_int n));
  pr "# reconciliation with in-process Server.handle (mean us per request)\n";
  pr "%-8s %12s %12s %16s %8s\n" "op" "handle_us" "layers_us" "unattributed_us" "share";
  List.iter
    (fun cls ->
      let h = handle_mean cls fst and l = layer_sum_per_req cls in
      if h > 0.0 then
        pr "%-8s %12.2f %12.2f %16.2f %7.1f%%\n" cls h l (h -. l) ((h -. l) /. h *. 100.0))
    [ "guard"; "check"; "pinned" ];
  pr "# tracing overhead: traced pass %.1f ms vs untraced pass %.1f ms (%+.1f%%)\n"
    traced.total_ms plain.total_ms
    ((traced.total_ms -. plain.total_ms) /. plain.total_ms *. 100.0);
  pr "# shadow pass on identical states: xquery %.1f us, datalog %.1f us\n" xq_shadow dl_shadow;
  let fig1 =
    let rows = fig1_probe ~seed ~smoke ~dir in
    let b = Buffer.create 512 in
    Printf.bprintf b "# Fig. 1 readout: simplified check of the guard mix, mean us per guard\n";
    Printf.bprintf b "%-12s %14s %14s %10s\n" "bytes" "xquery_us" "datalog_us" "ratio";
    List.iter
      (fun (bytes, (xq, dl)) ->
        Printf.bprintf b "%-12d %14.1f %14.2f %9.0fx\n" bytes xq dl (xq /. dl))
      rows;
    (match rows with
     | [ (_, (xq_small, dl_small)); (_, (xq_big, dl_big)) ] ->
       Printf.bprintf b "# growth small -> large: xquery %.2fx, datalog %.2fx\n"
         (xq_big /. xq_small) (dl_big /. dl_small)
     | _ -> ());
    Buffer.contents b
  in
  { metrics; table = Buffer.contents b; trace_json = chrome_json (List.rev recorded); fig1;
    requests = 3 * List.length seq; dataset_bytes = Fixture.dataset_bytes fx }
