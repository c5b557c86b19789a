open Xic_xml
module T = Xic_datalog.Term
module Delta = Xic_datalog.Delta
module Incr = Xic_datalog.Incr
module Mirror = Xic_relmap.Mirror
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module Snap = Xic_snapshot.Snapshot
module Obs = Xic_obs.Obs

(* Crash windows of the guarded-update and checkpoint pipelines,
   declared so the torture harness can enumerate them. *)
let () =
  List.iter FP.declare
    [ "before_apply"; "after_apply"; "before_commit"; "checkpoint_truncate" ]

module Log = struct
  let warn f = Xic_obs.Log.warn ~src:"xic.repository" f
end

(* Registry cells for the pipeline counters.  The plan-cache counters
   are the primary store now — the legacy [plan_stats] accessor is a
   shim over them — and [plan_compile_requests] is bumped on every
   cache consultation, so [hits + misses = requests] holds by
   construction (the differential oracle asserts it). *)
let c_checks_full = Obs.Metrics.counter "checks_full"
let c_checks_optimized = Obs.Metrics.counter "checks_optimized"
let c_plan_hits = Obs.Metrics.counter "plan_cache_hits"
let c_plan_misses = Obs.Metrics.counter "plan_cache_misses"
let c_plan_requests = Obs.Metrics.counter "plan_compile_requests"
let c_rollbacks = Obs.Metrics.counter "rollbacks"
let c_checks_incremental = Obs.Metrics.counter "checks_incremental"
let c_delta_facts_added = Obs.Metrics.counter "delta_facts_added"
let c_delta_facts_removed = Obs.Metrics.counter "delta_facts_removed"
let c_delta_flushes = Obs.Metrics.counter "delta_flushes"
let c_ingest_fused = Obs.Metrics.counter "ingest_fused_docs"
let c_ingest_legacy = Obs.Metrics.counter "ingest_legacy_docs"
let c_ingest_bytes = Obs.Metrics.counter "ingest_bytes"
let c_ingest_facts = Obs.Metrics.counter "ingest_facts"
let h_check_full = Obs.Metrics.histogram "check_full_ms"
let h_check_optimized = Obs.Metrics.histogram "check_optimized_ms"

(* Run one constraint check under a slow-loggable span and, when
   detailed metrics are on, a latency-histogram observation.  With
   tracing and detailed metrics both off this is exactly [f ()]. *)
let timed_check name hist f =
  let f =
    if !Obs.Metrics.detailed then (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let v = f () in
      Obs.Metrics.observe_ns hist
        (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0));
      v)
    else f
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.with_span ~slow:true ("check:" ^ name) f
  else f ()

type optimized_check = {
  constraint_name : string;
  simplified : T.denial list;
  simplified_xquery : Xic_xquery.Ast.expr;
  (* the check's closure plan, compiled on first use and keyed by the
     enclosing (pattern, constraint) pair by construction *)
  mutable simplified_plan : Xic_xquery.Eval.compiled option;
}

type plan_stats = {
  plan_hits : int;    (* checks served by a cached plan *)
  plan_misses : int;  (* compilations *)
}

(* Per-repository delta/incremental counters (the registry counters are
   global across repositories; tests build many). *)
type delta_counters = {
  mutable flushes : int;
  mutable facts_added : int;
  mutable facts_removed : int;
  (* sequential composition of every flushed delta since the store was
     installed: the net drift of the live store, bounded by its size *)
  net : Delta.t;
}

(* One retained generation: a frozen store handle shared by every pin
   of that generation, refcounted so the table can tell in-flight
   readers from history kept purely for time-travel checks. *)
type retained = {
  r_store : Xic_datalog.Store.t;  (* frozen *)
  r_mut : int;  (* mutation stamp at freeze time, for freshness checks *)
  mutable r_refs : int;
}

type t = {
  schema : Schema.t;
  doc : Doc.t;
  mutable constraints : Constr.t list;
  mutable compiled : (Pattern.t * optimized_check list) list;
  mutable store : Xic_datalog.Store.t option;
  (* event-driven store maintenance; attached iff [store] is [Some] *)
  mutable mirror : Xic_relmap.Mirror.t option;
  (* [true] = verdicts come from the materialized denial views *)
  mutable incremental : bool;
  mutable incr : Xic_datalog.Incr.t option;
  (* flushed into the base store but not yet absorbed by [incr]: the
     guard's pre-check flushes the base store only, and the views catch
     up at the next [store] demand *)
  view_pending : Delta.t;
  deltas : delta_counters;
  mutable eval_budget : int option;
  mutable use_index : bool;
  mutable index : Index.t option;
  (* full-check plans, keyed by constraint name *)
  full_plans : (string, Xic_xquery.Eval.compiled) Hashtbl.t;
  mutable parallelism : int;
  (* committed-transaction counter; {!pin} stamps it into snapshots so
     readers can tell which state they are looking at *)
  mutable generation : int;
  (* raw mutation counter (every applied or rolled-back statement, every
     load): a retained entry is reused by {!pin} only when its stamp
     still matches — the generation number alone cannot tell a clean
     committed state from mid-flight document surgery *)
  mutable mutations : int;
  (* generation → frozen handle; entries with [r_refs = 0] are history
     kept for time-travel checks, bounded by [retain_keep] and dropped
     wholesale at checkpoints *)
  retained : (int, retained) Hashtbl.t;
  retain_keep : int;
}

exception Repository_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Repository_error s)) fmt

let create schema =
  { schema; doc = Doc.create (); constraints = []; compiled = []; store = None;
    mirror = None; incremental = false; incr = None; view_pending = Delta.create ();
    deltas =
      { flushes = 0; facts_added = 0; facts_removed = 0; net = Delta.create () };
    eval_budget = None; use_index = true; index = None;
    full_plans = Hashtbl.create 16; parallelism = 1; generation = 0;
    mutations = 0; retained = Hashtbl.create 8; retain_keep = 8 }

let generation t = t.generation

let set_eval_budget t b = t.eval_budget <- b
let eval_budget t = t.eval_budget

let set_parallelism t jobs =
  if jobs < 1 then fail "parallelism must be at least 1";
  t.parallelism <- jobs

let parallelism t = t.parallelism

let plan_stats (_ : t) =
  { plan_hits = Obs.Metrics.value c_plan_hits;
    plan_misses = Obs.Metrics.value c_plan_misses }

let cached_plans t =
  Hashtbl.length t.full_plans
  + List.fold_left
      (fun acc (_, checks) ->
        acc
        + List.length
            (List.filter (fun ch -> Option.is_some ch.simplified_plan) checks))
      0 t.compiled

let plan_stats_line t =
  Printf.sprintf "plans: %d hits, %d misses, %d cached"
    (Obs.Metrics.value c_plan_hits)
    (Obs.Metrics.value c_plan_misses)
    (cached_plans t)

let schema t = t.schema
let doc t = t.doc

(* The index is created on demand (and even then its tables stay empty
   until some evaluation performs a lookup). *)
let index t =
  if not t.use_index then None
  else begin
    match t.index with
    | Some _ as i -> i
    | None ->
      let i = Index.create t.doc in
      t.index <- Some i;
      Some i
  end

let set_use_index t enabled =
  if not enabled then begin
    (match t.index with Some i -> Index.detach i | None -> ());
    t.index <- None
  end;
  t.use_index <- enabled

let use_index t = t.use_index
let index_stats t = Option.map Index.stats t.index

let index_stats_line t =
  if not t.use_index then "index: disabled"
  else
    match t.index with
    | None -> "index: idle"
    | Some i -> Index.stats_line i

(* Index stats and the cached-plan count live outside the registry (the
   index updates them lock-free on its hot path, the plan tables are
   per-repository); they enter the registry as gauges synced at snapshot
   time, which makes [metrics] agree with the legacy [index_stats] /
   [plan_stats_line] shims by construction — both read the same cells. *)
let g_index_hits = Obs.Metrics.gauge "index_hits"
let g_index_misses = Obs.Metrics.gauge "index_misses"
let g_index_fallbacks = Obs.Metrics.gauge "index_fallbacks"
let g_index_events = Obs.Metrics.gauge "index_events"
let g_plan_cached = Obs.Metrics.gauge "plan_cached"

let sync_gauges t =
  (match index_stats t with
   | Some (s : Index.stats) ->
     Obs.Metrics.set g_index_hits s.Index.hits;
     Obs.Metrics.set g_index_misses s.Index.misses;
     Obs.Metrics.set g_index_fallbacks s.Index.fallbacks;
     Obs.Metrics.set g_index_events s.Index.events
   | None -> ());
  Obs.Metrics.set g_plan_cached (cached_plans t)

let metrics t =
  sync_gauges t;
  Obs.Metrics.snapshot ()

let metrics_json t =
  sync_gauges t;
  Obs.Metrics.to_json ()

let metrics_prometheus t =
  sync_gauges t;
  Obs.Metrics.to_prometheus ()

(* Drop the materialized views, with any delta they had yet to absorb;
   the next incremental check re-initializes them from the store. *)
let drop_views t =
  t.incr <- None;
  Delta.clear t.view_pending

let invalidate_store t =
  (match t.mirror with Some m -> Mirror.detach m | None -> ());
  t.mirror <- None;
  t.store <- None;
  drop_views t;
  (* generation numbers no longer name states of the store being
     dropped; outstanding pins keep their handles, the table does not *)
  Hashtbl.reset t.retained;
  t.mutations <- t.mutations + 1

(* Install a store known to be exact for the current documents and
   attach the event-driven mirror that keeps it that way across updates,
   undo, savepoint rollback and recovery replay. *)
let install_store t s =
  (match t.mirror with Some m -> Mirror.detach m | None -> ());
  t.store <- Some s;
  Delta.clear t.deltas.net;
  Hashtbl.reset t.retained;
  t.mutations <- t.mutations + 1;
  t.mirror <- Some (Mirror.create (Schema.mapping t.schema) t.doc s)

(* Reconcile pending mutation marks into the base store.  With live
   materialized views, the net delta is composed into [view_pending]
   rather than applied: the views absorb it at the next {!sync_store}. *)
let flush_base t =
  match t.mirror with
  | Some m when Mirror.has_dirty m ->
    Obs.Trace.with_span "delta_flush" (fun () ->
        let d = Delta.create () in
        Mirror.flush m ~into:d;
        t.deltas.flushes <- t.deltas.flushes + 1;
        t.deltas.facts_added <- t.deltas.facts_added + Delta.gross_added d;
        t.deltas.facts_removed <- t.deltas.facts_removed + Delta.gross_removed d;
        Obs.Metrics.incr c_delta_flushes;
        Obs.Metrics.add c_delta_facts_added (Delta.gross_added d);
        Obs.Metrics.add c_delta_facts_removed (Delta.gross_removed d);
        Delta.compose ~into:t.deltas.net d;
        if t.incr <> None then Delta.compose ~into:t.view_pending d)
  | _ -> ()

(* [flush_base], then feed everything the views have yet to see to them
   as one composed delta.  A view that cannot be maintained (unsafe
   denial, exhausted budget) is dropped; the next incremental check
   re-initializes from scratch. *)
let sync_store t =
  match t.store with
  | None -> ()
  | Some s ->
    flush_base t;
    (match t.incr with
     | Some inc when not (Delta.is_empty t.view_pending) ->
       Obs.Trace.with_span "view_maintain" (fun () ->
           try Incr.apply_delta inc s t.view_pending
           with Xic_datalog.Eval.Unsafe _ | Xic_datalog.Eval.Budget_exceeded ->
             t.incr <- None)
     | _ -> ());
    Delta.clear t.view_pending

let add_document_root ?(validate = true) t root =
  if validate then begin
    match Schema.validate_root t.schema t.doc root with
    | Ok () -> ()
    | Error m -> fail "document rejected: %s" m
  end;
  Doc.add_root t.doc root;
  invalidate_store t

let load_document ?validate t source =
  let nodes =
    Obs.Trace.with_span "parse" (fun () ->
        try Xml_parser.parse_fragment t.doc source
        with Xml_parser.Parse_error { line; col; msg } ->
          fail "XML parse error at %d:%d: %s" line col msg)
  in
  match List.filter (Doc.is_element t.doc) nodes with
  | [ root ] ->
    add_document_root ?validate t root;
    Obs.Metrics.incr c_ingest_legacy
  | _ -> fail "expected exactly one root element"

type ingest_stats = {
  fused_docs : int;
  legacy_docs : int;
  fused_bytes : int;
  fused_facts : int;
}

let ingest_stats (_ : t) =
  { fused_docs = Obs.Metrics.value c_ingest_fused;
    legacy_docs = Obs.Metrics.value c_ingest_legacy;
    fused_bytes = Obs.Metrics.value c_ingest_bytes;
    fused_facts = Obs.Metrics.value c_ingest_facts }

(* Fused single-pass load: parse, intern and shred in one streaming scan
   of the source.  The store is fed through a [Shred.sink] while the
   parse runs when it can be kept exact:
   - an existing materialised store gains the new document's facts;
   - a repository with no documents yet gets a fresh store built in-pass;
   - otherwise (documents loaded but the store not yet demanded) the
     store simply stays lazy.
   On any failure — parse error, shredding error, validation reject —
   the store is invalidated: the partially parsed nodes are unreachable
   (the root is only registered on success), so the next [store] demand
   rebuilds an exact mirror from the registered roots. *)
let load_fused ?(validate = true) t source =
  Obs.Trace.with_span "ingest" (fun () ->
      let facts = ref 0 in
      let sink =
        match t.store with
        | Some s ->
          (* the sink keeps the store exact in-pass; silence the mirror
             so the parser's attach events don't mark the whole new
             document dirty (flush any older marks first) *)
          sync_store t;
          (match t.mirror with Some m -> Mirror.set_active m false | None -> ());
          Some (Xic_relmap.Shred.sink ~count:facts (Schema.mapping t.schema) t.doc s)
        | None ->
          if Doc.has_root t.doc then None
          else begin
            let s = Xic_datalog.Store.create () in
            t.store <- Some s;
            Some
              (Xic_relmap.Shred.sink ~count:facts (Schema.mapping t.schema) t.doc s)
          end
      in
      match Xml_parser.parse_document_into ?sink t.doc source with
      | exception Xml_parser.Parse_error { line; col; msg } ->
        invalidate_store t;
        fail "XML parse error at %d:%d: %s" line col msg
      | exception Xic_relmap.Shred.Shred_error m ->
        invalidate_store t;
        fail "shred error during load: %s" m
      | root, _dtd ->
        (if validate then
           match Schema.validate_root t.schema t.doc root with
           | Ok () -> ()
           | Error m ->
             invalidate_store t;
             fail "document rejected: %s" m);
        Doc.add_root t.doc root;
        (* a whole new document's facts arrived outside the delta path:
           rearm the mirror and drop any materialized views (the next
           incremental check re-initializes against the new store) *)
        (match (t.store, t.mirror) with
         | Some _, Some m -> Mirror.set_active m true
         | Some s, None -> install_store t s
         | None, _ -> ());
        drop_views t;
        t.mutations <- t.mutations + 1;
        Obs.Metrics.incr c_ingest_fused;
        Obs.Metrics.add c_ingest_bytes (String.length source);
        Obs.Metrics.add c_ingest_facts !facts)

let compile_checks t (p : Pattern.t) =
  List.map
    (fun (c : Constr.t) ->
      let simplified = Pattern.simplify t.schema p c in
      let simplified_xquery =
        Xic_translate.Translate.denials (Schema.mapping t.schema) simplified
      in
      { constraint_name = c.Constr.name; simplified; simplified_xquery;
        simplified_plan = None })
    t.constraints

let recompile t =
  t.compiled <- List.map (fun (p, _) -> (p, compile_checks t p)) t.compiled

let add_constraint ?(verify = false) t c =
  if List.exists (fun c' -> c'.Constr.name = c.Constr.name) t.constraints then
    fail "duplicate constraint name %s" c.Constr.name;
  if verify && Constr.violated_xquery ?index:(index t) t.doc c then
    fail "the current documents already violate %s" c.Constr.name;
  t.constraints <- t.constraints @ [ c ];
  Hashtbl.reset t.full_plans;
  drop_views t;  (* the view set changed; re-materialize on demand *)
  recompile t

let register_pattern t p =
  if List.exists (fun (p', _) -> p'.Pattern.name = p.Pattern.name) t.compiled then
    fail "duplicate pattern name %s" p.Pattern.name;
  t.compiled <- t.compiled @ [ (p, compile_checks t p) ]

let constraints t = t.constraints
let patterns t = List.map fst t.compiled

let optimized_checks t p =
  match
    List.find_opt (fun (p', _) -> p'.Pattern.name = p.Pattern.name) t.compiled
  with
  | Some (_, checks) -> checks
  | None -> fail "pattern %s is not registered" p.Pattern.name

(* The base store, exact for the current documents; the materialized
   views may lag it (see [view_pending]). *)
let base_store t =
  match t.store with
  | Some s ->
    flush_base t;
    s
  | None ->
    let s = Xic_relmap.Shred.shred ?index:(index t) (Schema.mapping t.schema) t.doc in
    install_store t s;
    s

let store t =
  match t.store with
  | Some s ->
    sync_store t;
    s
  | None -> base_store t

(* Full-check plan of one constraint, served from the cache. *)
let full_plan t (c : Constr.t) =
  Obs.Metrics.incr c_plan_requests;
  match Hashtbl.find_opt t.full_plans c.Constr.name with
  | Some plan ->
    Obs.Metrics.incr c_plan_hits;
    plan
  | None ->
    let plan =
      if Obs.Trace.is_enabled () then
        Obs.Trace.with_span "compile"
          ~attrs:[ ("constraint", c.Constr.name) ]
          (fun () -> Constr.compile c)
      else Constr.compile c
    in
    Hashtbl.replace t.full_plans c.Constr.name plan;
    Obs.Metrics.incr c_plan_misses;
    plan

let check_full t =
  Obs.Trace.with_span "check_full" (fun () ->
  let plans = List.map (fun c -> (c, full_plan t c)) t.constraints in
  let idx = index t in
  let violated (c, plan) =
    Obs.Metrics.incr c_checks_full;
    if
      timed_check c.Constr.name h_check_full (fun () ->
          Constr.violated_compiled ?index:idx t.doc c plan)
    then Some c.Constr.name
    else None
  in
  if t.parallelism <= 1 || t.eval_budget <> None || List.length plans < 2 then
    List.filter_map violated plans
  else begin
    (* Freeze the index into its read-only phase so worker domains never
       race on cache tables, then evaluate the independent denials in
       parallel.  The merge is deterministic: verdicts keep constraint
       registration order, and Pool.map re-raises the earliest failure. *)
    (match idx with Some i -> Index.prepare_shared i | None -> ());
    Fun.protect
      ~finally:(fun () -> match idx with Some i -> Index.unshare i | None -> ())
      (fun () ->
        Pool.map ~jobs:t.parallelism violated plans
        |> List.filter_map (fun v -> v))
  end)

let check_full_datalog t =
  let s = store t in
  List.filter_map
    (fun c -> if Constr.violated_datalog s c then Some c.Constr.name else None)
    t.constraints

(* ------------------------------------------------------------------ *)
(* Pinned snapshots (reader isolation)                                 *)
(* ------------------------------------------------------------------ *)

(* A pin is a frozen generation handle of the materialized store,
   stamped with the generation it captured.  Freezing is an
   O(#relations) pointer capture ([Store.freeze]): the handle shares the
   per-relation insertion logs with the live writer, which only ever
   conses onto its own head, so checks against a pin are unaffected by
   later commits, checkpoints or journal truncation — at no copy cost
   and O(delta) retained memory.  Verdicts over the relational mirror
   are equivalent to the XQuery check (oracle-proven), so a pinned check
   is a real check, not an approximation.

   Handles live in a refcounted retained-generation table: pins of the
   same generation share one handle (amortizing its lazy index builds
   across readers), {!unpin} decrements, and zero-ref entries linger as
   bounded history for {!pin_as_of} time-travel checks until
   [retain_keep] evicts the oldest or a {!checkpoint} drops them all. *)
type pin = {
  pin_generation : int;
  pin_store : Xic_datalog.Store.t;
}

(* Evict zero-ref history beyond the [retain_keep] most recent
   generations (referenced entries are never evicted — a pin record
   holds its handle directly, so eviction can never dangle a reader). *)
let prune_retained ?(keep_history = true) t =
  let keep = if keep_history then t.retain_keep else 0 in
  let zero =
    Hashtbl.fold
      (fun g r acc -> if r.r_refs <= 0 then g :: acc else acc)
      t.retained []
    |> List.sort compare
  in
  let drop = List.length zero - keep in
  if drop > 0 then
    List.iteri (fun i g -> if i < drop then Hashtbl.remove t.retained g) zero

let pin t =
  let g = t.generation in
  match Hashtbl.find_opt t.retained g with
  | Some r when r.r_mut = t.mutations ->
    r.r_refs <- r.r_refs + 1;
    { pin_generation = g; pin_store = r.r_store }
  | _ ->
    let s = store t in  (* flush pending marks so the freeze is exact *)
    let f = Xic_datalog.Store.freeze s in
    Hashtbl.replace t.retained g
      { r_store = f; r_mut = t.mutations; r_refs = 1 };
    prune_retained t;
    { pin_generation = g; pin_store = f }

let unpin t (p : pin) =
  (match Hashtbl.find_opt t.retained p.pin_generation with
   | Some r when r.r_store == p.pin_store && r.r_refs > 0 ->
     r.r_refs <- r.r_refs - 1
   | _ -> ());  (* already evicted (reset, checkpoint): nothing to release *)
  prune_retained t

let pin_as_of t g =
  match Hashtbl.find_opt t.retained g with
  | Some r ->
    r.r_refs <- r.r_refs + 1;
    Some { pin_generation = g; pin_store = r.r_store }
  | None -> None

let retained_generations t =
  Hashtbl.fold (fun g r acc -> (g, r.r_refs) :: acc) t.retained []
  |> List.sort compare

let retained_bytes t =
  match t.store with
  | None -> 0
  | Some live ->
    sync_store t;
    Hashtbl.fold
      (fun _ r acc ->
        acc + Xic_datalog.Store.unshared_bytes ~live r.r_store)
      t.retained 0

let pin_generation p = p.pin_generation
let pin_store p = p.pin_store

let check_pinned t (p : pin) =
  List.filter_map
    (fun (c : Constr.t) ->
      if Constr.violated_datalog p.pin_store c then Some c.Constr.name
      else None)
    t.constraints

let check_as_of t g =
  match pin_as_of t g with
  | None -> None
  | Some p ->
    let v = check_pinned t p in
    unpin t p;
    Some v

(* ------------------------------------------------------------------ *)
(* Incremental (delta-driven) checking                                 *)
(* ------------------------------------------------------------------ *)

let set_incremental t enabled =
  if not enabled then drop_views t;
  t.incremental <- enabled

let incremental t = t.incremental

let check_incremental t =
  Obs.Trace.with_span "check_incremental" @@ fun () ->
  let s = store t in  (* flushes the mirror and maintains any live views *)
  let inc =
    match t.incr with
    | Some i -> i
    | None ->
      let i =
        Incr.create
          (List.map (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
             t.constraints)
      in
      Incr.initialize i s;
      t.incr <- Some i;
      i
  in
  Obs.Metrics.incr c_checks_incremental;
  Incr.violated inc

let incr_view t = Option.map Incr.view t.incr

(* Post-state verdict of the guarded-update and recovery paths: the
   materialized denial views when incremental checking is on (falling
   back to the full check if a view cannot be built or maintained), the
   full XQuery check otherwise. *)
let post_check t =
  if t.incremental then (
    try check_incremental t
    with Xic_datalog.Eval.Unsafe _ | Xic_datalog.Eval.Budget_exceeded ->
      drop_views t;
      check_full t)
  else check_full t

type delta_stats = {
  delta_flushes : int;
  delta_facts_added : int;
  delta_facts_removed : int;
  delta_net_added : int;
  delta_net_removed : int;
  incr_entries : int;
  incr_evals : int;
  incr_reverifies : int;
  incr_recomputes : int;
  incr_skipped : int;
  incr_view_rows : int;
}

let delta_stats t =
  let entries, evals, reverifies, recomputes, skipped, rows =
    match t.incr with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some i ->
      let s = Incr.stats i in
      ( Incr.entry_count i, s.Incr.evals, s.Incr.reverifies, s.Incr.recomputes,
        s.Incr.skipped, Xic_datalog.Store.total_tuples (Incr.view i) )
  in
  let net_count l = List.fold_left (fun acc (_, _, n) -> acc + n) 0 l in
  { delta_flushes = t.deltas.flushes;
    delta_facts_added = t.deltas.facts_added;
    delta_facts_removed = t.deltas.facts_removed;
    delta_net_added = net_count (Delta.added t.deltas.net);
    delta_net_removed = net_count (Delta.removed t.deltas.net);
    incr_entries = entries;
    incr_evals = evals;
    incr_reverifies = reverifies;
    incr_recomputes = recomputes;
    incr_skipped = skipped;
    incr_view_rows = rows }

let delta_stats_line t =
  let d = delta_stats t in
  if t.incr = None && d.delta_flushes = 0 then "delta: idle"
  else
    Printf.sprintf
      "delta: %d flushes, +%d/-%d facts; views: %d denials, %d rows, \
       evals=%d reverifies=%d recomputes=%d skipped=%d"
      d.delta_flushes d.delta_facts_added d.delta_facts_removed d.incr_entries
      d.incr_view_rows d.incr_evals d.incr_reverifies d.incr_recomputes
      d.incr_skipped

let match_update t (u : XU.t) =
  match u with
  | [ m ] ->
    List.find_map
      (fun (p, _) ->
        match Pattern.match_modification t.schema t.doc p m with
        | Some v -> Some (p, v)
        | None -> None)
      t.compiled
  | _ -> None

type degradation = { failed_check : string; reason : string }

(* Each check evaluation gets its own budget, so one pathological check
   cannot starve the others. *)
let budgeted t f =
  match t.eval_budget with
  | None -> f ()
  | Some steps -> Xic_xquery.Eval.with_budget ~steps f

let try_check_optimized t p valuation =
  let checks = optimized_checks t p in
  let params = Pattern.xquery_params valuation in
  let rec go violated degs = function
    | [] -> (List.rev violated, List.rev degs)
    | ch :: rest ->
      let plan =
        Obs.Metrics.incr c_plan_requests;
        match ch.simplified_plan with
        | Some plan ->
          Obs.Metrics.incr c_plan_hits;
          plan
        | None ->
          let plan =
            if Obs.Trace.is_enabled () then
              Obs.Trace.with_span "compile"
                ~attrs:[ ("constraint", ch.constraint_name) ]
                (fun () -> Xic_xquery.Eval.compile ch.simplified_xquery)
            else Xic_xquery.Eval.compile ch.simplified_xquery
          in
          ch.simplified_plan <- Some plan;
          Obs.Metrics.incr c_plan_misses;
          plan
      in
      Obs.Metrics.incr c_checks_optimized;
      (match
         timed_check ch.constraint_name h_check_optimized (fun () ->
             budgeted t (fun () ->
                 Xic_xquery.Eval.run_bool t.doc ~params ?index:(index t) plan))
       with
       | true -> go (ch.constraint_name :: violated) degs rest
       | false -> go violated degs rest
       | exception Xic_xquery.Eval.Eval_error m ->
         go violated ({ failed_check = ch.constraint_name; reason = m } :: degs) rest
       | exception Xic_xpath.Eval.Budget_exceeded ->
         go violated
           ({ failed_check = ch.constraint_name; reason = "step budget exhausted" }
            :: degs)
           rest)
  in
  go [] [] checks

let check_optimized t p valuation =
  match try_check_optimized t p valuation with
  | violated, [] -> violated
  | _, d :: _ -> fail "optimized check %s failed: %s" d.failed_check d.reason

let budgeted_datalog t f =
  match t.eval_budget with
  | None -> f ()
  | Some steps -> Xic_datalog.Eval.with_budget ~steps f

(* The guard's pre-check: each constraint's simplified denials,
   instantiated with the update's parameters, evaluated over the base
   store.  Only the base store is flushed — view maintenance stays with
   the next read, so a legal guard never pays it.  An unsafe denial or
   an exhausted budget is a degradation, as in [try_check_optimized]. *)
let try_check_optimized_datalog t p valuation =
  let checks = optimized_checks t p in
  let params = Pattern.datalog_params p valuation in
  let s = base_store t in
  let rec go violated degs = function
    | [] -> (List.rev violated, List.rev degs)
    | ch :: rest ->
      Obs.Metrics.incr c_checks_optimized;
      let degraded reason =
        go violated ({ failed_check = ch.constraint_name; reason } :: degs) rest
      in
      (match
         timed_check ch.constraint_name h_check_optimized (fun () ->
             budgeted_datalog t (fun () ->
                 List.exists
                   (fun d -> Xic_datalog.Eval.violated ~params s d)
                   ch.simplified))
       with
       | true -> go (ch.constraint_name :: violated) degs rest
       | false -> go violated degs rest
       | exception Xic_datalog.Eval.Unsafe m -> degraded m
       | exception Xic_datalog.Eval.Budget_exceeded ->
         degraded "step budget exhausted")
  in
  go [] [] checks

let check_optimized_datalog t p valuation =
  match try_check_optimized_datalog t p valuation with
  | violated, [] -> violated
  | _, d :: _ -> fail "optimized check %s failed: %s" d.failed_check d.reason

type witness = {
  witness_constraint : string;
  denial : T.denial;
  bindings : (string * T.const) list;
  nodes : (string * Doc.node_id * string) list;
}

(* Variables standing in id or parent positions of the denial's atoms
   denote document nodes. *)
let node_vars_of (d : T.denial) =
  List.concat_map
    (function
      | T.Rel a | T.Not a ->
        (match a.T.args with
         | id :: _ :: par :: _ ->
           List.concat_map T.term_vars [ id; par ]
         | _ -> [])
      | _ -> [])
    d.T.body
  |> List.sort_uniq compare

let explain t =
  let s = store t in
  List.concat_map
    (fun (c : Constr.t) ->
      List.filter_map
        (fun d ->
          match Xic_datalog.Eval.violation s d with
          | None -> None
          | Some bindings ->
            let node_vars = node_vars_of d in
            let nodes =
              List.filter_map
                (fun (v, const) ->
                  match const with
                  | T.Int id
                    when List.mem v node_vars && Doc.live t.doc id ->
                    Some (v, id, Xic_relmap.Shred.path_to_node t.doc id)
                  | _ -> None)
                bindings
            in
            Some { witness_constraint = c.Constr.name; denial = d; bindings; nodes })
        c.Constr.datalog)
    t.constraints

let witness_to_string w =
  (* internal (underscore-prefixed) variables are noise for humans *)
  let named (v, _) = String.length v > 0 && v.[0] <> '_' in
  let shown = List.filter named w.bindings in
  let nodes = List.filter (fun (v, _, _) -> named (v, ())) w.nodes in
  let nodes = if nodes = [] then w.nodes else nodes in
  Printf.sprintf "%s is violated:\n  %s%s%s" w.witness_constraint
    (T.denial_str w.denial)
    (match shown with
     | [] -> ""
     | bs ->
       "\n  with "
       ^ String.concat ", " (List.map (fun (v, c) -> v ^ " = " ^ T.const_str c) bs))
    (match nodes with
     | [] -> ""
     | ns ->
       "\n  at "
       ^ String.concat ", " (List.map (fun (v, _, p) -> v ^ " -> " ^ p) ns))

type outcome =
  | Applied of [ `Optimized | `Runtime_simplified | `Full_check ]
  | Rejected_early of string
  | Rolled_back of string

(* The relational store is maintained by the event-driven mirror: every
   mutation (insertions, removals, attribute writes, undo, savepoint
   rollback, recovery replay) marks the touched nodes and the next
   [store] demand reconciles them — no re-shred, ever. *)
let apply_unchecked t u =
  t.mutations <- t.mutations + 1;
  Obs.Trace.with_span "apply" (fun () -> XU.apply ?index:(index t) t.doc u)

let rollback t undo =
  t.mutations <- t.mutations + 1;
  Obs.Metrics.incr c_rollbacks;
  Obs.Trace.with_span "rollback" (fun () -> XU.rollback t.doc undo)

(* Derive a one-off pattern from the concrete statement, simplify on the
   spot and pre-check; any failure along the way reverts to the
   execute–check–compensate strategy.  Evaluation failures and exhausted
   budgets are reported as degradations. *)
let runtime_simplified t (m : XU.modification) =
  Obs.Trace.with_span "runtime_simplified" @@ fun () ->
  match Pattern.of_modification t.schema ~name:"<runtime>" m with
  | exception Pattern.Pattern_error _ -> (None, [])
  | p ->
    (match Pattern.match_modification t.schema t.doc p m with
     | None -> (None, [])
     | Some valuation ->
       let params = Pattern.xquery_params valuation in
       let degraded name reason =
         (None, [ { failed_check = name; reason } ])
       in
       let rec check = function
         | [] -> (Some `Consistent, [])
         | (c : Constr.t) :: rest ->
           (match Pattern.simplify t.schema p c with
            | exception Xic_simplify.After.Unsupported _ -> (None, [])
            | simplified ->
              (match
                 Xic_translate.Translate.denials (Schema.mapping t.schema)
                   simplified
               with
               | exception Xic_translate.Translate.Untranslatable _ -> (None, [])
               | q ->
                 (match
                    budgeted t (fun () ->
                        Xic_xquery.Eval.eval_bool t.doc ~params ?index:(index t) q)
                  with
                  | exception Xic_xquery.Eval.Eval_error msg ->
                    degraded c.Constr.name msg
                  | exception Xic_xpath.Eval.Budget_exceeded ->
                    degraded c.Constr.name "step budget exhausted"
                  | true -> (Some (`Violated c.Constr.name), [])
                  | false -> check rest)))
       in
       check t.constraints)

(* ------------------------------------------------------------------ *)
(* Journaled transactions                                              *)
(* ------------------------------------------------------------------ *)

type report = { outcome : outcome; degradations : degradation list }

type txn = {
  txn_repo : t;
  txn_journal : J.t option;
  txn_id : int;
  mutable txn_undos : XU.undo list;  (* most recent statement first *)
  mutable txn_seq : int;             (* statements currently applied *)
  mutable txn_journaled : bool;      (* any record written for this txn *)
  mutable txn_open : bool;
  txn_group_commit : bool;
      (* group commit: intent/truncate records ride on the commit (or
         abort) record's fsync instead of syncing individually — safe
         because a transaction without a durable closing record is
         discarded by recovery whether or not its intents hit disk *)
}

type savepoint = int

let begin_txn ?(group_commit = false) ?journal t =
  {
    txn_repo = t;
    txn_journal = journal;
    txn_id = (match journal with Some j -> J.next_txn j | None -> 0);
    txn_undos = [];
    txn_seq = 0;
    txn_journaled = false;
    txn_open = true;
    txn_group_commit = group_commit;
  }

let txn_id tx = tx.txn_id
let txn_statements tx = tx.txn_seq

let require_open tx =
  if not tx.txn_open then fail "transaction %d is already closed" tx.txn_id

let txn_record tx e =
  match tx.txn_journal with
  | None -> ()
  | Some j ->
    let defer_sync =
      tx.txn_group_commit
      && match e with J.Commit _ | J.Abort _ -> false | _ -> true
    in
    J.append ~defer_sync j e;
    tx.txn_journaled <- true

let txn_savepoint tx =
  require_open tx;
  tx.txn_seq

let txn_rollback_to tx sp =
  require_open tx;
  if sp < 0 || sp > tx.txn_seq then
    fail "savepoint %d out of range (transaction has %d statements)" sp tx.txn_seq;
  if sp < tx.txn_seq then begin
    while tx.txn_seq > sp do
      match tx.txn_undos with
      | undo :: rest ->
        rollback tx.txn_repo undo;
        tx.txn_undos <- rest;
        tx.txn_seq <- tx.txn_seq - 1
      | [] -> assert false
    done;
    txn_record tx (J.Truncate { txn = tx.txn_id; keep = sp })
  end

let txn_apply_report ?(fallback = `Full_check) tx (u : XU.t) =
  require_open tx;
  Obs.Trace.with_span "txn_apply" @@ fun () ->
  let t = tx.txn_repo in
  (* WAL protocol: the intent record hits the disk before the in-memory
     documents are touched, the commit record only after every statement
     of the transaction went through. *)
  let exec label =
    txn_record tx
      (J.Intent
         { txn = tx.txn_id; seq = tx.txn_seq; strategy = label;
           payload = XU.to_string u });
    FP.hit "before_apply";
    let undo = apply_unchecked t u in
    tx.txn_undos <- undo :: tx.txn_undos;
    tx.txn_seq <- tx.txn_seq + 1;
    FP.hit "after_apply";
    undo
  in
  let pre_checked strategy label degs =
    let _undo = exec label in
    { outcome = Applied strategy; degradations = degs }
  in
  let full_fallback degs =
    List.iter
      (fun d ->
        Log.warn (fun m ->
            m "optimized check %s degraded (%s); falling back to the full check"
              d.failed_check d.reason))
      degs;
    let before = tx.txn_seq in
    let undo = exec "full_check" in
    match post_check t with
    | [] -> { outcome = Applied `Full_check; degradations = degs }
    | violated :: _ ->
      rollback t undo;
      tx.txn_undos <- List.tl tx.txn_undos;
      tx.txn_seq <- before;
      txn_record tx (J.Truncate { txn = tx.txn_id; keep = before });
      { outcome = Rolled_back violated; degradations = degs }
  in
  match match_update t u with
  | Some (p, valuation) ->
    (match try_check_optimized_datalog t p valuation with
     | v :: _, degs -> { outcome = Rejected_early v; degradations = degs }
     | [], [] -> pre_checked `Optimized "optimized" []
     | [], degs -> full_fallback degs)
  | None ->
    (match (fallback, u) with
     | `Runtime_simplification, [ m ] ->
       (match runtime_simplified t m with
        | Some `Consistent, degs ->
          pre_checked `Runtime_simplified "runtime_simplified" degs
        | Some (`Violated c), degs -> { outcome = Rejected_early c; degradations = degs }
        | None, degs -> full_fallback degs)
     | _ -> full_fallback [])

let txn_apply ?fallback tx u = (txn_apply_report ?fallback tx u).outcome

let commit_txn tx =
  require_open tx;
  FP.hit "before_commit";
  if tx.txn_journaled then txn_record tx (J.Commit { txn = tx.txn_id });
  if tx.txn_seq > 0 then
    tx.txn_repo.generation <- tx.txn_repo.generation + 1;
  tx.txn_undos <- [];
  tx.txn_open <- false

let rollback_txn tx =
  require_open tx;
  (* The abort record is forced to disk *before* the in-memory undo runs:
     once the decision to abort is durable, a crash (or a SIGTERM-driven
     shutdown) anywhere in the compensation leaves a journal whose tail
     record closes the transaction — recovery discards it either way, but
     the journal never ends in a dangling intent when the process had a
     chance to say otherwise. *)
  if tx.txn_journaled then txn_record tx (J.Abort { txn = tx.txn_id });
  tx.txn_open <- false;
  List.iter (rollback tx.txn_repo) tx.txn_undos;
  tx.txn_undos <- [];
  tx.txn_seq <- 0

let guarded_update_report ?(fallback = `Full_check) ?journal t (u : XU.t) =
  let tx = begin_txn ?journal t in
  let r = txn_apply_report ~fallback tx u in
  (match r.outcome with
   | Applied _ -> commit_txn tx
   | Rejected_early _ | Rolled_back _ -> rollback_txn tx);
  r

let guarded_update ?(fallback = `Full_check) ?journal t (u : XU.t) =
  (guarded_update_report ~fallback ?journal t u).outcome

(* Batched guarded updates: the statements go through the same
   per-statement strategy dispatch as serial guards (identical verdicts
   by construction — oracle route 9 asserts it), but share one journaled
   transaction, so the batch pays a single commit fsync; each
   statement's pre-check flushes only the base store, and the views
   absorb the composed delta of the whole batch at the end — one
   incremental view-maintenance pass instead of one per statement. *)
let guarded_batch ?(fallback = `Full_check) ?journal t (us : XU.t list) =
  match us with
  | [] -> []
  | us ->
    Obs.Trace.with_span "guarded_batch" @@ fun () ->
    let tx = begin_txn ~group_commit:true ?journal t in
    let reports = List.map (fun u -> txn_apply_report ~fallback tx u) us in
    if tx.txn_seq > 0 || tx.txn_journaled then commit_txn tx
    else rollback_txn tx;
    (* one view-maintenance pass for the whole batch *)
    (match t.store with Some _ -> ignore (store t) | None -> ());
    reports

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery_report = {
  replayed_txns : int;
  replayed_statements : int;
  discarded_txns : int;
  torn_tail : bool;
  replay_errors : (int * string) list;
  post_violations : string list;
}

let rec drop_entries k l =
  if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop_entries (k - 1) tl

(* How many leading journal entries a snapshot already covers.  The
   generation decides: a journal *newer* than the snapshot was reset
   after the checkpoint, so everything in it is new work; the *same*
   generation replays only past the watermark; an *older* generation is
   a stale pre-checkpoint leftover (the snapshot superseded it whole). *)
let recover_skip (meta : Snap.meta) (rr : J.read_result) =
  if rr.J.generation > meta.Snap.journal_generation then 0
  else if rr.J.generation = meta.Snap.journal_generation then
    min meta.Snap.journal_watermark (List.length rr.J.entries)
  else List.length rr.J.entries

let recover ?(skip = 0) (rr : J.read_result) t =
  Obs.Trace.with_span "recover" @@ fun () ->
  let entries = drop_entries skip rr.J.entries in
  let committed = J.committed_payloads entries in
  let all_txns =
    List.sort_uniq compare
      (List.map
         (function
           | J.Intent { txn; _ } | J.Commit { txn } | J.Abort { txn }
           | J.Truncate { txn; _ } -> txn)
         entries)
  in
  let stmts = ref 0 in
  let errors = ref [] in
  List.iter
    (fun (txn, payloads) ->
      List.iter
        (fun payload ->
          match XU.parse_string payload with
          | exception XU.Xupdate_error m -> errors := (txn, m) :: !errors
          | u ->
            (match apply_unchecked t u with
             | _undo -> incr stmts
             | exception XU.Xupdate_error m -> errors := (txn, m) :: !errors))
        payloads)
    committed;
  t.generation <- t.generation + List.length committed;
  {
    replayed_txns = List.length committed;
    replayed_statements = !stmts;
    discarded_txns = List.length all_txns - List.length committed;
    torn_tail = rr.J.torn;
    replay_errors = List.rev !errors;
    post_violations = post_check t;
  }

(* ------------------------------------------------------------------ *)
(* Snapshot checkpointing                                              *)
(* ------------------------------------------------------------------ *)

type checkpoint_report = {
  snapshot_path : string;
  snapshot_bytes : int;
  snapshot_nodes : int;
  snapshot_facts : int;
  wal_entries_folded : int;
  wal_reset : bool;
}

(* Checkpoint protocol: materialize the store, write the snapshot
   atomically with the journal's (generation, entry-count) stamped into
   it, and only then reset the journal.  Any crash ordering recovers
   correctly: before the rename the old snapshot + full journal replay
   still apply; after the rename but before the reset, the recorded
   watermark makes replay skip exactly the entries the snapshot already
   contains.  Must not run with an open journaled transaction — the
   snapshot would capture uncommitted mutations. *)
let checkpoint ?journal t path =
  Obs.Trace.with_span "checkpoint" @@ fun () ->
  let s = store t in
  let jmeta =
    match journal with
    | Some j -> (J.generation j, J.entry_count j)
    | None -> (0, 0)
  in
  let bytes =
    try Snap.save ~journal:jmeta path t.doc s
    with Xic_journal.Atomic_file.Atomic_file_error m ->
      fail "checkpoint %s: %s" path m
  in
  FP.hit "checkpoint_truncate";
  (match journal with Some j -> J.reset j | None -> ());
  (* the snapshot now owns this state durably: unreferenced history is
     reclaimable (in-flight pins keep their handles regardless) *)
  prune_retained ~keep_history:false t;
  {
    snapshot_path = path;
    snapshot_bytes = bytes;
    snapshot_nodes = Doc.node_count t.doc;
    snapshot_facts = Xic_datalog.Store.total_tuples s;
    wal_entries_folded = snd jmeta;
    wal_reset = Option.is_some journal;
  }

(* Load a snapshot into a freshly created repository: the arena is
   restored in place (node ids preserved) and the deserialized store
   installed as the materialized mirror, so neither a parse nor a
   re-shred happens.  Constraints and patterns are registered afterwards
   as usual. *)
let load_snapshot t path =
  if Doc.has_root t.doc || Doc.id_bound t.doc > 0 then
    fail "load_snapshot: the repository already contains documents";
  let meta, s = Snap.load path t.doc in
  install_store t s;
  meta
