(** The repository: an XML document collection with declared constraints
    and update patterns, supporting full and optimized (incremental)
    integrity checking with early detection of illegal updates.

    Checking semantics (Section 7 of the paper):
    {ul
    {- {e full check}: evaluate every constraint's XQuery translation
       against the current documents;}
    {- {e optimized check}: when an incoming update instantiates a
       registered pattern, evaluate the pattern's pre-compiled simplified
       checks with the extracted parameter valuation — {e before} the
       update executes, so illegal updates are never applied.  The guard
       evaluates the simplified denials over the relational mirror
       ({!try_check_optimized_datalog}); their XQuery translation
       ({!try_check_optimized}) is the reference route;}
    {- {e fallback}: updates matching no pattern are applied, fully
       checked, and rolled back on violation (compensating action).}} *)

open Xic_xml

type t

(** A simplified check, pre-compiled at pattern-registration time.  The
    closure plan of its XQuery is cached on first evaluation, keyed by
    the enclosing (pattern, constraint) pair by construction. *)
type optimized_check = {
  constraint_name : string;
  simplified : Xic_datalog.Term.denial list;
  simplified_xquery : Xic_xquery.Ast.expr;
  mutable simplified_plan : Xic_xquery.Eval.compiled option;
}

(** Plan-cache counters: a {e hit} is a check evaluation served by a
    cached closure plan, a {e miss} is a compilation. *)
type plan_stats = {
  plan_hits : int;
  plan_misses : int;
}

exception Repository_error of string

val create : Schema.t -> t
val schema : t -> Schema.t
val doc : t -> Doc.t

val set_eval_budget : t -> int option -> unit
(** Install (or clear, with [None]) a step budget for constraint-check
    evaluation.  Every optimized or runtime-simplified check runs under
    its own budget of that many evaluator steps; a check that exhausts it
    is treated as {e degraded} — the guarded update falls back to the
    full check instead of failing (see {!report}).  The guard's Datalog
    pre-check counts Datalog solver steps, the XQuery routes XQuery
    evaluator steps. *)

val eval_budget : t -> int option

val set_parallelism : t -> int -> unit
(** Number of domains {!check_full} may use to evaluate independent
    denial checks concurrently (default 1 = sequential).  Parallel
    checking requires at least two constraints and no installed
    {!set_eval_budget} (budgets are per-domain); otherwise the check
    silently runs sequentially.  Verdicts are identical either way: the
    document is read-only during the check, the index is frozen into its
    shared phase, and the merge preserves constraint order.
    @raise Repository_error when [jobs < 1]. *)

val parallelism : t -> int

val plan_stats : t -> plan_stats
(** Cumulative plan-cache counters over full and simplified checks. *)

val plan_stats_line : t -> string
(** Human-readable one-liner for the CLI, e.g.
    ["plans: 12 hits, 3 misses, 3 cached"]. *)

val cached_plans : t -> int
(** Number of closure plans currently cached (full-check plans plus
    compiled simplified checks). *)

val set_use_index : t -> bool -> unit
(** Enable (default) or disable indexed evaluation.  Disabling detaches
    and drops any existing index; verdicts are unaffected either way. *)

val use_index : t -> bool

val index : t -> Index.t option
(** The document's secondary indexes, created (lazily, unbuilt) on first
    demand — [None] when indexed evaluation is disabled.  All checking
    and shredding paths consult it automatically; it is exposed for
    callers evaluating ad-hoc queries against {!doc}. *)

val index_stats : t -> Index.stats option
(** Statistics of the current index, if one exists. *)

val index_stats_line : t -> string
(** Human-readable one-liner for the CLI: the index's hit/miss/fallback
    counters, ["index: idle"] when no lookup forced a build yet, or
    ["index: disabled"]. *)

val metrics : t -> (string * int) list * (string * Xic_obs.Obs.Metrics.hsnap) list
(** Snapshot of the global metrics registry (counters and latency
    histograms, name-sorted), after syncing the point-in-time gauges
    ([index_*], [plan_cached]) from this repository — so the snapshot
    always agrees with the legacy {!plan_stats} / {!index_stats}
    shims. *)

val metrics_json : t -> string
(** Same snapshot rendered as a JSON object
    [{"counters":{…},"histograms":{…}}] for [xicheck --metrics]. *)

val metrics_prometheus : t -> string
(** Same snapshot rendered as Prometheus text exposition (the server's
    [metrics] op). *)

val load_document : ?validate:bool -> t -> string -> unit
(** Parse an XML document and add it to the collection; with [validate]
    (default true) it must conform to the DTD declaring its root type.
    @raise Repository_error on parse or validation failure. *)

val load_fused : ?validate:bool -> t -> string -> unit
(** Fused single-pass ingestion: parse, intern and shred the document in
    one streaming scan of the source ([Xml_parser.parse_document_into] +
    [Shred.sink]), under an ["ingest"] trace span.  Verdict-equivalent to
    {!load_document} — same documents, same relational facts (the
    differential oracle checks store and verdict agreement) — but the
    Datalog store is filled while parsing instead of by a second
    full-document walk, and positions come from the parser for free.
    When the store cannot be kept exact in-pass (documents already loaded
    but the store never demanded) it simply stays lazy.  On failure the
    store is invalidated and no root is registered.
    @raise Repository_error on parse, shredding or validation failure. *)

type ingest_stats = {
  fused_docs : int;   (** documents loaded through {!load_fused} *)
  legacy_docs : int;  (** documents loaded through {!load_document} *)
  fused_bytes : int;  (** source bytes ingested by the fused path *)
  fused_facts : int;  (** facts emitted by fused shredding *)
}

val ingest_stats : t -> ingest_stats
(** Cumulative ingestion counters (registry-backed, like {!plan_stats}). *)

val add_document_root : ?validate:bool -> t -> Doc.node_id -> unit
(** Register an already-built tree (e.g. from a generator) as a root. *)

val add_constraint : ?verify:bool -> t -> Constr.t -> unit
(** Register a constraint; simplified checks are (re)compiled for every
    registered pattern.  With [verify] (default false), the constraint is
    first evaluated against the current documents and registration fails
    if they already violate it — the simplification framework assumes a
    consistent starting state. *)

val register_pattern : t -> Pattern.t -> unit
(** Register an update pattern: runs [Simp] against every constraint and
    pre-translates the simplified checks to XQuery. *)

val constraints : t -> Constr.t list
val patterns : t -> Pattern.t list

val optimized_checks : t -> Pattern.t -> optimized_check list
(** The pre-compiled simplified checks of a registered pattern.
    @raise Repository_error for unregistered patterns. *)

val check_full : t -> string list
(** Names of currently violated constraints (empty = consistent), via the
    full XQuery checks. *)

val check_full_datalog : t -> string list
(** Same, evaluated over the relational mirror (shredded on demand). *)

(** {1 Pinned generations (reader isolation, O(1))}

    A pin is a frozen generation handle of the materialized store
    ([Store.freeze]) stamped with the {!generation} it captured: an
    O(#relations) pointer capture sharing the per-relation insertion
    logs with the live writer, {e not} a copy.  The writer only ever
    conses onto its own log heads, so a pinned reader's verdicts are
    unaffected by later commits, checkpoints, and journal truncation —
    the snapshot-isolated read side of the check server — while a pin
    retains only the unshared log suffix in memory.

    Handles are refcounted in a retained-generation table: pins of the
    same generation share one handle, {!unpin} releases it, and
    zero-reference entries linger as bounded history ({!pin_as_of}
    time-travel checks) until evicted by newer history or a
    {!checkpoint}. *)

val generation : t -> int
(** Committed-transaction counter: starts at 0, incremented by every
    {!commit_txn} that applied at least one statement (including
    {!guarded_update} and {!guarded_batch} commits) and by each
    committed transaction a {!recover} replays. *)

type pin

val pin : t -> pin
(** Capture the current state in O(1) (flushes pending mutation marks
    first, then freezes — no copy).  Repeated pins of an unchanged
    generation return the same shared handle.  Must not be taken while
    a transaction holds applied-but-uncommitted statements — the handle
    would capture them as committed state; pin before {!begin_txn}, or
    after the transaction closes. *)

val unpin : t -> pin -> unit
(** Release one reference on the pin's retained generation.  Dropped
    generations become reclaimable history; unpinning a pin whose entry
    was already evicted (store reload, checkpoint) is a no-op — the pin
    record itself keeps its handle alive for its holder regardless. *)

val pin_as_of : t -> int -> pin option
(** A pin of a {e retained} past generation — time travel over the
    history kept by the retained-generation table ([None] when that
    generation is no longer retained).  Balance with {!unpin}. *)

val check_as_of : t -> int -> string list option
(** Verdict at a retained past generation: {!check_pinned} over a
    transient {!pin_as_of} handle ([None] when not retained). *)

val retained_generations : t -> (int * int) list
(** The retained-generation table as [(generation, refcount)] pairs in
    ascending generation order — refcount 0 marks history kept only for
    time-travel checks. *)

val retained_bytes : t -> int
(** Rough heap estimate of what the retained handles hold {e beyond}
    the structure they share with the live store — 0 in the steady
    state where every log is still a suffix of the writer's. *)

val pin_generation : pin -> int
val pin_store : pin -> Xic_datalog.Store.t

val check_pinned : t -> pin -> string list
(** Names of constraints violated in the pinned state — the denials
    evaluated over the pinned store, verdict-equivalent to
    {!check_full} at the time the pin was taken. *)

(** {1 Incremental (delta-driven) checking}

    The relational store is kept exact across every mutation by an
    event-driven mirror; each reconciliation yields a net fact delta.
    With incremental checking enabled, per-denial violation witnesses
    are materialized ([Xic_datalog.Incr]) and maintained from those
    deltas, so the post-state verdict of a guarded update or a recovery
    replay costs time proportional to the {e update}, not the document:
    denials over untouched relations are skipped outright, monotone
    denials evaluate only the delta-bound residual joins. *)

val set_incremental : t -> bool -> unit
(** Route the guarded-update fallback verdict and the recovery
    post-check through the materialized denial views (default off:
    those paths use {!check_full}).  Disabling drops the views. *)

val incremental : t -> bool

val check_incremental : t -> string list
(** Names of currently violated constraints, from the materialized
    views — initialized from the store on first use, maintained by
    deltas afterwards.  Verdict-equivalent to {!check_full} (oracle
    route 8 asserts this, plus [Store.equal] of the views against a
    from-scratch recompute).
    @raise Xic_datalog.Eval.Unsafe for denials outside the maintainable
    fragment (parameters). *)

val incr_view : t -> Xic_datalog.Store.t option
(** The materialized witness store, when views exist — one relation
    ["name#i"] per (constraint, denial), holding the bindings of the
    denial's positive-literal variables.  For tests and oracles. *)

(** Cumulative delta/view counters of this repository. *)
type delta_stats = {
  delta_flushes : int;  (** mirror reconciliations *)
  delta_facts_added : int;  (** gross store insertions via deltas *)
  delta_facts_removed : int;  (** gross store deletions via deltas *)
  delta_net_added : int;
      (** net insertions still standing, over the sequential composition
          ([Delta.compose]) of every flush since the store was installed *)
  delta_net_removed : int;  (** net deletions still standing, same window *)
  incr_entries : int;  (** materialized (constraint, denial) views *)
  incr_evals : int;  (** delta-bound residual evaluations *)
  incr_reverifies : int;  (** view rows re-checked after deletions *)
  incr_recomputes : int;  (** full view re-evaluations *)
  incr_skipped : int;  (** views untouched by a delta *)
  incr_view_rows : int;  (** materialized witnesses right now *)
}

val delta_stats : t -> delta_stats

val delta_stats_line : t -> string
(** Human-readable one-liner for [xicheck --delta-stats]. *)

val match_update : t -> Xic_xupdate.Xupdate.t -> (Pattern.t * Pattern.valuation) option
(** Recognize a single-modification update against the registered
    patterns (first match wins). *)

val check_optimized : t -> Pattern.t -> Pattern.valuation -> string list
(** Names of constraints whose simplified check, translated to XQuery,
    reports a violation for the proposed update (evaluated on the
    {e current} document).  This is the paper's route, kept as the
    reference the guard's Datalog pre-check is tested and benchmarked
    against.
    @raise Repository_error when a check fails to evaluate or exhausts
    the step budget; {!try_check_optimized} reports those as degradations
    instead. *)

(** An optimized check that could not be completed (evaluation error or
    exhausted step budget); the guarded-update engine falls back to the
    full check and reports the degradation. *)
type degradation = { failed_check : string; reason : string }

val try_check_optimized :
  t -> Pattern.t -> Pattern.valuation -> string list * degradation list
(** Total variant of {!check_optimized}: violated constraint names plus
    the checks that degraded instead of completing. *)

val try_check_optimized_datalog :
  t -> Pattern.t -> Pattern.valuation -> string list * degradation list
(** The guarded-update pre-check: every constraint's simplified denials,
    instantiated with the valuation ({!Pattern.datalog_params}), evaluated
    over the relational mirror.  Only the base store is brought up to
    date; the materialized views absorb the flushed delta at the next
    {!store} demand.  An unsafe denial or an exhausted step budget is
    reported as a degradation.  Verdict-equivalent to
    {!try_check_optimized} (the differential oracle asserts it). *)

val check_optimized_datalog : t -> Pattern.t -> Pattern.valuation -> string list
(** Raising variant of {!try_check_optimized_datalog}, as
    {!check_optimized} is of {!try_check_optimized}.
    @raise Repository_error on a degradation. *)

(** Result of a guarded update. *)
type outcome =
  | Applied of [ `Optimized | `Runtime_simplified | `Full_check ]
      (** executed; which checking strategy validated it *)
  | Rejected_early of string
      (** refused before execution (optimized check); the violated
          constraint's name *)
  | Rolled_back of string
      (** executed, found violating by the full check, compensated *)

(** Outcome of a guarded update plus the checks that degraded along the
    way.  [degradations] is non-empty when an optimized (or runtime
    simplified) check failed to evaluate or ran out of its step budget:
    correctness is preserved by falling back to the full check, and the
    report says so. *)
type report = { outcome : outcome; degradations : degradation list }

val guarded_update :
  ?fallback:[ `Full_check | `Runtime_simplification ] ->
  ?journal:Xic_journal.Journal.t ->
  t ->
  Xic_xupdate.Xupdate.t ->
  outcome
(** Apply an update under integrity control.

    When the update instantiates a registered pattern, its pre-compiled
    simplified checks run before execution, over the relational mirror
    ({!try_check_optimized_datalog}).  Otherwise [fallback] decides
    (Section 7, footnote 4 of the paper): with [`Full_check] (default) the
    update is executed, fully checked, and compensated on violation; with
    [`Runtime_simplification] a one-off pattern is derived from the
    concrete statement (its text values as constants), [Simp] runs on the
    spot, and the residual checks still execute {e before} the update —
    reverting to the full-check strategy only when the statement falls
    outside the simplifiable fragment.

    With [journal], the update is journaled write-ahead: an intent record
    (the serialized statement and chosen strategy) is forced to disk
    before the documents are touched and a commit record after, so
    {!recover} can replay it after a crash.  Updates refused or rolled
    back leave no committed trace. *)

val guarded_update_report :
  ?fallback:[ `Full_check | `Runtime_simplification ] ->
  ?journal:Xic_journal.Journal.t ->
  t ->
  Xic_xupdate.Xupdate.t ->
  report
(** Like {!guarded_update} but also reports degradations. *)

val guarded_batch :
  ?fallback:[ `Full_check | `Runtime_simplification ] ->
  ?journal:Xic_journal.Journal.t ->
  t ->
  Xic_xupdate.Xupdate.t list ->
  report list
(** Apply several guarded updates as one batch: each statement goes
    through the same strategy dispatch as {!guarded_update} (reports are
    in input order and verdict-identical to serial guards), but they
    share one journaled transaction under group commit — intent records
    are written unsynced and the single commit fsync makes the whole
    batch durable at once — and the materialized views absorb the
    whole batch's composed delta in one incremental view-maintenance
    pass instead of one per statement.  Statements
    refused or compensated individually do not abort the rest of the
    batch. *)

(** {1 Transactions}

    A transaction groups several guarded statements into one atomic,
    journaled unit: either every applied statement survives ({!commit_txn})
    or none does ({!rollback_txn} or a crash before the commit record).
    Statement-level integrity control is unchanged — an illegal statement
    is refused or compensated individually and the transaction stays
    open. *)

type txn

val begin_txn :
  ?group_commit:bool -> ?journal:Xic_journal.Journal.t -> t -> txn
(** [group_commit] (default [false]) defers the fsync of intent and
    truncate records to the closing commit/abort record's fsync — one
    durability point per transaction instead of one per statement.  Safe
    because recovery discards transactions without a durable closing
    record whether or not their intents reached disk.  {!guarded_batch}
    enables it. *)

val txn_id : txn -> int

val txn_statements : txn -> int
(** Statements currently applied (i.e. the next savepoint value). *)

val txn_apply :
  ?fallback:[ `Full_check | `Runtime_simplification ] ->
  txn ->
  Xic_xupdate.Xupdate.t ->
  outcome

val txn_apply_report :
  ?fallback:[ `Full_check | `Runtime_simplification ] ->
  txn ->
  Xic_xupdate.Xupdate.t ->
  report
(** Apply one statement inside the transaction, with the same strategy
    dispatch as {!guarded_update}.  The intent record carries the
    statement's sequence number; no commit record is written until
    {!commit_txn}.
    @raise Repository_error if the transaction is closed. *)

type savepoint

val txn_savepoint : txn -> savepoint

val txn_rollback_to : txn -> savepoint -> unit
(** Undo every statement applied after the savepoint (journaled as a
    truncate record so replay stays faithful). *)

val commit_txn : txn -> unit
(** Force the commit record to disk and close the transaction.  Until
    this returns, a crash recovers to the pre-transaction state. *)

val rollback_txn : txn -> unit
(** Undo every applied statement, journal an abort record, and close the
    transaction.  The abort record is forced to disk {e before} the
    in-memory compensation runs, so a crash or signal-driven shutdown
    anywhere in the undo still leaves the journal's last word on this
    transaction a closing record, never a dangling intent. *)

(** {1 Crash recovery} *)

type recovery_report = {
  replayed_txns : int;
  replayed_statements : int;
  discarded_txns : int;
      (** journaled transactions without a commit record (in-flight at
          the crash, or aborted) *)
  torn_tail : bool;  (** the journal ended in a torn (discarded) record *)
  replay_errors : (int * string) list;
      (** transaction id and error, for committed statements that no
          longer replay (e.g. the base documents changed) *)
  post_violations : string list;
      (** constraints violated after replay — empty for a journal
          produced by guarded updates against the same base documents *)
}

val recover : ?skip:int -> Xic_journal.Journal.read_result -> t -> recovery_report
(** Replay the committed transactions of a journal (see
    {!Xic_journal.Journal.read}) against the repository's freshly loaded
    base documents, in commit order.  Uncommitted and aborted
    transactions, savepoint-truncated statements, and any torn tail are
    discarded — after a crash at {e any} point, the repository recovers
    to the last committed state.  [skip] (default 0) drops that many
    leading journal entries first: the suffix replay after a snapshot
    load (compute it with {!recover_skip}). *)

val recover_skip :
  Xic_snapshot.Snapshot.meta -> Xic_journal.Journal.read_result -> int
(** How many leading journal entries the snapshot already covers, by the
    generation rule: a journal generation {e newer} than the snapshot's
    replays in full (0), the {e same} generation skips the snapshot's
    watermark, an {e older} one is a stale pre-checkpoint journal and is
    skipped entirely. *)

(** {1 Snapshot checkpointing} *)

type checkpoint_report = {
  snapshot_path : string;
  snapshot_bytes : int;
  snapshot_nodes : int;  (** live document nodes persisted *)
  snapshot_facts : int;  (** store tuples persisted *)
  wal_entries_folded : int;
      (** journal entries whose effects the snapshot now contains *)
  wal_reset : bool;  (** whether a journal was truncated afterwards *)
}

val checkpoint : ?journal:Xic_journal.Journal.t -> t -> string -> checkpoint_report
(** Write a crash-consistent snapshot of the current state (document
    arena, symbol table, materialized store) to the given path — temp
    file, fsync, rename, directory fsync — and, when [journal] is given,
    stamp its (generation, entry count) into the snapshot and {e then}
    reset it, bounding future recovery to the journal suffix written
    after this call.  A crash at any point leaves a recoverable pair:
    old snapshot + old journal, or new snapshot + old journal (replay
    skips the watermarked prefix), or new snapshot + fresh journal.

    Must not be called while a journaled transaction is open — the
    snapshot would capture uncommitted mutations as committed state.
    @raise Repository_error on I/O failure. *)

val load_snapshot : t -> string -> Xic_snapshot.Snapshot.meta
(** Restore a snapshot into a freshly created repository (no documents
    loaded yet): rebuilds the arena in place with node ids preserved and
    installs the deserialized store as the materialized mirror — no
    parse, no shred.  Register constraints and patterns afterwards as
    usual; journal suffix replay is {!recover} with
    [~skip:(recover_skip meta rr)].
    @raise Repository_error when the repository is non-empty;
    @raise Xic_snapshot.Snapshot.Snapshot_error (with the classified
    error taxonomy) when the file is missing, truncated or corrupt. *)

val apply_unchecked : t -> Xic_xupdate.Xupdate.t -> Xic_xupdate.Xupdate.undo
val rollback : t -> Xic_xupdate.Xupdate.undo -> unit

val store : t -> Xic_datalog.Store.t
(** The relational mirror of the current documents (rebuilt lazily after
    updates).  Also brings the materialized views (if any) up to date
    with every delta flushed since they last were. *)

(** A concrete witness of a constraint violation. *)
type witness = {
  witness_constraint : string;
  denial : Xic_datalog.Term.denial;  (** the violated disjunct *)
  bindings : (string * Xic_datalog.Term.const) list;
      (** satisfying substitution over the denial's variables *)
  nodes : (string * Doc.node_id * string) list;
      (** variable, node, and its positional root path, for the bindings
          that denote document nodes *)
}

val explain : t -> witness list
(** One witness per violated constraint disjunct (evaluated over the
    relational mirror) — empty iff consistent.  Use the [nodes] paths to
    point users at the offending elements. *)

val witness_to_string : witness -> string
