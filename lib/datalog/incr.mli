(** Incremental (delta-driven) maintenance of materialized denial
    results — the semi-naive layer behind [Repository.set_incremental].

    Each denial's violation witnesses (bindings of its positive-literal
    variables) are materialized as a relation in a private view store.
    {!apply_delta} maintains them from a net fact {!Delta} instead of
    re-running the denial over the whole store: untouched denials are
    skipped, monotone denials get exact delta evaluation (deletion
    re-verification + ΔR-bound residual joins), denials with negation or
    aggregates are re-evaluated in full when touched.  Every evaluation
    runs an {!Eval} plan compiled once by {!create}: the full plan, and
    for monotone denials a re-verification plan and one delta plan per
    positive literal.  The view uses set
    semantics, so it is [Store.equal]-comparable with a from-scratch
    recompute (oracle route 8).  {!freeze} captures the views with a
    generation pin, so pinned reads are a {!violated} over the frozen
    copy (oracle route 9 compares it with a recompute over the frozen
    base store). *)

type t

type stats = {
  mutable evals : int;  (** residual delta evaluations *)
  mutable reverifies : int;  (** view rows re-checked after deletions *)
  mutable recomputes : int;  (** full re-evaluations (Not/Agg denials) *)
  mutable skipped : int;  (** denials untouched by a delta *)
  mutable rows_added : int;
  mutable rows_removed : int;
}

val create : (string * Term.denial list) list -> t
(** One view relation per (constraint, denial), with the denial's plans
    compiled.  The view starts empty; call {!initialize} against the
    current store before applying deltas.
    @raise Eval.Unsafe if any denial contains parameters (only full
    constraint denials are maintainable; simplified checks stay on the
    per-update path) or cannot be scheduled. *)

val initialize : t -> Store.t -> unit
(** (Re)materialize every denial's witnesses from scratch. *)

val apply_delta : t -> Store.t -> Delta.t -> unit
(** Maintain the views given the net delta that took the store to its
    current (post-mutation) state.  [store] must already include the
    delta.
    @raise Eval.Unsafe / Eval.Budget_exceeded as {!Eval.violations}. *)

val violated : t -> string list
(** Names of constraints with at least one materialized witness, in
    constraint order. *)

val freeze : t -> t
(** A read-only point-in-time copy of the views: [Store.freeze] of the
    witness store, O(#view relations), sharing the rows with [t].  Later
    {!apply_delta} or {!initialize} on [t] leave it unchanged; on the
    copy they raise [Invalid_argument] once they would change a row.
    Exact for the store state [t] was last maintained against. *)

val view : t -> Store.t
(** The materialized witness store (read-only by convention). *)

val stats : t -> stats
val entry_count : t -> int
val stats_line : t -> string
