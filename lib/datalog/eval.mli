(** Evaluation of denials against a fact store.

    A denial is {e violated} when its body is satisfiable.  {!compile}
    turns a denial into a plan once; {!run} executes it against any
    store, any number of times.  A plan fixes the literal order at
    compile time, most-bound-first over the whole body: a comparison, a
    binding equality, a negation or an aggregate is placed at the first
    point its shared variables are bound, otherwise the positive literal
    with the most bound arguments comes next (first on ties).  Variables
    live in int slots of one array per run; each positive, negated or
    aggregated atom probes the leftmost bound column through the
    {!Store} indexes (a scan when none is bound).  Negations whose other
    variables are purely local are anti-joins.  The order and the tuples
    visited are those of the former interpreter, kept as the oracle-only
    {!Eval_reference}.

    The one-shot functions ({!violation}, {!violated}, ...) compile and
    run; hot callers keep their plans. *)

exception Unsafe of string
(** Raised by {!compile} on denials whose literals cannot be scheduled
    safely or that mention a parameter that is not an input, and at run
    time by aggregates that cannot be computed (a [max] or [min] over no
    rows, a sum over a non-integer). *)

exception Budget_exceeded
(** Raised mid-evaluation when the installed step budget runs out. *)

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget: every literal a plan enters and every
    tuple examined by a join, negation or aggregate costs one step, and
    evaluation aborts with {!Budget_exceeded} once [steps] are spent.
    Budgets nest (the innermost wins); without one, evaluation is
    unlimited. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the steps it
    consumed.  Composes with {!with_budget} as in
    {!Xic_xpath.Eval.with_meter}. *)

(** {1 Plans} *)

type plan

val compile : ?inputs:Term.term list -> Term.denial -> plan
(** [compile ~inputs d] fixes the evaluation order of [d]'s body.
    [inputs] (variables or parameters, no repeats) are bound by the
    caller on every run, in this order; every parameter of [d] must be
    one of them.  Each call counts in the [datalog_plan_compiles]
    metric.
    @raise Unsafe when the body cannot be scheduled. *)

val run :
  ?all:bool ->
  plan ->
  Store.t ->
  Term.const array ->
  (Term.const array -> unit) ->
  bool
(** [run plan store inputs f] searches [store] for a satisfying
    assignment, the [inputs] values bound to the plan's inputs; [f] sees
    the slot array of the first witness, or of every witness when [all]
    is set (default [false]).  The array is only valid during the call:
    read it with {!slot}.  Returns whether a witness exists.  Under
    tracing, each run is a [datalog:eval] span carrying its [steps].
    @raise Invalid_argument when [inputs] has the wrong length.
    @raise Unsafe / Budget_exceeded as described above. *)

val slot : plan -> string -> int
(** The slot of a variable bound in every witness: an input, or a
    variable of a positive literal or a binding equality.  Inputs occupy
    slots [0 .. n-1] in order.
    @raise Invalid_argument for any other name. *)

val bindings : plan -> Term.const array -> (string * Term.const) list
(** The witness variables (not the inputs) and their values in a slot
    array, in order of first binding. *)

(** {1 One-shot evaluation} *)

val violation :
  ?params:(string * Term.const) list ->
  Store.t ->
  Term.denial ->
  (string * Term.const) list option
(** First satisfying substitution (a violation witness), if any.  [params]
    is the update-time parameter valuation. *)

val violated : ?params:(string * Term.const) list -> Store.t -> Term.denial -> bool

val violations :
  ?params:(string * Term.const) list ->
  Store.t ->
  Term.denial ->
  (string * Term.const) list list
(** All satisfying substitutions. *)

val consistent :
  ?params:(string * Term.const) list -> Store.t -> Term.denial list -> bool
(** No denial of the set is violated. *)

val first_violated :
  ?params:(string * Term.const) list ->
  Store.t ->
  Term.denial list ->
  Term.denial option
