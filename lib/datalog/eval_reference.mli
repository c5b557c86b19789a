(** Oracle-only reference interpreter for Datalog denials: the
    evaluator that {!Eval}'s compiled plans replaced, unchanged.  It
    re-picks the most-bound literal at every solver step over a string
    environment; tests compare it with {!Eval} on random stores and
    denials, and the differential oracle on every checked state.  No
    runtime path calls it.  It has its own exceptions and step budget. *)

exception Unsafe of string
(** Raised on denials whose literals cannot be scheduled safely, or that
    still contain parameters at evaluation time. *)

exception Budget_exceeded
(** Raised mid-evaluation when the installed step budget runs out. *)

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget: every solver step and every tuple
    examined by a join, negation or aggregate costs one step, and
    evaluation aborts with {!Budget_exceeded} once [steps] are spent.
    Budgets nest (the innermost wins); without one, evaluation is
    unlimited. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the solver steps it
    consumed.  Composes with {!with_budget} as in
    {!Xic_xpath.Eval.with_meter}. *)

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
