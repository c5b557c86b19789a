(** Incremental (delta-driven) maintenance of materialized denial
    results.

    For every denial we keep the set of violation witnesses — the
    bindings of its positive-literal variables — as a relation in a
    private view store.  Each denial is compiled once, at {!create}, into
    {!Eval} plans that every later evaluation reuses:

    - its {e full} plan, run by {!initialize} and by the recompute of a
      denial with negation or aggregates;
    - for monotone denials (positive and comparison literals only), a
      {e reverify} plan with the witness variables as inputs;
    - for monotone denials, one {e delta} plan per positive literal with
      that literal's variables as inputs.

    A transaction produces a net fact {!Delta}; {!apply_delta} evaluates
    only delta rules:

    - denials whose relations the delta does not touch are skipped
      untouched (the common case: a one-statement transaction touches a
      handful of relations out of the whole schema);
    - monotone denials are maintained exactly: net deletions can only
      retract witnesses, so existing rows are re-verified through the
      reverify plan against the post-state store; net insertions can
      only add witnesses that use at least one inserted fact, so each
      inserted fact is unified against each matching positive literal
      and that literal's delta plan runs with the unifier as its inputs
      (the semi-naive ΔR ⋈ R join);
    - denials with negation or aggregates are re-evaluated in full, but
      still only when the delta touches one of their relations.

    The view store uses set semantics (witnesses are deduplicated), so
    an incremental view and a from-scratch recompute are comparable with
    [Store.equal] — which is exactly what oracle route 8 does.

    The view lives in a copy-on-write versioned store: row retractions
    are tombstones over an append log, masked on read and reclaimed by
    the writer's auto-compaction, and a Not/Agg recompute clears its
    relation by swapping in a fresh log.  So {!freeze} is a pointer
    capture like [Store.freeze]: a repository pin freezes the view next
    to the base store, and the frozen view answers that generation's
    reads without observing any later maintenance.  {!initialize}
    compacts the view eagerly — a re-initialization (document reload,
    constraint re-registration) retracts every row at once, which is
    exactly the tombstone spike worth collecting up front. *)

module Symbol = Xic_symbol.Symbol

(* A plan and the slots of the view-row variables in it. *)
type projected = {
  plan : Eval.plan;
  proj_slots : int array;
}

(* How one column of an inserted tuple feeds a delta plan's inputs. *)
type ucol =
  | U_const of Term.const  (* must equal the constant *)
  | U_bind of int  (* first occurrence: the input of that index *)
  | U_same of int  (* repeated variable: must equal that input *)

(* A positive literal's delta rule: unify an inserted tuple of [dsym]
   with the literal, then run the denial with the literal's variables
   bound. *)
type delta_rule = {
  dsym : Symbol.t;
  unify : ucol array;
  ninputs : int;
  dplan : projected;
}

(* How a touched view is maintained: a monotone denial (positive and
   comparison literals only) by re-verifying its rows — the denial with
   the view-row variables as inputs — and one delta rule per positive
   literal; any other by a full recompute. *)
type klass =
  | Monotone of { reverify : Eval.plan; deltas : delta_rule list }
  | Recompute

type entry = {
  name : string;  (* owning constraint *)
  rel : Symbol.t;  (* view relation holding the witnesses *)
  klass : klass;
  preds : Symbol.t list;  (* every relation the body references *)
  full : projected;
}

type stats = {
  mutable evals : int;  (* residual delta evaluations *)
  mutable reverifies : int;  (* view rows re-checked after deletions *)
  mutable recomputes : int;  (* full re-evaluations (Not/Agg denials) *)
  mutable skipped : int;  (* denials untouched by the delta *)
  mutable rows_added : int;
  mutable rows_removed : int;
}

type t = {
  entries : entry list;
  names : string list;  (* constraint order for [violated] *)
  view : Store.t;
  stats : stats;
}

let atom_preds atoms = List.map (fun a -> Symbol.intern a.Term.pred) atoms

let named_vars_of_atoms atoms =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun t ->
          match t with
          | Term.Var v when not (Term.is_anon t) ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              acc := v :: !acc
            end
          | _ -> ())
        a.Term.args)
    atoms;
  List.rev !acc

let projected plan proj =
  { plan; proj_slots = Array.of_list (List.map (Eval.slot plan) proj) }

(* The delta rule of positive literal [a]: every variable of [a] is an
   input — including the '_'-prefixed compiler-generated ones, which
   are unique by construction and carry the node-id joins: leaving them
   unbound would degrade the rule to a full re-evaluation of the denial.
   Repeated variables must agree. *)
let delta_rule d proj (a : Term.atom) =
  let index = Hashtbl.create 8 and vars = ref [] in
  let unify =
    List.map
      (function
        | Term.Const c -> U_const c
        | Term.Var v ->
          (match Hashtbl.find_opt index v with
           | Some j -> U_same j
           | None ->
             let j = Hashtbl.length index in
             Hashtbl.add index v j;
             vars := Term.Var v :: !vars;
             U_bind j)
        | Term.Param p -> raise (Eval.Unsafe ("unresolved parameter %" ^ p)))
      a.Term.args
  in
  let plan = Eval.compile ~inputs:(List.rev !vars) d in
  { dsym = Symbol.intern a.Term.pred; unify = Array.of_list unify;
    ninputs = Hashtbl.length index; dplan = projected plan proj }

let entry_of_denial ~name i (d : Term.denial) =
  if Term.denial_params d <> [] then
    raise
      (Eval.Unsafe
         (Printf.sprintf
            "incremental maintenance needs parameter-free denials (%s has %s)"
            name
            (String.concat ", " (Term.denial_params d))));
  let pos_atoms =
    List.filter_map (function Term.Rel a -> Some a | _ -> None) d.Term.body
  in
  let preds =
    List.concat_map
      (function
        | Term.Rel a | Term.Not a -> atom_preds [ a ]
        | Term.Agg g -> atom_preds g.Term.atoms
        | Term.Cmp _ -> [])
      d.Term.body
    |> List.sort_uniq compare
  in
  let proj = named_vars_of_atoms pos_atoms in
  let monotone =
    List.for_all
      (function Term.Rel _ | Term.Cmp _ -> true | Term.Not _ | Term.Agg _ -> false)
      d.Term.body
  in
  let klass =
    if monotone then
      Monotone
        { reverify = Eval.compile ~inputs:(List.map (fun v -> Term.Var v) proj) d;
          deltas = List.map (delta_rule d proj) pos_atoms }
    else Recompute
  in
  {
    name;
    rel = Symbol.intern (Printf.sprintf "%s#%d" name i);
    klass;
    preds;
    full = projected (Eval.compile d) proj;
  }

let create (constraints : (string * Term.denial list) list) =
  let entries =
    List.concat_map
      (fun (name, denials) -> List.mapi (entry_of_denial ~name) denials)
      constraints
  in
  {
    entries;
    names = List.map fst constraints;
    view = Store.create ();
    stats =
      {
        evals = 0;
        reverifies = 0;
        recomputes = 0;
        skipped = 0;
        rows_added = 0;
        rows_removed = 0;
      };
  }

(* The view row of a witness. *)
let project p slots =
  Array.fold_right (fun i acc -> slots.(i) :: acc) p.proj_slots []

let add_row t e row =
  if not (Store.mem_sym t.view e.rel row) then begin
    Store.add_sym t.view e.rel row;
    t.stats.rows_added <- t.stats.rows_added + 1
  end

let add_witnesses t store e p inputs =
  ignore
    (Eval.run ~all:true p.plan store inputs (fun slots ->
         add_row t e (project p slots)))

let recompute_entry t store e =
  t.stats.rows_removed <- t.stats.rows_removed + Store.cardinality_sym t.view e.rel;
  Store.clear_sym t.view e.rel;
  add_witnesses t store e e.full [||]

let initialize t store =
  List.iter
    (fun e ->
      t.stats.recomputes <- t.stats.recomputes + 1;
      recompute_entry t store e)
    t.entries;
  (* A (re)initialization retracts every existing row before repopulating;
     collect the tombstone spike instead of carrying it into steady state. *)
  Store.compact t.view

(* The delta rule's inputs for an inserted ground tuple, or [None] when
   the tuple cannot match the literal. *)
let unify r (tup : Store.tuple) =
  let inputs = Array.make r.ninputs (Term.Int 0) in
  let rec go i = function
    | [] -> i = Array.length r.unify
    | c :: rest ->
      i < Array.length r.unify
      && (match r.unify.(i) with
          | U_const c' -> Term.equal_const c c'
          | U_same j -> Term.equal_const c inputs.(j)
          | U_bind j ->
            inputs.(j) <- c;
            true)
      && go (i + 1) rest
  in
  if go 0 tup then Some inputs else None

let reverify_rows t store e plan =
  List.iter
    (fun row ->
      t.stats.reverifies <- t.stats.reverifies + 1;
      if not (Eval.run plan store (Array.of_list row) ignore) then begin
        ignore (Store.remove_sym t.view e.rel row);
        t.stats.rows_removed <- t.stats.rows_removed + 1
      end)
    (Store.tuples_sym t.view e.rel)

let delta_insertions t store e deltas delta =
  List.iter
    (fun (sym, tup, _mult) ->
      List.iter
        (fun r ->
          if Symbol.equal r.dsym sym then
            match unify r tup with
            | None -> ()
            | Some inputs ->
              t.stats.evals <- t.stats.evals + 1;
              add_witnesses t store e r.dplan inputs)
        deltas)
    (Delta.added delta)

let apply_delta t store delta =
  let touched = Delta.touched delta in
  let removals_touch e =
    List.exists
      (fun (sym, _, _) -> List.mem sym e.preds)
      (Delta.removed delta)
  in
  List.iter
    (fun e ->
      if not (List.exists (fun s -> List.mem s e.preds) touched) then
        t.stats.skipped <- t.stats.skipped + 1
      else
        match e.klass with
        | Recompute ->
          t.stats.recomputes <- t.stats.recomputes + 1;
          recompute_entry t store e
        | Monotone { reverify; deltas } ->
          (* Deletions first: rows must be re-verified before the
             insertion pass adds rows that are already post-state. *)
          if removals_touch e then reverify_rows t store e reverify;
          delta_insertions t store e deltas delta)
    t.entries

let violated t =
  List.filter
    (fun name ->
      List.exists
        (fun e ->
          String.equal e.name name && Store.cardinality_sym t.view e.rel > 0)
        t.entries)
    t.names

let freeze t = { t with view = Store.freeze t.view }

let view t = t.view
let stats t = t.stats
let entry_count t = List.length t.entries

let stats_line t =
  let s = t.stats in
  Printf.sprintf
    "evals=%d reverifies=%d recomputes=%d skipped=%d rows+%d rows-%d"
    s.evals s.reverifies s.recomputes s.skipped s.rows_added s.rows_removed
