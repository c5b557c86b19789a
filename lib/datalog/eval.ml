(** Evaluation of denials against a fact store.

    A denial is {e violated} when its body is satisfiable; [violation]
    searches for a satisfying substitution with a simple
    most-bound-literal-first join strategy, exploiting the first-column
    index of {!Store}.  Negated and aggregate literals are scheduled once
    their outer variables are bound (safe evaluation); unsafe denials
    raise {!Unsafe}. *)

exception Unsafe of string

let unsafe fmt = Printf.ksprintf (fun s -> raise (Unsafe s)) fmt

(* ------------------------------------------------------------------ *)
(* Step budget                                                         *)
(* ------------------------------------------------------------------ *)

exception Budget_exceeded

let budget : int ref option ref = ref None

let tick n =
  match !budget with
  | None -> ()
  | Some r ->
    r := !r - n;
    if !r <= 0 then raise Budget_exceeded

let with_budget ~steps f =
  let saved = !budget in
  budget := Some (ref steps);
  Fun.protect ~finally:(fun () -> budget := saved) f

(* As {!Xic_xpath.Eval.with_meter}: report the steps [f] consumes
   without changing which evaluations succeed. *)
let with_meter f =
  match !budget with
  | Some r ->
    let before = !r in
    let v = f () in
    (v, before - !r)
  | None ->
    let r = ref max_int in
    budget := Some r;
    Fun.protect
      ~finally:(fun () -> budget := None)
      (fun () ->
        let v = f () in
        (v, max_int - !r))

type env = (string, Term.const) Hashtbl.t

let lookup (env : env) v = Hashtbl.find_opt env v

let term_value env = function
  | Term.Var v -> (match lookup env v with Some c -> Some c | None -> None)
  | Term.Const c -> Some c
  | Term.Param p -> unsafe "unresolved parameter %%%s at evaluation time" p

(* Match a tuple against atom args under [env] plus prior local bindings;
   returns the list of new bindings (appended to [prior]) or None.  A
   variable occurring twice must match equal constants. *)
let match_tuple ?(prior = []) env (args : Term.term list) (tup : Store.tuple) =
  tick 1;
  let rec go acc args tup =
    match (args, tup) with
    | [], [] -> Some acc
    | a :: args', c :: tup' ->
      (match a with
       | Term.Const c' -> if c = c' then go acc args' tup' else None
       | Term.Param p -> unsafe "unresolved parameter %%%s in atom" p
       | Term.Var v ->
         (match lookup env v with
          | Some c' -> if c = c' then go acc args' tup' else None
          | None ->
            (match List.assoc_opt v acc with
             | Some c' -> if c = c' then go acc args' tup' else None
             | None -> go ((v, c) :: acc) args' tup')))
    | _ -> None
  in
  go prior args tup

(* The probe of an atom: its leftmost column with a known [value] —
   the first column (node id) when it is ground, else any later ground
   column through the store's lazy secondary indexes.  Downward joins
   (parent column bound) and value joins (text column bound) would
   otherwise enumerate the whole relation — on delta evaluation those
   scans dwarfed the delta.  [None] is a scan. *)
let probe_key value (a : Term.atom) =
  let rec go col = function
    | [] -> None
    | t :: rest ->
      (match value t with Some key -> Some (col, key) | None -> go (col + 1) rest)
  in
  go 0 a.Term.args

let candidates store (a : Term.atom) = function
  | None -> Store.tuples store a.Term.pred
  | Some (0, key) -> Store.tuples_with_key store a.Term.pred key
  | Some (col, key) -> Store.tuples_with_col store a.Term.pred col key

let candidate_tuples store env a = candidates store a (probe_key (term_value env) a)

(* Number of argument positions already bound; used to pick the most
   selective literal first. *)
let boundness env (a : Term.atom) =
  List.fold_left
    (fun n t -> match term_value env t with Some _ -> n + 1 | None -> n)
    0 a.Term.args

let ground_term env t = term_value env t <> None


(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let const_int = function
  | Term.Int i -> i
  | Term.Str s ->
    (match int_of_string_opt s with
     | Some i -> i
     | None -> unsafe "aggregate over non-integer value %S" s)

(* Join order of an aggregate's atoms: most-bound-first, greedily.  An
   argument counts as bound when it is a constant, a variable of the
   outer environment, or a variable of an atom already placed; ties keep
   source order.  Which variables are bound does not depend on the
   tuples joined, so one order serves every binding vector.  Source
   order instead lets a pattern like [track(T, ..), rev(_, _, T, R)] with
   [R] bound walk every track and every rev under it. *)
let order_atoms env atoms =
  let score placed (a : Term.atom) =
    List.fold_left
      (fun n t ->
        match t with
        | Term.Const _ -> n + 1
        | Term.Var v when lookup env v <> None || List.mem v placed -> n + 1
        | _ -> n)
      0 a.Term.args
  in
  let rec go placed acc = function
    | [] -> List.rev acc
    | a0 :: rest as atoms ->
      let best, _ =
        List.fold_left
          (fun (b, sb) a ->
            let sa = score placed a in
            if sa > sb then (a, sa) else (b, sb))
          (a0, score placed a0) rest
      in
      let rec remove = function
        | [] -> []
        | x :: xs -> if x == best then xs else x :: remove xs
      in
      go (Term.atom_vars best @ placed) (best :: acc) (remove atoms)
  in
  go [] [] atoms

(* All consistent local-binding vectors of joined tuples matching the
   conjunctive pattern. *)
let agg_matches store env (g : Term.agg) =
  let candidate_with_prior prior (a : Term.atom) =
    (* Use the indexes also when an argument is bound by a prior local
       binding rather than the outer environment. *)
    let value t =
      match term_value env t with
      | Some c -> Some c
      | None ->
        (match t with Term.Var v -> List.assoc_opt v prior | _ -> None)
    in
    candidates store a (probe_key value a)
  in
  List.fold_left
    (fun vecs atom ->
      List.concat_map
        (fun prior ->
          List.filter_map
            (fun tup -> match_tuple ~prior env atom.Term.args tup)
            (candidate_with_prior prior atom))
        vecs)
    [ [] ] (order_atoms env g.Term.atoms)

let eval_agg store env (g : Term.agg) =
  let matches = agg_matches store env g in
  let target_values () =
    match g.Term.target with
    | None -> unsafe "aggregate %s requires a target term" (Term.agg_op_str g.Term.op)
    | Some (Term.Const c) -> List.map (fun _ -> c) matches
    | Some (Term.Param p) -> unsafe "unresolved parameter %%%s in aggregate" p
    | Some (Term.Var v) ->
      List.map
        (fun binds ->
          match List.assoc_opt v binds with
          | Some c -> c
          | None ->
            (match lookup env v with
             | Some c -> c
             | None -> unsafe "aggregate target %s not bound by the aggregated atom" v))
        matches
  in
  match g.Term.op with
  | Term.Cnt -> Term.Int (List.length matches)
  | Term.CntD ->
    (match g.Term.target with
     | Some _ -> Term.Int (List.length (List.sort_uniq compare (target_values ())))
     | None ->
       Term.Int
         (List.length (List.sort_uniq compare (List.map (List.sort compare) matches))))
  | Term.Sum -> Term.Int (List.fold_left (fun a c -> a + const_int c) 0 (target_values ()))
  | Term.SumD ->
    Term.Int
      (List.fold_left (fun a c -> a + const_int c) 0
         (List.sort_uniq compare (target_values ())))
  | Term.Max ->
    (match target_values () with
     | [] -> unsafe "max over an empty aggregate"
     | c :: cs -> List.fold_left max c cs)
  | Term.Min ->
    (match target_values () with
     | [] -> unsafe "min over an empty aggregate"
     | c :: cs -> List.fold_left min c cs)

(* An aggregate is evaluable once every variable it shares with the rest
   of the computation is bound; its local variables never are. *)
let agg_ready body env (g : Term.agg) =
  let local = Term.agg_local_vars body (g : Term.agg) in
  let inner_vars = List.concat_map Term.atom_vars g.Term.atoms in
  let needed =
    List.filter (fun v -> not (List.mem v local)) inner_vars
    @ Term.term_vars g.Term.bound
    @ (match g.Term.target with
       | Some (Term.Var v) when not (List.mem v inner_vars) -> [ v ]
       | _ -> [])
  in
  List.for_all (fun v -> lookup env v <> None) needed

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* Pick the next literal to process.  Preference order:
   1. a ground comparison (cheap test),
   2. an equality that binds a variable,
   3. a ready negation or aggregate (tests, no branching),
   4. the positive literal with the most bound arguments (join step). *)
let pick_literal body env lits =
  let ready_cmp = function
    | Term.Cmp (_, t1, t2) -> ground_term env t1 && ground_term env t2
    | _ -> false
  in
  let binding_eq = function
    | Term.Cmp (Term.Eq, Term.Var v, t) -> lookup env v = None && ground_term env t
    | Term.Cmp (Term.Eq, t, Term.Var v) -> lookup env v = None && ground_term env t
    | _ -> false
  in
  (* A negated atom is ready once every variable it shares with other
     literals is bound; variables occurring only inside it are existential
     locals (anti-join semantics). *)
  let neg_ready (a : Term.atom) =
    let this = Term.Not a in
    List.for_all
      (fun v ->
        lookup env v <> None
        || not
             (List.exists
                (fun l -> l != this && l <> this && List.mem v (Term.lit_vars l))
                body))
      (Term.atom_vars a)
  in
  let ready_neg_or_agg = function
    | Term.Not a -> neg_ready a
    | Term.Agg g -> agg_ready body env g
    | _ -> false
  in
  let take p =
    let rec go acc = function
      | [] -> None
      | l :: rest when p l -> Some (l, List.rev_append acc rest)
      | l :: rest -> go (l :: acc) rest
    in
    go [] lits
  in
  match take ready_cmp with
  | Some r -> Some r
  | None ->
    (match take binding_eq with
     | Some r -> Some r
     | None ->
       (match take ready_neg_or_agg with
        | Some r -> Some r
        | None ->
          let rels = List.filter (function Term.Rel _ -> true | _ -> false) lits in
          (match rels with
           | [] -> None
           | _ ->
             let best =
               List.fold_left
                 (fun best l ->
                   match (l, best) with
                   | Term.Rel a, None -> Some (l, boundness env a)
                   | Term.Rel a, Some (_, s) when boundness env a > s ->
                     Some (l, boundness env a)
                   | _ -> best)
                 None rels
             in
             (match best with
              | Some (l, _) ->
                let rec remove_first = function
                  | [] -> []
                  | x :: rest -> if x == l then rest else x :: remove_first rest
                in
                Some (l, remove_first lits)
              | None -> None))))

let rec solve store body env lits k =
  tick 1;
  match lits with
  | [] -> k env
  | _ ->
    (match pick_literal body env lits with
     | None ->
       unsafe "denial is not safe: cannot schedule remaining literals [%s]"
         (String.concat ", " (List.map Term.lit_str lits))
     | Some (lit, rest) ->
       (match lit with
        | Term.Cmp (op, t1, t2) ->
          (match (term_value env t1, term_value env t2) with
           | Some c1, Some c2 -> if Term.eval_cmp op c1 c2 then solve store body env rest k else false
           | None, Some c ->
             (match t1 with
              | Term.Var v when op = Term.Eq ->
                Hashtbl.add env v c;
                let r = solve store body env rest k in
                Hashtbl.remove env v;
                r
              | _ -> unsafe "unbound term in comparison %s" (Term.lit_str lit))
           | Some c, None ->
             (match t2 with
              | Term.Var v when op = Term.Eq ->
                Hashtbl.add env v c;
                let r = solve store body env rest k in
                Hashtbl.remove env v;
                r
              | _ -> unsafe "unbound term in comparison %s" (Term.lit_str lit))
           | None, None -> unsafe "unbound comparison %s" (Term.lit_str lit))
        | Term.Not a ->
          let tuples = candidate_tuples store env a in
          let holds = List.exists (fun t -> match_tuple env a.Term.args t <> None) tuples in
          if holds then false else solve store body env rest k
        | Term.Agg g ->
          let v = eval_agg store env g in
          (match term_value env g.Term.bound with
           | Some b -> if Term.eval_cmp g.Term.acmp v b then solve store body env rest k else false
           | None -> unsafe "unbound aggregate bound in %s" (Term.lit_str lit))
        | Term.Rel a ->
          let tuples = candidate_tuples store env a in
          List.exists
            (fun tup ->
              match match_tuple env a.Term.args tup with
              | None -> false
              | Some binds ->
                List.iter (fun (v, c) -> Hashtbl.add env v c) binds;
                let r = solve store body env rest k in
                List.iter (fun (v, _) -> Hashtbl.remove env v) binds;
                r)
            tuples))

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let violation_untraced ?(params = []) store (d : Term.denial) =
  let d = Subst.apply_params_denial params d in
  (match Term.denial_params d with
   | [] -> ()
   | ps -> unsafe "denial still contains parameters: %s" (String.concat ", " ps));
  let env : env = Hashtbl.create 16 in
  let found = ref None in
  let _ =
    solve store d.Term.body env d.Term.body (fun env ->
        found := Some (Hashtbl.fold (fun v c acc -> (v, c) :: acc) env []);
        true)
  in
  !found

let c_datalog_steps = Xic_obs.Obs.Metrics.counter "datalog_steps"

let violation ?params store d =
  if not (Xic_obs.Obs.Trace.is_enabled ()) then
    violation_untraced ?params store d
  else
    Xic_obs.Obs.Trace.with_span "datalog:eval" (fun () ->
        let v, steps =
          with_meter (fun () -> violation_untraced ?params store d)
        in
        Xic_obs.Obs.Trace.add_attr "steps" (string_of_int steps);
        Xic_obs.Obs.Metrics.add c_datalog_steps steps;
        v)

let violated ?params store d = violation ?params store d <> None

let violations ?(params = []) store (d : Term.denial) =
  let d = Subst.apply_params_denial params d in
  let env : env = Hashtbl.create 16 in
  let acc = ref [] in
  let _ =
    solve store d.Term.body env d.Term.body (fun env ->
        acc := Hashtbl.fold (fun v c l -> (v, c) :: l) env [] :: !acc;
        false)
  in
  List.rev !acc

let consistent ?params store denials =
  List.for_all (fun d -> not (violated ?params store d)) denials

let first_violated ?params store denials =
  List.find_opt (fun d -> violated ?params store d) denials
