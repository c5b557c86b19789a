(** Compiled evaluation of denials against a fact store.

    {!compile} turns a denial into a plan once: the literal order is
    fixed at compile time by simulating, over the set of variables bound
    so far, the most-bound-literal-first policy of the former
    interpreter ({!Eval_reference}), so the two search the same tuples
    in the same order.  Variables live in the int slots of one array per
    run; each literal becomes a closure that probes the leftmost bound
    column through the {!Store} indexes, matches candidate tuples column
    by column against constants and slots, and calls the next literal's
    closure.  Relation symbols are resolved once per plan.  Denials whose
    literals cannot all be scheduled raise {!Unsafe} at compile time. *)

module Symbol = Xic_symbol.Symbol
module Obs = Xic_obs.Obs

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

(* ------------------------------------------------------------------ *)
(* Plan representation                                                 *)
(* ------------------------------------------------------------------ *)

(* A term's value at some point of a plan: a constant, or a slot bound
   earlier in the plan (or by the caller, for inputs). *)
type value = K of Term.const | S of int

(* How one column of a candidate tuple is matched. *)
type col =
  | Eq_const of Term.const
  | Eq_slot of int  (* bound before this column *)
  | Bind of int  (* first occurrence: store the column in the slot *)

(* A relation, resolved to its symbol on first use.  A name that was
   never interned has no tuples; it is looked up again on the next run,
   since a later insertion may intern it. *)
type rel = { name : string; mutable sym : Symbol.t option }

type atom_code = {
  rel : rel;
  probe : (int * value) option;  (* leftmost bound column, else a scan *)
  cols : col array;
}

(* One run's state: the store, the slot array and the witness callback
   (its result: stop the search). *)
type frame = {
  store : Store.t;
  slots : Term.const array;
  emit : unit -> bool;
}

(* A literal's closure: [true] once the search must stop. *)
type node = frame -> bool

type plan = {
  root : node;
  nslots : int;
  ninputs : int;
  witness : (string * int) array;  (* named non-input bindings, slot order *)
  var_slots : (string * int) list;  (* inputs and witness variables *)
}

let get fr = function K c -> c | S i -> Array.unsafe_get fr.slots i

(* Match [tup] against the column codes, binding slots as it goes; the
   arities must agree.  Top-level loops, so the hot path allocates no
   closure. *)
let rec match_from slots cols n i = function
  | [] -> i = n
  | c :: rest ->
    i < n
    && (match Array.unsafe_get cols i with
        | Eq_const k -> Term.equal_const c k
        | Eq_slot s -> Term.equal_const c (Array.unsafe_get slots s)
        | Bind s ->
          Array.unsafe_set slots s c;
          true)
    && match_from slots cols n (i + 1) rest

let match_cols slots cols tup = match_from slots cols (Array.length cols) 0 tup

(* The join step: every candidate that matches runs the continuation,
   until one stops the search. *)
let rec join cols k fr = function
  | [] -> false
  | tup :: rest ->
    tick 1;
    (match_cols fr.slots cols tup && k fr) || join cols k fr rest

(* The anti-join step: does any candidate match? *)
let rec any_match slots cols = function
  | [] -> false
  | tup :: rest ->
    tick 1;
    match_cols slots cols tup || any_match slots cols rest

let resolve r =
  match r.sym with
  | Some _ as s -> s
  | None ->
    if Symbol.mem r.name then begin
      let s = Some (Symbol.intern r.name) in
      r.sym <- s;
      s
    end
    else None

let candidates fr (a : atom_code) =
  match resolve a.rel with
  | None -> []
  | Some sym ->
    (match a.probe with
     | None -> Store.tuples_sym fr.store sym
     | Some (col, v) -> Store.tuples_with_col_sym fr.store sym col (get fr v))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type key = V of string | P of string

module KS = Set.Make (struct
  type t = key

  let compare = compare
end)

type cstate = {
  slot_of : (key, int) Hashtbl.t;
  mutable nslots : int;
  mutable bound : KS.t;  (* keys bound at the current point of the plan *)
}

let slot_index cs k =
  match Hashtbl.find_opt cs.slot_of k with
  | Some i -> i
  | None ->
    let i = cs.nslots in
    Hashtbl.add cs.slot_of k i;
    cs.nslots <- i + 1;
    i

let key_of = function
  | Term.Var v -> Some (V v)
  | Term.Param p -> Some (P p)
  | Term.Const _ -> None

let is_bound bound t =
  match key_of t with None -> true | Some k -> KS.mem k bound

let value cs t =
  match (t, key_of t) with
  | Term.Const c, _ -> Some (K c)
  | _, Some k when KS.mem k cs.bound -> Some (S (slot_index cs k))
  | _ -> None

let value_exn cs t =
  match value cs t with
  | Some v -> v
  | None -> unsafe "unbound term %s" (Term.term_str t)

(* Column codes of an atom under the bound set [cs.bound]; returns the
   code and the bound set extended by the atom's first occurrences. *)
let compile_atom cs (a : Term.atom) =
  let rec probe col = function
    | [] -> None
    | t :: rest ->
      (match value cs t with Some v -> Some (col, v) | None -> probe (col + 1) rest)
  in
  let bound = ref cs.bound in
  let cols =
    List.map
      (fun t ->
        match t with
        | Term.Const c -> Eq_const c
        | Term.Var _ | Term.Param _ ->
          let k = Option.get (key_of t) in
          if KS.mem k !bound then Eq_slot (slot_index cs k)
          else begin
            bound := KS.add k !bound;
            Bind (slot_index cs k)
          end)
      a.Term.args
  in
  ( { rel = { name = a.Term.pred; sym = None }; probe = probe 0 a.Term.args;
      cols = Array.of_list cols },
    !bound )

(* Literal choice, the interpreter's policy evaluated over bound sets.
   Preference order:
   1. a ground comparison (cheap test),
   2. an equality that binds a variable,
   3. a ready negation or aggregate (tests, no branching),
   4. the positive literal with the most bound arguments (join step),
      the first one on ties.
   Which variables are bound does not depend on the tuples joined, so
   the whole order is known before any tuple is seen. *)
let pick body bound lits =
  let ground = is_bound bound in
  let bound_var v = KS.mem (V v) bound in
  let ready_cmp = function
    | Term.Cmp (_, t1, t2) -> ground t1 && ground t2
    | _ -> false
  in
  let binding_eq = function
    | Term.Cmp (Term.Eq, Term.Var v, t) -> (not (bound_var v)) && ground t
    | Term.Cmp (Term.Eq, t, Term.Var v) -> (not (bound_var v)) && ground t
    | _ -> false
  in
  (* A negated atom is ready once every variable it shares with other
     literals is bound; variables occurring only inside it are
     existential locals (anti-join semantics). *)
  let neg_ready (a : Term.atom) =
    let this = Term.Not a in
    List.for_all
      (fun v ->
        bound_var v
        || not
             (List.exists
                (fun l -> l != this && l <> this && List.mem v (Term.lit_vars l))
                body))
      (Term.atom_vars a)
  in
  (* An aggregate is ready once every variable it shares with the rest
     of the body is bound; its local variables never are. *)
  let agg_ready (g : Term.agg) =
    let local = Term.agg_local_vars body g in
    let inner = List.concat_map Term.atom_vars g.Term.atoms in
    let needed =
      List.filter (fun v -> not (List.mem v local)) inner
      @ Term.term_vars g.Term.bound
      @ (match g.Term.target with
         | Some (Term.Var v) when not (List.mem v inner) -> [ v ]
         | _ -> [])
    in
    List.for_all bound_var needed
  in
  let ready_test = function
    | Term.Not a -> neg_ready a
    | Term.Agg g -> agg_ready g
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
  let boundness (a : Term.atom) =
    List.fold_left (fun n t -> if ground t then n + 1 else n) 0 a.Term.args
  in
  let most_bound () =
    let best =
      List.fold_left
        (fun best l ->
          match (l, best) with
          | Term.Rel a, None -> Some (l, boundness a)
          | Term.Rel a, Some (_, s) when boundness a > s -> Some (l, boundness a)
          | _ -> best)
        None lits
    in
    Option.map
      (fun (l, _) ->
        let rec remove_first = function
          | [] -> []
          | x :: rest -> if x == l then rest else x :: remove_first rest
        in
        (l, remove_first lits))
      best
  in
  match take ready_cmp with
  | Some r -> Some r
  | None ->
    (match take binding_eq with
     | Some r -> Some r
     | None ->
       (match take ready_test with Some r -> Some r | None -> most_bound ()))

(* Join order of an aggregate's atoms: most-bound-first, greedily.  An
   argument counts as bound when it is a constant, an input, a variable
   bound before the aggregate, or a variable of an atom already placed;
   ties keep source order. *)
let order_atoms bound atoms =
  let score placed (a : Term.atom) =
    List.fold_left
      (fun n t ->
        match t with
        | Term.Var v when List.mem v placed -> n + 1
        | _ -> if is_bound bound t then n + 1 else n)
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

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let const_int = function
  | Term.Int i -> i
  | Term.Str s ->
    (match int_of_string_opt s with
     | Some i -> i
     | None -> unsafe "aggregate over non-integer value %S" s)

(* What one aggregate evaluation collects over its matches. *)
type agg_acc = {
  mutable count : int;
  mutable vals : Term.const list;  (* target values *)
  mutable vecs : Term.const list list;  (* local-variable vectors *)
}

let agg_value (g : Term.agg) acc =
  let targets () =
    match g.Term.target with
    | None -> unsafe "aggregate %s requires a target term" (Term.agg_op_str g.Term.op)
    | Some _ -> acc.vals
  in
  match g.Term.op with
  | Term.Cnt -> Term.Int acc.count
  | Term.CntD ->
    (match g.Term.target with
     | Some _ -> Term.Int (List.length (List.sort_uniq compare acc.vals))
     | None -> Term.Int (List.length (List.sort_uniq compare acc.vecs)))
  | Term.Sum -> Term.Int (List.fold_left (fun a c -> a + const_int c) 0 (targets ()))
  | Term.SumD ->
    Term.Int
      (List.fold_left (fun a c -> a + const_int c) 0
         (List.sort_uniq compare (targets ())))
  | Term.Max ->
    (match targets () with
     | [] -> unsafe "max over an empty aggregate"
     | c :: cs -> List.fold_left max c cs)
  | Term.Min ->
    (match targets () with
     | [] -> unsafe "min over an empty aggregate"
     | c :: cs -> List.fold_left min c cs)

(* The aggregate's closure: enumerate the joins of its atoms in
   [order_atoms] order, fold them into an [agg_acc], compare. *)
let compile_agg cs (g : Term.agg) : node -> node =
  let outer = cs.bound in
  let codes =
    List.map
      (fun a ->
        let code, bound = compile_atom cs a in
        cs.bound <- bound;
        code)
      (order_atoms outer g.Term.atoms)
  in
  let locals =
    KS.elements (KS.diff cs.bound outer) |> List.map (slot_index cs)
    |> List.sort compare
  in
  let target = Option.map (value_exn cs) g.Term.target in
  cs.bound <- outer;
  let bound = value_exn cs g.Term.bound in
  let record : frame -> agg_acc -> unit =
    match (g.Term.op, target) with
    | Term.Cnt, _ -> fun _ acc -> acc.count <- acc.count + 1
    | Term.CntD, None ->
      fun fr acc -> acc.vecs <- List.map (Array.get fr.slots) locals :: acc.vecs
    | _, Some t -> fun fr acc -> acc.vals <- get fr t :: acc.vals
    | _, None -> fun _ _ -> ()
  in
  let enum =
    List.fold_right
      (fun code next fr acc ->
        List.iter
          (fun tup ->
            tick 1;
            if match_cols fr.slots code.cols tup then next fr acc)
          (candidates fr code))
      codes record
  in
  let acmp = g.Term.acmp in
  fun k fr ->
    tick 1;
    let acc = { count = 0; vals = []; vecs = [] } in
    enum fr acc;
    Term.eval_cmp acmp (agg_value g acc) (get fr bound) && k fr

(* ------------------------------------------------------------------ *)
(* Body literals                                                       *)
(* ------------------------------------------------------------------ *)

(* Compile a picked literal into a function from its continuation to
   its closure, advancing the bound set. *)
let compile_lit cs lit : node -> node =
  match lit with
  | Term.Cmp (op, t1, t2) ->
    (match (value cs t1, value cs t2) with
     | Some a, Some b ->
       fun k fr ->
         tick 1;
         Term.eval_cmp op (get fr a) (get fr b) && k fr
     | None, Some b | Some b, None ->
       let v =
         match (op, t1, t2) with
         | Term.Eq, Term.Var v, _ when value cs t1 = None -> v
         | Term.Eq, _, Term.Var v -> v
         | _ -> unsafe "unbound term in comparison %s" (Term.lit_str lit)
       in
       cs.bound <- KS.add (V v) cs.bound;
       let s = slot_index cs (V v) in
       fun k fr ->
         tick 1;
         Array.unsafe_set fr.slots s (get fr b);
         k fr
     | None, None -> unsafe "unbound comparison %s" (Term.lit_str lit))
  | Term.Not a ->
    let code, _ = compile_atom cs a in
    fun k fr ->
      tick 1;
      (not (any_match fr.slots code.cols (candidates fr code))) && k fr
  | Term.Agg g -> compile_agg cs g
  | Term.Rel a ->
    let code, bound = compile_atom cs a in
    cs.bound <- bound;
    fun k fr ->
      tick 1;
      join code.cols k fr (candidates fr code)

let c_plan_compiles = Obs.Metrics.counter "datalog_plan_compiles"

let compile ?(inputs = []) (d : Term.denial) =
  Obs.Metrics.incr c_plan_compiles;
  let cs = { slot_of = Hashtbl.create 16; nslots = 0; bound = KS.empty } in
  List.iter
    (fun t ->
      match key_of t with
      | None -> invalid_arg "Eval.compile: an input must be a variable or a parameter"
      | Some k ->
        if KS.mem k cs.bound then invalid_arg "Eval.compile: repeated input";
        ignore (slot_index cs k);
        cs.bound <- KS.add k cs.bound)
    inputs;
  let input_keys = cs.bound in
  (match
     List.filter (fun p -> not (KS.mem (P p) input_keys)) (Term.denial_params d)
   with
   | [] -> ()
   | ps -> unsafe "denial still contains parameters: %s" (String.concat ", " ps));
  let body = d.Term.body in
  let rec schedule acc = function
    | [] -> acc
    | lits ->
      (match pick body cs.bound lits with
       | None ->
         unsafe "denial is not safe: cannot schedule remaining literals [%s]"
           (String.concat ", " (List.map Term.lit_str lits))
       | Some (lit, rest) -> schedule (compile_lit cs lit :: acc) rest)
  in
  let wraps = schedule [] body in
  let emit : node =
   fun fr ->
    tick 1;
    fr.emit ()
  in
  (* [wraps] is last literal first: wrap inside out *)
  let root = List.fold_left (fun k wrap -> wrap k) emit wraps in
  let var_slots =
    KS.fold
      (fun k acc -> match k with V v -> (v, slot_index cs k) :: acc | P _ -> acc)
      cs.bound []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let witness =
    List.filter (fun (v, _) -> not (KS.mem (V v) input_keys)) var_slots
  in
  { root; nslots = cs.nslots; ninputs = List.length inputs;
    witness = Array.of_list witness; var_slots }

let slot plan v =
  match List.assoc_opt v plan.var_slots with
  | Some i -> i
  | None -> invalid_arg ("Eval.slot: " ^ v ^ " is not bound in every witness")

let bindings plan slots =
  Array.fold_right (fun (v, i) acc -> (v, slots.(i)) :: acc) plan.witness []

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_untraced all plan store inputs f =
  if Array.length inputs <> plan.ninputs then
    invalid_arg "Eval.run: wrong number of inputs";
  let slots = Array.make plan.nslots (Term.Int 0) in
  Array.blit inputs 0 slots 0 plan.ninputs;
  let found = ref false in
  let emit () =
    found := true;
    f slots;
    not all
  in
  ignore (plan.root { store; slots; emit });
  !found

let c_datalog_steps = Obs.Metrics.counter "datalog_steps"

let run ?(all = false) plan store inputs f =
  if not (Obs.Trace.is_enabled ()) then run_untraced all plan store inputs f
  else
    Obs.Trace.with_span "datalog:eval" (fun () ->
        let v, steps = with_meter (fun () -> run_untraced all plan store inputs f) in
        Obs.Trace.add_attr "steps" (string_of_int steps);
        Obs.Metrics.add c_datalog_steps steps;
        v)

(* ------------------------------------------------------------------ *)
(* One-shot API: compile, then run                                     *)
(* ------------------------------------------------------------------ *)

(* The plan of [d] with the parameters it mentions as inputs, and their
   values; parameters missing from [params] make it {!Unsafe}. *)
let with_params params d =
  let given =
    List.filter_map
      (fun p -> Option.map (fun c -> (p, c)) (List.assoc_opt p params))
      (Term.denial_params d)
  in
  ( compile ~inputs:(List.map (fun (p, _) -> Term.Param p) given) d,
    Array.of_list (List.map snd given) )

let violation ?(params = []) store d =
  let plan, inputs = with_params params d in
  let found = ref None in
  ignore (run plan store inputs (fun slots -> found := Some (bindings plan slots)));
  !found

let violated ?(params = []) store d =
  let plan, inputs = with_params params d in
  run plan store inputs ignore

let violations ?(params = []) store d =
  let plan, inputs = with_params params d in
  let acc = ref [] in
  ignore
    (run ~all:true plan store inputs (fun slots ->
         acc := bindings plan slots :: !acc));
  List.rev !acc

let consistent ?params store denials =
  List.for_all (fun d -> not (violated ?params store d)) denials

let first_violated ?params store denials =
  List.find_opt (fun d -> violated ?params store d) denials
