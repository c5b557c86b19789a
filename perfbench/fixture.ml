(* Seeded inputs: the conference dataset, the files xicheck is given,
   the guard stream, and the in-process reference repository that every
   verdict is compared with. *)

module Gen = Xic_workload.Generator
module Conf = Xic_workload.Conference
module R = Xic_core.Repository
module XU = Xic_xupdate.Xupdate

type rev = {
  track : int;  (* 1-based track position *)
  pos : int;  (* 1-based rev position inside its track *)
  name : string;
  mutable subs : int;  (* submissions, counting legal guards issued so far *)
}

type t = {
  seed : int;
  dir : string;
  ds : Gen.dataset;
  revs : rev array;
  coauthored : (int * string) array;
      (* (rev index, a co-author of that reviewer in pub.xml) *)
  pub_dtd : string;
  rev_dtd : string;
  pub_xml : string;
  rev_xml : string;
  constraints : string;
  pattern : string;
}

let constraint_sources =
  [ ("conflict", Conf.conflict_source);
    ("workload", Conf.workload_source);
    ("track_load", Conf.track_load_source) ]

let pattern_source =
  {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:insert-after select="//sub">
    <xupdate:element name="sub"><title>%t</title><auts><name>%n</name></auts></xupdate:element>
  </xupdate:insert-after>
</xupdate:modifications>
|}

(* The generator writes tags without attributes or whitespace, so a
   linear tag scan recovers the structure the guard stream needs. *)
let fold_tags s f init =
  let n = String.length s in
  let rec go i acc =
    match String.index_from_opt s i '<' with
    | None -> acc
    | Some lt ->
      (match String.index_from_opt s lt '>' with
       | None -> acc
       | Some gt ->
         let tag = String.sub s (lt + 1) (gt - lt - 1) in
         let text_end =
           match String.index_from_opt s gt '<' with Some j -> j | None -> n
         in
         let text = String.sub s (gt + 1) (text_end - gt - 1) in
         go (gt + 1) (f acc tag text))
  in
  go 0 init

let scan_revs rev_xml =
  let revs = ref [] and track = ref 0 and pos = ref 0 in
  let want_name = ref false in
  fold_tags rev_xml
    (fun () tag text ->
      match tag with
      | "track" ->
        incr track;
        pos := 0
      | "rev" ->
        incr pos;
        want_name := true
      | "name" when !want_name ->
        want_name := false;
        revs := { track = !track; pos = !pos; name = text; subs = 0 } :: !revs
      | "sub" -> (match !revs with r :: _ -> r.subs <- r.subs + 1 | [] -> ())
      | _ -> ())
    ();
  Array.of_list (List.rev !revs)

let scan_pubs pub_xml =
  let pubs = ref [] and cur = ref [] in
  fold_tags pub_xml
    (fun () tag text ->
      match tag with
      | "pub" -> cur := []
      | "name" -> cur := text :: !cur
      | "/pub" -> pubs := !cur :: !pubs
      | _ -> ())
    ();
  !pubs

let busy_name (ds : Gen.dataset) = ds.Gen.busy_reviewer

let coauthor_pairs ds revs pubs =
  let coauthors = Hashtbl.create 64 in
  List.iter
    (fun names ->
      List.iter
        (fun r ->
          List.iter (fun a -> if a <> r then Hashtbl.add coauthors r a) names)
        names)
    pubs;
  let pairs = ref [] in
  Array.iteri
    (fun i rv ->
      if rv.name <> busy_name ds then
        List.iter
          (fun a -> pairs := (i, a) :: !pairs)
          (List.sort_uniq compare (Hashtbl.find_all coauthors rv.name)))
    revs;
  Array.of_list (List.rev !pairs)

let create ~seed ~bytes ~dir =
  Util.mkdir_p dir;
  let ds = Gen.generate ~seed ~target_bytes:bytes () in
  let revs = scan_revs ds.Gen.rev_xml in
  let coauthored = coauthor_pairs ds revs (scan_pubs ds.Gen.pub_xml) in
  if Array.length coauthored = 0 then failwith "dataset has no co-authored reviewer";
  let path name = Filename.concat dir name in
  let fx =
    { seed; dir; ds; revs; coauthored;
      pub_dtd = path "pub.dtd"; rev_dtd = path "rev.dtd";
      pub_xml = path "pub.xml"; rev_xml = path "rev.xml";
      constraints = path "constraints.xpl"; pattern = path "pattern.xml" }
  in
  Util.write_file fx.pub_dtd Conf.pub_dtd;
  Util.write_file fx.rev_dtd Conf.rev_dtd;
  Util.write_file fx.pub_xml ds.Gen.pub_xml;
  Util.write_file fx.rev_xml ds.Gen.rev_xml;
  Util.write_file fx.constraints
    (String.concat ""
       (List.map (fun (n, src) -> n ^ ": " ^ src ^ "\n") constraint_sources));
  Util.write_file fx.pattern pattern_source;
  fx

let dataset_bytes fx = fx.ds.Gen.stats.Gen.bytes

let dtd_args fx =
  [ "--dtd"; fx.pub_dtd ^ "=dblp"; "--dtd"; fx.rev_dtd ^ "=review" ]

let doc_args fx = [ "--doc"; fx.pub_xml; "--doc"; fx.rev_xml ]

(* ------------------------------------------------------------------ *)
(* Guard stream                                                        *)
(* ------------------------------------------------------------------ *)

type kind =
  | Legal  (** fresh author under a reviewer with slack: applied *)
  | Self_conflict  (** the reviewer as author: conflict's cheap disjunct *)
  | Coauthor  (** a co-author of the reviewer: conflict's [//aut] part *)
  | Overload  (** one submission too many: workload or track_load *)

let kind_name = function
  | Legal -> "legal"
  | Self_conflict -> "self_conflict"
  | Coauthor -> "coauthor"
  | Overload -> "overload"

exception Exhausted

(* Guard [i] draws its kind from [cycle.(i mod length)], each entry a
   weighted choice. *)
type stream = {
  fx : t;
  rng : Random.State.t;
  cycle : (kind * int) list array;
  mutable issued : int;
}

let stream fx cycle =
  { fx; rng = Random.State.make [| fx.seed; 0x5eed |]; cycle = Array.of_list cycle; issued = 0 }

let select (rv : rev) = Printf.sprintf "/review/track[%d]/rev[%d]/sub[1]" rv.track rv.pos

let statement ~select ~title ~author =
  XU.to_string (Conf.insert_submission ~select ~title ~author)

(* A random rev satisfying [ok]: random probes first, then a scan so an
   almost-full dataset still finds its last slots. *)
let pick_rev st ok =
  let revs = st.fx.revs in
  let n = Array.length revs in
  let rec probe k =
    if k = 0 then
      match List.find_opt ok (Array.to_list revs) with
      | Some rv -> rv
      | None -> raise Exhausted
    else
      let rv = revs.(Random.State.int st.rng n) in
      if ok rv then rv else probe (k - 1)
  in
  probe 64

let draw_kind st =
  let weights = st.cycle.(st.issued mod Array.length st.cycle) in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  let x = Random.State.int st.rng total in
  let rec go acc = function
    | [ (k, _) ] -> k
    | (k, w) :: rest -> if x < acc + w then k else go (acc + w) rest
    | [] -> assert false
  in
  go 0 weights

(* The next guard of the stream: its intended kind and its XUpdate
   statement.  Legal guards book their slot, so later legal guards never
   push a reviewer past track_load's bound.
   @raise Exhausted when no reviewer has a free slot left. *)
let next st =
  let fx = st.fx in
  let i = st.issued in
  let kind = draw_kind st in
  st.issued <- i + 1;
  let title = Printf.sprintf "Bench Paper %d-%d" fx.seed i in
  let fresh = Printf.sprintf "Qz Fresh Author %d-%d" fx.seed i in
  let busy = busy_name fx.ds in
  match kind with
  | Legal ->
    let rv = pick_rev st (fun rv -> rv.subs < 4 && rv.name <> busy) in
    rv.subs <- rv.subs + 1;
    (Legal, statement ~select:(select rv) ~title ~author:fresh)
  | Self_conflict ->
    let rv = pick_rev st (fun rv -> rv.name <> busy) in
    (Self_conflict, statement ~select:(select rv) ~title ~author:rv.name)
  | Coauthor ->
    let ri, author =
      fx.coauthored.(Random.State.int st.rng (Array.length fx.coauthored))
    in
    (Coauthor, statement ~select:(select fx.revs.(ri)) ~title ~author)
  | Overload ->
    let full = List.exists (fun rv -> rv.subs >= 4) (Array.to_list fx.revs) in
    if full && Random.State.bool st.rng then
      let rv = pick_rev st (fun rv -> rv.subs >= 4) in
      (Overload, statement ~select:(select rv) ~title ~author:fresh)
    else (Overload, statement ~select:fx.ds.Gen.busy_select ~title ~author:fresh)

(* ------------------------------------------------------------------ *)
(* Reference repository                                                *)
(* ------------------------------------------------------------------ *)

let schema () =
  Xic_core.Schema.create [ (Conf.pub_dtd, "dblp"); (Conf.rev_dtd, "review") ]

let constraints s =
  List.map
    (fun (name, src) -> Xic_core.Constr.make s ~name src)
    constraint_sources

let pattern s =
  match XU.parse_string pattern_source with
  | [ m ] -> Xic_core.Pattern.of_modification s ~name:"pattern" m
  | _ -> failwith "pattern template must hold one modification"

(* The state [xicheck serve --doc ...] builds: validated fused loads of
   both documents, the three constraints, the submission pattern, and
   incremental checking on. *)
let reference_repo fx =
  let s = schema () in
  let repo = R.create s in
  R.load_fused repo fx.ds.Gen.pub_xml;
  R.load_fused repo fx.ds.Gen.rev_xml;
  List.iter (R.add_constraint repo) (constraints s);
  R.register_pattern repo (pattern s);
  R.set_incremental repo true;
  repo

(* The verdict as the server words it: "applied", "rejected:C" or
   "rolled_back:C". *)
let outcome_string = function
  | R.Applied _ -> "applied"
  | R.Rejected_early c -> "rejected:" ^ c
  | R.Rolled_back c -> "rolled_back:" ^ c
