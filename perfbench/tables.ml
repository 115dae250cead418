(* The two table workloads: registry tables run in-process through
   [Core.Exp_registry.measured_table], at their [all --fast] sizes with
   the workload seed, repeated for the measured window. *)

open Util
module R = Core.Exp_registry

let sketch_ids =
  [ "connectivity"; "info-accounting"; "upper-bounds"; "bridge"; "streams"; "coloring-contrast" ]

let trials_ids =
  [
    "claim31";
    "budget-sweep";
    "k-sweep";
    "estimate-info";
    "behrend";
    "packing";
    "reduction";
    "yao";
    "bcc";
    "round-frontier";
    "hypergraph-mm";
  ]

let find id =
  match Core.Exp_all.find id with Some e -> e | None -> failwith ("unknown experiment " ^ id)

(* The verdict columns of each table. [`Holds c]: the boolean column [c]
   is true on every row, by construction of the program. [`Whp c] and
   [`Agrees (a, b)] (column [a] equals its exact oracle [b]) come from
   randomized sketches, sampling or a statistical test, and hold with
   high probability only: at the commit that introduced this benchmark,
   connectivity's certificate misses at seed 605 and its bipartiteness
   sketch at seed 118, about one seed in a hundred
   ([sketchlb connectivity --seed 605] shows it). *)
let verdicts = function
  | "connectivity" ->
      [
        `Whp "cert_valid";
        `Agrees ("estimate", "truth");
        `Agrees ("bipartite_sketch", "bipartite_truth");
      ]
  | "info-accounting" -> [ `Holds "ok" ]
  | "upper-bounds" ->
      [ `Whp "agm_ok"; `Whp "coloring_ok"; `Holds "two_round_mm_ok"; `Holds "two_round_mis_ok" ]
  | "streams" -> [ `Whp "forest_ok"; `Holds "messages_identical"; `Holds "greedy_mm_ok" ]
  | "coloring-contrast" -> [ `Whp "proper" ]
  | "claim31" -> [ `Whp "consistent" ]
  | "reduction" -> [ `Holds "lemma41_all"; `Holds "complete_all"; `Holds "min_rule_exact_all" ]
  | "yao" -> [ `Holds "dominates" ]
  | "bcc" -> [ `Holds "bcc_maximal" ]
  | "round-frontier" -> [ `Holds "maximal" ]
  | "hypergraph-mm" -> [ `Holds "triv_ok"; `Holds "it_ok"; `Holds "luby_ok" ]
  | _ -> []

(* Every high-probability verdict that missed, for the report. *)
let whp_misses : string list ref = ref []

(* A [`Holds] verdict is checked on every row. High-probability misses
   are reported; one in a table is the sketches' failure probability at
   work, two or more is a broken table, and fails the check. *)
let check_verdicts id (tbl : T.table) =
  let rows = List.map (fun r -> Net.json (T.json_of_row tbl.T.schema r)) tbl.T.rows in
  Ledger.check (id ^ ": table has rows") (rows <> []);
  let misses = ref 0 in
  let miss what =
    incr misses;
    whp_misses := what :: !whp_misses
  in
  List.iter
    (fun v ->
      List.iteri
        (fun i row ->
          let what c = Printf.sprintf "%s row %d: %s" id i c in
          let is_true c = T.member c row = Some (T.Jbool true) in
          match v with
          | `Holds c -> Ledger.check (what c) (is_true c)
          | `Whp c -> if not (is_true c) then miss (what c)
          | `Agrees (a, b) ->
              let va = T.member a row and vb = T.member b row in
              Ledger.check (what (a ^ " present")) (va <> None && vb <> None);
              if va <> vb then miss (what (a ^ " = " ^ b)))
        rows)
    (verdicts id);
  Ledger.check
    (Printf.sprintf "%s: at most one high-probability verdict missed (%d)" id !misses)
    (!misses <= 1)

(* The first binding of a name wins when the registry merges overrides. *)
let with_seed ~seed ~jobs ps = [ ("seed", R.Vint seed); ("jobs", R.Vint jobs) ] @ ps
let fast ~seed ~jobs e = with_seed ~seed ~jobs (R.overrides_for ~fast:true e)

type call = { id : string; text : string; wall : float; gc : R.gc_cost }

(* One pass over the set: every table once, in order. *)
let pass ?(params = fast) ~seed ~jobs ids =
  List.map
    (fun id ->
      let e = find id in
      let (tbl, gc), wall = timed (fun () -> R.measured_table e (params ~seed ~jobs e)) in
      (tbl, { id; text = T.to_text tbl; wall; gc }))
    ids

let pass_wall calls = List.fold_left (fun acc c -> acc +. c.wall) 0. calls

(* Set-up: one pass at smoke sizes, which loads code, grows the heap and
   fills the scratch arenas (and, at jobs > 1, spawns domains) before the
   first timed pass. *)
let setup ~seed ~jobs ids =
  ignore (pass ~params:(fun ~seed ~jobs e -> with_seed ~seed ~jobs (R.smoke e)) ~seed ~jobs ids)

type result = {
  setup_s : float array;
  by_table : (string * float array) list;  (** every call's wall per table, s, in set order *)
  passes : int;
  total_s : float;  (** measured window *)
}

type set = { ids : string list; jobs : int; setups : int }

(* The trials set-up takes milliseconds, so it gets more repeats for a
   steady median. *)
let set_of = function
  | "tables-trials" -> { ids = trials_ids; jobs = 2; setups = 9 }
  | _ -> { ids = sketch_ids; jobs = 1; setups = 5 }

(* Run the set for [seconds] (at least three passes). Every pass must
   render byte-identical text to the first, and one extra pass at the
   other job count must too: the determinism contract. *)
let run ~workload ~seed ~seconds =
  let { ids; jobs; setups } = set_of workload in
  let setup_s = Array.init setups (fun _ -> snd (timed (fun () -> setup ~seed ~jobs ids))) in
  let t0 = now () in
  let per = List.map (fun id -> (id, Samples.create ())) ids in
  let first = ref [] in
  let npass = ref 0 in
  while !npass < 3 || now () -. t0 < seconds do
    let results = pass ~seed ~jobs ids in
    let cs = List.map snd results in
    if !npass = 0 then begin
      first := cs;
      List.iter (fun (tbl, c) -> check_verdicts c.id tbl) results
    end
    else
      List.iter2
        (fun a b ->
          Ledger.check (Printf.sprintf "%s: pass %d text identical" a.id !npass) (a.text = b.text))
        !first cs;
    List.iter (fun c -> Samples.add (List.assoc c.id per) c.wall) cs;
    incr npass
  done;
  let total_s = now () -. t0 in
  let other = if jobs = 1 then 2 else 1 in
  List.iter2
    (fun a (_, b) ->
      Ledger.check
        (Printf.sprintf "%s: text identical at -j %d and -j %d" a.id jobs other)
        (a.text = b.text))
    !first (pass ~seed ~jobs:other ids);
  {
    setup_s;
    by_table = List.map (fun (id, s) -> (id, Samples.to_array s)) per;
    passes = !npass;
    total_s;
  }
