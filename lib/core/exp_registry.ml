(* Experiment values: every DESIGN.md §4 table is one [experiment] record
   built by [make], and [Exp_all.experiments] lists them all.

   An experiment declares its parameter spec once ([params], including the
   uniform [seed]/[jobs] knobs) and the CLI, the `all` runner, the bench
   JSON writer and the tests all derive their behaviour from it — adding a
   workload is one [make] value plus one line in [Exp_all.experiments]. *)

module T = Report.Tabular

exception Unknown_param of string
exception Wrong_param_type of string

(* ------------------------------------------------------------------ *)
(* Parameter specs                                                     *)

type pvalue = Vint of int | Vints of int list

type param = {
  name : string;  (* merge key, JSON name *)
  keys : string list;  (* CLI flag names, e.g. ["j"; "jobs"] *)
  doc : string;
  default : pvalue;
}

type params = (string * pvalue) list

let int_param ?keys ?(doc = "") name default =
  { name; keys = Option.value keys ~default:[ name ]; doc; default = Vint default }

let ints_param ?keys ?(doc = "") name default =
  { name; keys = Option.value keys ~default:[ name ]; doc; default = Vints default }

let seed_param ?(doc = "Random seed.") () = int_param "seed" ~doc 7

let jobs_param =
  int_param "jobs" ~keys:[ "j"; "jobs" ]
    ~doc:"Worker domains for trial sharding (0 = Domain.recommended_domain_count)." 0

(* Every experiment takes [seed] and [jobs], uniformly — no CLI special
   cases. Tables that are deterministic or sequential simply ignore them
   (their [~doc] says so). *)
let std_params ?seed_doc specific = specific @ [ seed_param ?doc:seed_doc (); jobs_param ]

let int_value ps name =
  match List.assoc_opt name ps with
  | Some (Vint i) -> i
  | Some (Vints _) -> raise (Wrong_param_type name)
  | None -> raise (Unknown_param name)

let ints_value ps name =
  match List.assoc_opt name ps with
  | Some (Vints l) -> l
  | Some (Vint _) -> raise (Wrong_param_type name)
  | None -> raise (Unknown_param name)

let seed ps = int_value ps "seed"
let jobs ps = match int_value ps "jobs" with j when j <= 0 -> None | j -> Some j

(* Spec defaults overlaid with caller overrides; overriding a name the
   spec does not declare is an error (it would be silently ignored). *)
let merge spec overrides =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun p -> p.name = name) spec) then raise (Unknown_param name))
    overrides;
  List.map
    (fun p ->
      (p.name, match List.assoc_opt p.name overrides with Some v -> v | None -> p.default))
    spec

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)

(* GC cost of one experiment body, measured on the calling domain. *)
type gc_cost = { alloc_bytes : float; minor_collections : int; major_collections : int }

(* The typed row lives only inside [measured], which [make] closes over
   the experiment's [run], [to_row], [preamble] and [footer]. *)
type experiment = {
  id : string;  (* CLI subcommand and catalogue key, e.g. "claim31" *)
  title : string;  (* short table tag, e.g. "T3" *)
  doc : string;  (* one-line description (CLI help, `list`) *)
  params : param list;
  fast : params;  (* `all --fast` sizes *)
  full : params;  (* `all` sizes *)
  smoke : params;  (* tiny sizes for the registry test *)
  measured : params -> T.table * gc_cost;  (* takes merged params *)
}

(* Trace annotations for one experiment run: every (name, value) of the
   merged parameter list, so a span in the viewer identifies the exact
   configuration (seed included) that produced it. Built lazily — the
   thunk is only evaluated when tracing is enabled. *)
let trace_args ps () =
  List.map
    (fun (name, v) ->
      match v with
      | Vint i -> (name, Stdx.Trace.Int i)
      | Vints l -> (name, Stdx.Trace.Str (String.concat "," (List.map string_of_int l))))
    ps

(* Run the body and package the result for any renderer, with the GC
   cost of the body. The snapshots bracket [run] alone — parameter
   merging, row rendering and preamble/footer formatting stay outside the
   window, so the figure is the experiment's own allocation, not the
   harness's. [Gc.allocated_bytes] and the collection counters cover the
   calling domain only: at jobs>1 worker-domain shares are invisible, so
   bench measures at jobs=1 when the absolute number matters. *)
let make ~id ~title ~doc ~params ~schema ~to_row ?(preamble = fun _ _ -> [])
    ?(footer = fun _ -> []) ~fast ~full ~smoke run =
  let span = "exp." ^ id in
  let measured ps =
    let cost = ref { alloc_bytes = 0.; minor_collections = 0; major_collections = 0 } in
    let rows =
      Stdx.Trace.span ~args:(trace_args ps) span (fun () ->
          let s0 = Gc.quick_stat () in
          let a0 = Gc.allocated_bytes () in
          let rows = run ps in
          let a1 = Gc.allocated_bytes () in
          let s1 = Gc.quick_stat () in
          cost :=
            {
              alloc_bytes = a1 -. a0;
              minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
              major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
            };
          rows)
    in
    ( { T.schema; rows = List.map to_row rows; preamble = preamble ps rows; footer = footer rows },
      !cost )
  in
  { id; title; doc; params; fast; full; smoke; measured }

let id e = e.id
let title e = e.title
let doc e = e.doc
let params e = e.params
let smoke e = e.smoke
let overrides_for ~fast e = if fast then e.fast else e.full
let measured_table e overrides = e.measured (merge e.params overrides)
let table e overrides = fst (measured_table e overrides)
