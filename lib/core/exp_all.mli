(** The experiment catalogue: every DESIGN.md §4 table in the canonical
    [run_all] order. Because the list is an explicit value, the linker
    can never drop an experiment module. *)

val experiments : Exp_registry.experiment list
(** The canonical ordered catalogue; ids are unique. *)

val find : string -> Exp_registry.experiment option
(** Look an experiment up by id in {!experiments}. *)

val run_all :
  ?fast:bool ->
  ?jobs:int ->
  ?format:Report.Tabular.format ->
  ?out:out_channel ->
  unit ->
  unit
(** Run every experiment at its [all] (or [all --fast]) sizes. Text
    format interleaves tables with wall-time lines on [out] (classic
    [run_all] output); CSV/JSON keep [out] clean — rows only, each
    stamped with its experiment id — and push timing lines to stderr. *)
