(** Build identification.

    One module owns the version string; every binary ([sketchlb], [sketchd],
    [sketchctl]) and the daemon's [stats] RPC surface it, so a deployment or
    a bug report can always name the exact build. *)

val current : string
(** The semantic version of this build, e.g. ["1.6.0"]. *)
