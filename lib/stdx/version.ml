(* The single source of truth for the build version. Bump here and every
   binary (`sketchlb`, `sketchd`, `sketchctl`), the `stats` RPC and the
   bench JSON pick it up — deployments and bug reports can always identify
   the build they are talking to. *)

let current = "1.8.0"
