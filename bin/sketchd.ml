(* sketchd: the concurrent sketch-service daemon.

   Serves the experiment registry (`list`/`run`), protocol simulations
   (`simulate`) and observability (`stats`) over a length-prefixed JSON
   frame protocol on TCP, with a deterministic result cache in front of a
   bounded domain-pool scheduler. `sketchctl` is the matching client.
   Flags, banner, port file and signal handling are [Serve_cli]'s, shared
   with sketchproxy. *)

open Cmdliner
open Term.Syntax

let () =
  Serve_cli.main ~name:"sketchd"
    ~doc:"Concurrent sketch-service daemon with a deterministic result cache."
  @@ let+ (c : Serve_cli.common) = Serve_cli.common
     and+ workers =
       Arg.(
         value
         & opt int 2
         & info [ "workers" ] ~doc:"Worker domains computing experiment runs." ~docv:"INT")
     and+ capacity =
       Arg.(
         value
         & opt int 16
         & info [ "queue" ]
             ~doc:"Bounded request-queue depth; beyond it requests are shed (429)." ~docv:"INT")
     and+ cache_entries =
       Arg.(
         value
         & opt int 512
         & info [ "cache-entries" ] ~doc:"Result-cache entry bound." ~docv:"INT")
     and+ cache_mb =
       Arg.(
         value
         & opt int 64
         & info [ "cache-mb" ] ~doc:"Result-cache payload bound in MiB." ~docv:"INT")
     in
     Serve_cli.serve ~name:"sketchd" c
       ~details:(Printf.sprintf "workers=%d, queue=%d" workers capacity)
       ~start:(fun ~log ->
         Server.Daemon.start ~host:c.host ~port:c.port ~workers ~capacity ~cache_entries
           ~cache_bytes:(cache_mb * 1024 * 1024) ~max_conns:c.max_conns
           ~idle_timeout_s:c.idle_timeout ~rate_limit:c.rate_limit ~keepalive:c.keepalive ?log
           ())
       ~port:Server.Daemon.port
       ~stop:(Server.Daemon.stop ~abort_connections:true)
       ~wait:Server.Daemon.wait
