(* sketchproxy: consistent-hash routing tier in front of N sketchd
   backends.

   Speaks the same length-prefixed JSON frame protocol as sketchd on both
   sides. `run`/`simulate` requests route by their canonical cache key so
   each backend's cache stays hot for its shard; the determinism contract
   makes failover transparent — a replica recomputes the byte-identical
   response a dead backend would have served. `ping`/`cluster`/`stats`
   are answered by the proxy itself (`stats` aggregated cluster-wide).
   Flags, banner, port file and signal handling are [Serve_cli]'s, shared
   with sketchd. *)

open Cmdliner
open Term.Syntax

let () =
  Serve_cli.main ~name:"sketchproxy"
    ~doc:"Consistent-hash routing proxy for a fleet of sketchd backends."
  @@ let+ (c : Serve_cli.common) = Serve_cli.common
     and+ backends =
       Arg.(
         value
         & opt_all string []
         & info [ "b"; "backend" ]
             ~doc:"A sketchd backend as $(docv). Repeatable; at least one is required."
             ~docv:"HOST:PORT")
     and+ vnodes =
       Arg.(
         value
         & opt int 128
         & info [ "vnodes" ] ~doc:"Consistent-hash ring points per backend." ~docv:"INT")
     and+ health_interval =
       Arg.(
         value
         & opt float 2.0
         & info [ "health-interval" ] ~doc:"Seconds between background ping sweeps."
             ~docv:"SEC")
     in
     if backends = [] then begin
       Printf.eprintf "sketchproxy: need at least one --backend HOST:PORT\n%!";
       exit 2
     end;
     Serve_cli.serve ~name:"sketchproxy" c
       ~details:(Printf.sprintf "backends=%d, vnodes=%d" (List.length backends) vnodes)
       ~start:(fun ~log ->
         Server.Proxy.start ~host:c.host ~port:c.port ~vnodes
           ~health_interval_s:health_interval ~max_conns:c.max_conns
           ~idle_timeout_s:c.idle_timeout ~rate_limit:c.rate_limit ~keepalive:c.keepalive ?log
           ~backends ())
       ~port:Server.Proxy.port
       ~stop:(Server.Proxy.stop ~abort_connections:true)
       ~wait:Server.Proxy.wait
