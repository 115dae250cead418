(* The command line sketchd and sketchproxy share: the flags every serving
   front takes (bind address, connection knobs, port file, quiet, trace)
   and the lifecycle around a started server.

   Scriptability conventions, identical for both binaries: the first
   stdout line is machine-readable ("NAME listening on HOST:PORT ...") so
   scripts can scrape the kernel-chosen port; `--port-file` writes the
   bare port number for the same purpose. SIGINT/SIGTERM begin a graceful
   stop: listener closed, in-flight requests completed, then exit. *)

open Cmdliner

type common = {
  host : string;
  port : int;
  max_conns : int;
  idle_timeout : float;
  rate_limit : float;
  keepalive : bool;
  port_file : string option;
  quiet : bool;
  trace : string option;
}

let common =
  let open Term.Syntax in
  let+ host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~doc:"Address to bind (dotted quad)." ~docv:"ADDR")
  and+ port =
    Arg.(
      value
      & opt int 0
      & info [ "p"; "port" ] ~doc:"TCP port; 0 lets the kernel choose (printed on stdout)."
          ~docv:"PORT")
  and+ max_conns =
    Arg.(
      value
      & opt int 8192
      & info [ "max-conns" ]
          ~doc:"Concurrent-connection cap; excess connections get a 503 frame and a close."
          ~docv:"INT")
  and+ idle_timeout =
    Arg.(
      value
      & opt float 0.
      & info [ "idle-timeout" ]
          ~doc:"Evict connections idle longer than $(docv) seconds (0 disables)." ~docv:"SEC")
  and+ rate_limit =
    Arg.(
      value
      & opt float 0.
      & info [ "rate-limit" ]
          ~doc:
            "Per-connection request budget in requests/second; beyond it requests are \
             answered 429 (0 disables)."
          ~docv:"RPS")
  and+ no_keepalive =
    Arg.(
      value & flag & info [ "no-keepalive" ] ~doc:"Do not set SO_KEEPALIVE on accepted sockets.")
  and+ port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~doc:"Also write the chosen port number to $(docv)." ~docv:"FILE")
  and+ quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-request log lines on stderr.")
  and+ trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~doc:
            "Record a Chrome trace_event profile of the server's lifetime to $(docv) (written \
             at shutdown; Perfetto-loadable)."
          ~docv:"FILE")
  in
  { host; port; max_conns; idle_timeout; rate_limit; keepalive = not no_keepalive; port_file;
    quiet; trace }

(* start → port file → banner → signals → wait. [start] receives the log
   sink ([None] under -q, so no line is formatted) and returns the
   listening server; [details] completes the banner; [stop] is the
   abort-connections stop the signals trigger.
   --trace records the whole life (accept → decode → route → compute →
   encode spans) and writes the file once the drain completes. *)
let serve ~name c ~details ~start ~port ~stop ~wait =
  Report.Trace_export.with_file c.trace @@ fun () ->
  let log =
    if c.quiet then None else Some (fun line -> Printf.eprintf "%s: %s\n%!" name line)
  in
  let server =
    try start ~log with
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "%s: cannot listen on %s:%d: %s\n%!" name c.host c.port
          (Unix.error_message e);
        exit 1
    | Invalid_argument msg ->
        Printf.eprintf "%s: %s\n%!" name msg;
        exit 2
  in
  let actual_port = port server in
  (match c.port_file with
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "%d\n" actual_port;
      close_out oc
  | None -> ());
  Printf.printf "%s listening on %s:%d (version %s, %s)\n%!" name c.host actual_port
    Stdx.Version.current details;
  let graceful _ = stop server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
  wait server;
  Printf.printf "%s: drained, bye\n%!" name

let main ~name ~doc term =
  exit (Cmd.eval (Cmd.v (Cmd.info name ~version:Stdx.Version.current ~doc) term))
