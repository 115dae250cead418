(* Client side of the wire protocol: one TCP connection, synchronous
   request/response frames, raw payload in and raw payload out. Used by
   `sketchctl`, the proxy's backend pools, the server tests and the
   benches — anything that talks to a running sketchd or sketchproxy. *)

type t = { fd : Unix.file_descr }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ?host ~port f =
  let t = connect ?host ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Raw payload in, raw payload out — the byte-exact response, which is what
   determinism checks diff. *)
let request t payload =
  Wire.write_frame t.fd payload;
  Wire.read_frame t.fd
