(** Client side of the [sketchd] wire protocol: one TCP connection,
    synchronous request/response frames. Payloads are exchanged as raw
    JSON text, byte-exact; callers parse them with {!Report.Tabular} when
    they need fields. *)

type t
(** One open connection; not thread-safe (one request at a time). *)

val connect : ?host:string -> port:int -> unit -> t
(** Default host ["127.0.0.1"]. *)

val close : t -> unit
(** Close the socket; the [t] must not be used afterwards. *)

val with_connection : ?host:string -> port:int -> (t -> 'a) -> 'a
(** Connect, run, always close. *)

val request : t -> string -> string
(** Send one payload, return the {e byte-exact} response payload — what
    determinism checks diff. *)
