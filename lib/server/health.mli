(** Backend health book-keeping for the proxy.

    One entry per configured backend, updated from two directions: the
    periodic [ping] sweep (a {!pinger} thread, or {!sweep} called
    directly) and the forwarding path itself (a transport failure calls
    {!mark_down} immediately, a successful response {!mark_up}).
    Thread-safe (one internal mutex). *)

type status = {
  healthy : bool;
  failures : int;  (** consecutive failures since the last success *)
  last_error : string option;  (** what the most recent failure said *)
}

type t
(** The health table; safe to share across threads. *)

val create : string list -> t
(** One optimistic (healthy) entry per backend, in the order given. *)

val mark_up : t -> string -> unit
(** Record a success: healthy, failure streak reset. Unknown addresses
    are ignored. *)

val mark_down : t -> string -> error:string -> unit
(** Record a failure: unhealthy, streak incremented, [error] kept. *)

val record : t -> string -> ('a, string) result -> unit
(** {!mark_up} on [Ok], {!mark_down} with the message on [Error] — how a
    probe's outcome lands. *)

val healthy : t -> string -> bool
(** Current verdict for one backend ([false] for unknown addresses). *)

val snapshot : t -> (string * status) list
(** Every entry, in configured order — the `cluster` RPC's source. *)

val sweep : t -> ping:(string -> ('a, string) result) -> unit
(** One synchronous probe of every backend, updating each entry. *)

type pinger
(** A background thread running {!sweep} periodically. *)

val start_pinger : t -> interval_s:float -> ping:(string -> ('a, string) result) -> pinger
(** Sweep every [interval_s] seconds until {!stop_pinger}. *)

val stop_pinger : pinger -> unit
(** Wake, stop and join the pinger thread. Idempotent. *)
