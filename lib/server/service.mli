(** The daemon's request handler, socket-free.

    [handle] maps one request payload (a JSON object with a string field
    ["op"]) to one response payload. Keeping this layer free of file
    descriptors makes every endpoint unit-testable in-process; {!Daemon}
    adds TCP framing and the event loop around it.

    Operations: [ping], [list], [stats], [cache], [run], [simulate],
    [shutdown].
    Responses are canonical JSON strings (fixed field order, no
    whitespace): a cached payload is byte-identical to a recomputed one.
    [run]/[simulate] go through the result cache and then the bounded
    {!Scheduler}; errors come back as
    [{"ok":false,"error":...,"code":...,"msg":...}] with HTTP-flavoured
    codes (400 bad request, 404 unknown id/op, 429 overloaded, 499 client
    cancelled, 500 failed, 503 shutting down, 504 deadline exceeded).

    The [stats] response includes a [trace] object (enabled flag, buffered
    and dropped event counts) reflecting the process-wide {!Stdx.Trace}
    state. The full request/response schema of every operation is specified
    in [PROTOCOL.md] at the repository root.

    This module also owns the serving tier's one reply codec and one
    request envelope ({!serve}): {!Proxy} and {!Daemon} build every frame
    through them. *)

type t
(** One service instance: scheduler + cache + metrics + registry. *)

val create :
  ?workers:int ->
  ?capacity:int ->
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Defaults: 2 worker domains, queue capacity 16, cache 512 entries /
    64 MiB, no logging. [log] receives one structured line per request
    (and per cache decision); without it no line is formatted. *)

val cache : t -> Cache.t
(** The result cache — exposed for tests and stats. *)

val metrics : t -> Metrics.t
(** The metrics accumulator — the daemon feeds connection gauges into it
    so the `stats` RPC's [connections] block reflects the event loop. *)

val request_key : Report.Tabular.json -> string option
(** The canonical cache key a parsed [run]/[simulate] request will be
    stored under — exactly the key derivation the cache uses ([jobs]
    excluded, merged params in spec order), exposed so the routing proxy
    can consistent-hash requests onto the backend that already holds (or
    is about to hold) the entry. [None] when the request is not a valid
    compute request (bad op, unknown id/protocol, ill-typed params):
    those never reach a cache and may be routed anywhere. *)

type reply = { payload : string; shutdown : bool }
(** [shutdown] is [true] exactly when the request was an accepted
    [shutdown] op — the daemon should reply, then drain and exit. *)

val handle_async : t -> ?cancelled:(unit -> bool) -> string -> k:(reply -> unit) -> unit
(** Process one request payload without blocking the caller; [k] receives
    the reply exactly once. Cheap endpoints ([ping], [list], [stats],
    [cache], [shutdown]), validation failures, cache hits and shed
    requests call [k] {e synchronously} on the caller — the event thread
    answers them without a thread handoff; computed misses call [k] from
    the worker domain that produced the payload. [k] must not block for
    long and must not raise. [cancelled] is probed by the scheduler just
    before compute starts (the daemon passes the event loop's EOF flag).
    Never raises: every failure becomes an [ok:false] response. *)

val handle : t -> ?cancelled:(unit -> bool) -> string -> reply
(** Blocking convenience over {!handle_async} ({!Scheduler.await}) —
    parks the calling thread until the reply is ready. Used by in-process
    tests and benchmarks. *)

val draining : t -> bool
(** Has a [shutdown] request been accepted? *)

val shutdown : t -> unit
(** Refuse new compute work and block until in-flight jobs finish. *)

(** {1 What sketchd and sketchproxy share} *)

(** The reply codec: canonical JSON text, object fields in the order
    given, no whitespace. {!obj} and {!arr} take rendered JSON. *)
module Codec : sig
  val jstr : string -> string
  (** A JSON string literal (escaped per RFC 8259). *)

  val obj : (string * string) list -> string
  (** A JSON object from pre-rendered field values. *)

  val arr : string list -> string
  (** A JSON array from pre-rendered items. *)

  val ok_response : (string * string) list -> string
  (** [{"ok":true,...fields}]. *)

  val error_response : code:int -> error:string -> string -> string
  (** [{"ok":false,"error":ERROR,"code":CODE,"msg":MSG}] — the one error
      shape of the protocol, for handler errors and the daemon's own
      framing, limit and failure frames alike. *)

  val bad_request : string -> string
  (** {!error_response} with code 400, tag [bad-request]. *)

  val is_ok : string -> bool
  (** Does a canonical reply start with [{"ok":true,]? The envelope's
      success test — no parse. *)
end

val metrics_blocks : Metrics.snapshot -> (string * string) * (string * string)
(** The [("requests", ...)] and [("latency_ms", ...)] fields a `stats`
    reply renders from one {!Metrics.snapshot}. *)

val serve :
  Metrics.t ->
  ?log:(string -> unit) ->
  span:string ->
  string ->
  route:(string -> Report.Tabular.json -> (string -> string -> unit) -> unit) ->
  k:(reply -> unit) ->
  unit
(** [serve metrics ?log ~span payload ~route ~k] parses [payload] and
    answers an unparseable request (op [parse-error]) or one without a
    string [op] (op [bad-op]) itself; anything else goes to
    [route op json finish]. [finish op' response] closes the request out
    exactly once: a [span ^ op'] trace span ([rpc.] for sketchd, [proxy.]
    for sketchproxy), one {!Metrics.record}, one [op=… status=… ms=…] log
    line (formatted only when [log] is given), then [k]. A reply finished
    under op ["shutdown"] carries [shutdown = true]. *)
