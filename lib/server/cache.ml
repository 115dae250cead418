(* Content-addressed result cache. Soundness rests on the repo's
   determinism contract: a response payload is a pure function of
   (experiment id, canonical params, seed) — the trial engine guarantees
   bit-identical rows at any job count — so serving a stored payload is
   indistinguishable from recomputing it.

   Plain LRU: a hash table over an intrusive doubly-linked recency list,
   bounded both in entries and in total payload bytes. One mutex guards
   everything; the daemon only touches the cache for a lookup or an insert,
   never during a computation. *)

type node = {
  key : string;
  payload : string;
  mutable prev : node option;  (* towards most-recent *)
  mutable next : node option;  (* towards least-recent *)
}

type t = {
  mutex : Mutex.t;
  table : (string, node) Hashtbl.t;
  max_entries : int;
  max_bytes : int;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;  (* removed via [invalidate_prefix] *)
}

let create ?(max_entries = 512) ?(max_bytes = 64 * 1024 * 1024) () =
  if max_entries < 1 || max_bytes < 1 then invalid_arg "Cache.create";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    max_entries;
    max_bytes;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let locked t f = Mutex.protect t.mutex f

(* Recency-list surgery; all under the mutex. *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let entry_bytes n = String.length n.key + String.length n.payload

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.bytes <- t.bytes - entry_bytes n;
      t.evictions <- t.evictions + 1

let find t key =
  let r =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some n ->
            t.hits <- t.hits + 1;
            unlink t n;
            push_front t n;
            Some n.payload
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  (* Instants outside the cache mutex: the trace shows every probe's
     outcome without stretching the critical section. *)
  (match r with
  | Some _ -> Stdx.Trace.instant "cache.hit"
  | None -> Stdx.Trace.instant "cache.miss");
  r

let add t key payload =
  locked t (fun () ->
      (* Replace an existing entry (a racing duplicate computation of the
         same key necessarily computed the same payload — determinism). *)
      (match Hashtbl.find_opt t.table key with
      | Some old ->
          unlink t old;
          Hashtbl.remove t.table key;
          t.bytes <- t.bytes - entry_bytes old
      | None -> ());
      let n = { key; payload; prev = None; next = None } in
      if entry_bytes n <= t.max_bytes then begin
        Hashtbl.replace t.table key n;
        push_front t n;
        t.bytes <- t.bytes + entry_bytes n;
        while Hashtbl.length t.table > t.max_entries || t.bytes > t.max_bytes do
          evict_tail t
        done
      end)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Key listing for the `cache` RPC: sorted by key (deterministic — the
   recency order depends on request arrival and would break the golden
   pin), truncated to [limit] after the prefix filter. *)
let keys ?(prefix = "") ?(limit = max_int) t =
  let all =
    locked t (fun () ->
        Hashtbl.fold
          (fun key n acc ->
            if has_prefix ~prefix key then (key, String.length n.payload) :: acc else acc)
          t.table [])
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (List.length sorted, take limit sorted)

(* Deliberate removal is not an eviction: it gets its own counter so the
   LRU-pressure signal in `stats` stays meaningful. *)
let invalidate_prefix t ~prefix =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun key n acc -> if has_prefix ~prefix key then n :: acc else acc)
          t.table []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.table n.key;
          t.bytes <- t.bytes - entry_bytes n;
          t.invalidations <- t.invalidations + 1)
        doomed;
      List.length doomed)

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
      })
