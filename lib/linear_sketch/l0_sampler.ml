type params = {
  levels : int;
  salt : int;  (** public salt for the level hash *)
  sparse : Sparse_recovery.params;
  universe : int;
}

(* Trailing zeros of a salted 62-bit mix of the index; the cap is
   threaded as an argument so the loop is a static function (a local
   helper capturing [params] would allocate a closure per update). *)
let rec trailing_zeros h cap acc =
  if acc >= cap then cap
  else if h land 1 = 1 then acc
  else trailing_zeros (h lsr 1) cap (acc + 1)

let level_of params i =
  trailing_zeros (Stdx.Hashing.mix64 (i lxor params.salt)) (params.levels - 1) 0

let hash_rank params i = Stdx.Hashing.mix64 ((i * 2654435761) lxor params.salt lxor 0x5bd1e995)

let make_params rng ~universe ?(sparsity = 8) ?(reps = 3) () =
  if universe <= 0 then invalid_arg "L0_sampler.make_params";
  let levels =
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    bits universe 0 + 2
  in
  {
    levels;
    salt = Stdx.Prng.int rng (1 lsl 60);
    sparse = Sparse_recovery.make_params rng ~universe ~buckets:(2 * sparsity) ~reps;
    universe;
  }

let universe params = params.universe

(* Flat layout: [levels] sparse-recovery regions back to back. A sampler
   is a view [(buf, off)] onto such a region — [create] owns a private
   buffer, [of_buffer] views a caller-owned (typically arena) one. *)
let size_words params = params.levels * Sparse_recovery.words params.sparse

type t = { params : params; buf : int array; off : int }

let create params = { params; buf = Array.make (size_words params) 0; off = 0 }

let of_buffer params buf off =
  if off < 0 || off + size_words params > Array.length buf then
    invalid_arg "L0_sampler.of_buffer: region out of bounds";
  { params; buf; off }

let zero_like sketch = create sketch.params

let level_off sketch level = sketch.off + (level * Sparse_recovery.words sketch.params.sparse)

let update sketch i w =
  (* Coordinate i participates in levels 0 .. level_of i. *)
  let top = level_of sketch.params i in
  for level = 0 to top do
    Sparse_recovery.update_at sketch.params.sparse sketch.buf (level_off sketch level) i w
  done

let add_into ~dst src =
  if dst.params != src.params && dst.params <> src.params then invalid_arg "L0_sampler.add_into";
  (* Levels are contiguous, so the whole region adds in one pass. *)
  for level = 0 to dst.params.levels - 1 do
    Sparse_recovery.add_at dst.params.sparse ~dst:dst.buf (level_off dst level) ~src:src.buf
      (level_off src level)
  done

let decoded_levels sketch =
  (* Deepest-first: deeper levels are sparser and decode more reliably, but
     may be empty; scanning from the top finds the sparsest nonempty one. *)
  let rec scan level =
    if level < 0 then None
    else
      match Sparse_recovery.decode_at sketch.params.sparse sketch.buf (level_off sketch level) with
      | Some ((_ :: _) as items) -> Some items
      | Some [] | None -> scan (level - 1)
  in
  scan (sketch.params.levels - 1)

let decode sketch =
  match decoded_levels sketch with
  | None -> None
  | Some items ->
      let best =
        List.fold_left
          (fun acc (i, w) ->
            match acc with
            | None -> Some (i, w)
            | Some (j, _) when hash_rank sketch.params i < hash_rank sketch.params j -> Some (i, w)
            | Some _ -> acc)
          None items
      in
      best

let write sketch w =
  for level = 0 to sketch.params.levels - 1 do
    Sparse_recovery.write_at sketch.params.sparse sketch.buf (level_off sketch level) w
  done

let read_into params buf off r =
  let sketch = of_buffer params buf off in
  for level = 0 to params.levels - 1 do
    Sparse_recovery.read_at params.sparse sketch.buf (level_off sketch level) r
  done;
  sketch

let scratch_copy arena key src =
  let len = size_words src.params in
  let buf = Stdx.Scratch.dirty_ints arena key len in
  Array.blit src.buf src.off buf 0 len;
  { params = src.params; buf; off = 0 }
