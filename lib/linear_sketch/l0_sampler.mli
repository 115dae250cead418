(** L0-sampling: return {e some} nonzero coordinate of a linear-sketched
    vector.

    The classic subsampling tower: level [ℓ] keeps the coordinates whose
    public hash has at least [ℓ] trailing zero bits (an expected
    [2^{-ℓ}] fraction) in an s-sparse recovery structure. Whatever the
    number of nonzeros, some level holds between 1 and [s] of them with
    good probability, and that level decodes exactly.

    AGM's referee only needs {e an arbitrary} nonzero coordinate (an
    outgoing edge), so the decoder returns the recovered coordinate with
    the smallest hash value — a fixed choice that also makes the sample
    uniform-ish among nonzeros.

    {2 Flat representation}

    A sampler is {!size_words} consecutive ints — [levels]
    sparse-recovery regions back to back — viewed through [(buf, off)].
    {!create} owns a private buffer; {!of_buffer} views a caller-owned
    one, which is how the AGM players keep whole per-vertex stacks of
    samplers in single {!Stdx.Scratch} arena buffers (zeroed per borrow,
    reused across trials). The two kinds of sampler are bit-identical in
    every operation. *)

type params

val make_params :
  Stdx.Prng.t -> universe:int -> ?sparsity:int -> ?reps:int -> unit -> params
(** [sparsity] (default 8) is the per-level recovery capacity; [reps]
    (default 3) the repetitions inside each level. *)

val universe : params -> int

type t

val create : params -> t

val size_words : params -> int
(** Flat size of one sampler in ints:
    [levels * Sparse_recovery.words]. *)

val of_buffer : params -> int array -> int -> t
(** [of_buffer params buf off] is the sampler whose state lives at
    [buf.(off .. off + size_words params - 1)]. The caller owns the
    buffer and must hand the region over zeroed (or carrying a valid
    prior state it intends to continue); the sampler aliases it — no
    copy. Raises [Invalid_argument] when the region overruns [buf]. *)

val zero_like : t -> t
(** A fresh zero sampler with the same parameters (own buffer). *)

val update : t -> int -> int -> unit

val add_into : dst:t -> t -> unit
(** [add_into ~dst src] adds [src]'s vector into [dst] in place,
    without allocating — used by the spanning-forest referee's
    arena-backed component accumulators. Both samplers must share
    params; their regions must not overlap. *)

val decode : t -> (int * int) option
(** [Some (index, weight)] for some nonzero coordinate, or [None] if the
    vector is zero or every level fails (rare). *)

val scratch_copy : Stdx.Scratch.t -> string -> t -> t
(** [scratch_copy arena key src] borrows [size_words] ints from [arena]
    under [key] and copies [src]'s state into them, returning a sampler
    view of the borrow. The standard way to seed an {!add_into}
    accumulator without allocating: re-borrowing [key] (e.g. for the
    next component) invalidates the previous copy. *)

val write : t -> Stdx.Bitbuf.Writer.t -> unit

val read_into : params -> int array -> int -> Stdx.Bitbuf.Reader.t -> t
(** [read_into params buf off r] deserialises one sampler into the
    caller-owned region at [buf.(off ..)] (every slot overwritten — a
    dirty arena borrow is fine) and returns the region's sampler view.
    Reads exactly what {!write} wrote. *)
