(* Tests for Linear_sketch: 1-sparse recovery, s-sparse recovery, and the
   L0 sampler — correctness, linearity, and serialization. *)

module One = Linear_sketch.One_sparse
module Sr = Linear_sketch.Sparse_recovery
module L0 = Linear_sketch.L0_sampler

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let one_params seed = One.make_params (Stdx.Prng.create seed) ~universe:10000
let one_cell () = Array.make One.words 0

let test_one_sparse_zero () =
  let params = one_params 1 and c = one_cell () in
  checkb "fresh is zero" true (One.decode_at params c 0 = One.Zero);
  One.update_at params c 0 5 3;
  One.update_at params c 0 5 (-3);
  checkb "cancelled is zero" true (One.decode_at params c 0 = One.Zero)

let test_one_sparse_singleton () =
  let params = one_params 2 and c = one_cell () in
  One.update_at params c 0 137 1;
  checkb "singleton" true (One.decode_at params c 0 = One.Singleton (137, 1));
  One.update_at params c 0 137 4;
  checkb "accumulated weight" true (One.decode_at params c 0 = One.Singleton (137, 5));
  let neg = one_cell () in
  One.update_at params neg 0 9999 (-7);
  checkb "negative weight" true (One.decode_at params neg 0 = One.Singleton (9999, -7))

let test_one_sparse_collision () =
  let params = one_params 3 and c = one_cell () in
  One.update_at params c 0 10 1;
  One.update_at params c 0 20 1;
  checkb "two items collide" true (One.decode_at params c 0 = One.Collision);
  (* A +1/-1 pair has s0 = 0 but nonzero fingerprint. *)
  let c2 = one_cell () in
  One.update_at params c2 0 10 1;
  One.update_at params c2 0 20 (-1);
  checkb "cancelling pair detected" true (One.decode_at params c2 0 = One.Collision)

(* Two cells side by side in one buffer: [add_at] sums them in place, and
   adding a cell to itself [c - 1] times scales it by [c]. *)
let test_one_sparse_combine_scale () =
  let params = one_params 4 in
  let buf = Array.make (2 * One.words) 0 in
  One.update_at params buf 0 42 2;
  One.update_at params buf One.words 42 (-2);
  One.update_at params buf One.words 77 5;
  One.add_at params ~dst:buf 0 ~src:buf One.words;
  checkb "combine cancels" true (One.decode_at params buf 0 = One.Singleton (77, 5));
  let sum = Array.sub buf 0 One.words in
  One.add_at params ~dst:buf 0 ~src:sum 0;
  One.add_at params ~dst:buf 0 ~src:sum 0;
  checkb "scale" true (One.decode_at params buf 0 = One.Singleton (77, 15))

let test_one_sparse_serialization () =
  let params = one_params 7 and c = one_cell () in
  One.update_at params c 0 123 (-4);
  let w = Stdx.Bitbuf.Writer.create () in
  One.write_at params c 0 w;
  let c' = Array.make (1 + One.words) (-1) in
  One.read_at params c' 1 (Stdx.Bitbuf.Reader.of_writer w);
  checkb "roundtrip decode" true (One.decode_at params c' 1 = One.Singleton (123, -4))

let sr_params seed = Sr.make_params (Stdx.Prng.create seed) ~universe:5000 ~buckets:8 ~reps:3

let test_sparse_recovery_exact () =
  let s = Sr.create (sr_params 1) in
  let items = [ (17, 1); (1000, -2); (4999, 7) ] in
  List.iter (fun (i, w) -> Sr.update s i w) items;
  (match Sr.decode s with
  | Some got -> Alcotest.(check (list (pair int int))) "exact recovery" items got
  | None -> Alcotest.fail "decode failed on 3-sparse input");
  checkb "empty" true (Sr.decode (Sr.create (sr_params 1)) = Some [])

let test_sparse_recovery_cancellation () =
  let params = sr_params 2 in
  let a = Array.make (Sr.words params) 0 and b = Array.make (Sr.words params) 0 in
  List.iter (fun i -> Sr.update_at params a 0 i 1) [ 1; 2; 3; 4 ];
  List.iter (fun i -> Sr.update_at params b 0 i (-1)) [ 2; 3 ];
  Sr.add_at params ~dst:a 0 ~src:b 0;
  (match Sr.decode_at params a 0 with
  | Some got -> Alcotest.(check (list (pair int int))) "residual" [ (1, 1); (4, 1) ] got
  | None -> Alcotest.fail "decode failed after cancellation")

let test_sparse_recovery_soundness () =
  (* Whatever decode returns (when it succeeds), it must equal the true
     vector: run over random inputs. *)
  let rng = Stdx.Prng.create 11 in
  for trial = 1 to 100 do
    let params = Sr.make_params (Stdx.Prng.create trial) ~universe:2000 ~buckets:8 ~reps:3 in
    let s = Sr.create params in
    let count = Stdx.Prng.int rng 12 in
    let truth = Hashtbl.create 8 in
    for _ = 1 to count do
      let i = Stdx.Prng.int rng 2000 in
      let w = 1 + Stdx.Prng.int rng 5 in
      Sr.update s i w;
      Hashtbl.replace truth i (w + Option.value ~default:0 (Hashtbl.find_opt truth i))
    done;
    match Sr.decode s with
    | None -> () (* allowed: too dense *)
    | Some got ->
        let expected =
          Hashtbl.fold (fun i w acc -> if w <> 0 then (i, w) :: acc else acc) truth []
          |> List.sort compare
        in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "sound (trial %d)" trial)
          expected got
  done

let test_sparse_recovery_success_rate () =
  (* <= buckets/2 items should almost always decode. *)
  let successes = ref 0 in
  for trial = 1 to 100 do
    let params = Sr.make_params (Stdx.Prng.create (trial * 7)) ~universe:3000 ~buckets:8 ~reps:3 in
    let s = Sr.create params in
    let rng = Stdx.Prng.create (trial + 5000) in
    let items = Stdx.Prng.sample_distinct rng 4 3000 in
    Array.iter (fun i -> Sr.update s i 1) items;
    match Sr.decode s with Some l when List.length l = 4 -> incr successes | Some _ | None -> ()
  done;
  checkb (Printf.sprintf "4-sparse decodes >= 95%% (%d)" !successes) true (!successes >= 95)

let l0_params seed = L0.make_params (Stdx.Prng.create seed) ~universe:4096 ()

let test_l0_zero () =
  let s = L0.create (l0_params 1) in
  checkb "zero vector" true (L0.decode s = None);
  L0.update s 100 1;
  L0.update s 100 (-1);
  checkb "cancelled vector" true (L0.decode s = None)

let test_l0_single () =
  let s = L0.create (l0_params 2) in
  L0.update s 3000 (-2);
  checkb "finds the only coordinate" true (L0.decode s = Some (3000, -2))

let test_l0_returns_true_nonzero () =
  let rng = Stdx.Prng.create 13 in
  for trial = 1 to 50 do
    let s = L0.create (l0_params (trial + 100)) in
    let truth = Hashtbl.create 32 in
    let count = 1 + Stdx.Prng.int rng 200 in
    for _ = 1 to count do
      let i = Stdx.Prng.int rng 4096 in
      Hashtbl.replace truth i (1 + Option.value ~default:0 (Hashtbl.find_opt truth i));
      L0.update s i 1
    done;
    match L0.decode s with
    | None -> Alcotest.fail (Printf.sprintf "decode failed with %d nonzeros" count)
    | Some (i, w) ->
        checki (Printf.sprintf "weight right (trial %d)" trial)
          (Option.value ~default:0 (Hashtbl.find_opt truth i))
          w
  done

let test_l0_linearity () =
  let params = l0_params 3 in
  let a = L0.create params and b = L0.create params in
  List.iter (fun i -> L0.update a i 1) [ 5; 6; 7 ];
  List.iter (fun i -> L0.update b i (-1)) [ 5; 6 ];
  L0.add_into ~dst:a b;
  checkb "combined leaves the difference" true (L0.decode a = Some (7, 1))

let test_l0_serialization () =
  let params = l0_params 4 in
  let s = L0.create params in
  L0.update s 1234 5;
  let w = Stdx.Bitbuf.Writer.create () in
  L0.write s w;
  let buf = Array.make (L0.size_words params) (-1) in
  let s' = L0.read_into params buf 0 (Stdx.Bitbuf.Reader.of_writer w) in
  checkb "roundtrip decode" true (L0.decode s' = Some (1234, 5))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse decode on random singleton" ~count:300
         QCheck.(triple (int_range 0 1000) (int_range 0 9999) (int_range 1 100))
         (fun (seed, i, w) ->
           let params = one_params seed and c = one_cell () in
           One.update_at params c 0 i w;
           One.decode_at params c 0 = One.Singleton (i, w)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse serialization roundtrip" ~count:200
         QCheck.(pair (int_range 0 1000) (small_list (pair (int_range 0 9999) (int_range (-50) 50))))
         (fun (seed, updates) ->
           let params = one_params seed and c = one_cell () in
           List.iter (fun (i, w) -> One.update_at params c 0 i w) updates;
           let w = Stdx.Bitbuf.Writer.create () in
           One.write_at params c 0 w;
           let c' = one_cell () in
           One.read_at params c' 0 (Stdx.Bitbuf.Reader.of_writer w);
           c' = c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"combine = updates applied to one sketch" ~count:200
         QCheck.(triple (int_range 0 1000)
                   (small_list (pair (int_range 0 4999) (int_range (-9) 9)))
                   (small_list (pair (int_range 0 4999) (int_range (-9) 9))))
         (fun (seed, ua, ub) ->
           let params = sr_params seed in
           let fresh () = Array.make (Sr.words params) 0 in
           let a = fresh () and b = fresh () and whole = fresh () in
           let feed part =
             List.iter (fun (i, w) ->
                 Sr.update_at params part 0 i w;
                 Sr.update_at params whole 0 i w)
           in
           feed a ua;
           feed b ub;
           Sr.add_at params ~dst:a 0 ~src:b 0;
           a = whole));
  ]

(* Flat-layout equivalence (PERFORMANCE.md, "Flat sketch layouts"): a
   region at any buffer offset, a caller-owned [of_buffer] view and an
   owned-buffer sketch must act on identical bit patterns — same updates
   decode the same and serialise byte-identically; and a Scratch
   reset-reuse cycle — borrow, poison the cached store, re-borrow — must
   be invisible in the serialised bytes. *)
let writer_bytes w =
  let bytes, bits = Stdx.Bitbuf.Writer.contents w in
  (Bytes.to_string bytes, bits)

let flat_boxed_qcheck =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-sparse region at any offset" ~count:300
         QCheck.(
           triple (int_range 0 1000) (int_range 0 5)
             (small_list (pair (int_range 0 9999) (int_range (-9) 9))))
         (fun (seed, off, updates) ->
           let params = one_params seed in
           let cell = one_cell () in
           let buf = Array.make (off + One.words) 0 in
           List.iter
             (fun (i, w) ->
               One.update_at params cell 0 i w;
               One.update_at params buf off i w)
             updates;
           let wc = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           One.write_at params cell 0 wc;
           One.write_at params buf off wf;
           One.decode_at params buf off = One.decode_at params cell 0
           && writer_bytes wf = writer_bytes wc));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sparse-recovery flat region == boxed sketch" ~count:200
         QCheck.(
           triple (int_range 0 1000) (int_range 0 5)
             (small_list (pair (int_range 0 4999) (int_range (-9) 9))))
         (fun (seed, off, updates) ->
           let params = sr_params seed in
           let boxed = Sr.create params in
           let buf = Array.make (off + Sr.words params) 0 in
           List.iter
             (fun (i, w) ->
               Sr.update boxed i w;
               Sr.update_at params buf off i w)
             updates;
           Sr.decode_at params buf off = Sr.decode boxed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"l0 of_buffer == private-buffer sampler" ~count:200
         QCheck.(
           triple (int_range 0 1000) (int_range 0 7)
             (small_list (pair (int_range 0 4095) (int_range (-5) 5))))
         (fun (seed, off, updates) ->
           let params = l0_params seed in
           let boxed = L0.create params in
           let buf = Array.make (off + L0.size_words params) 0 in
           let flat = L0.of_buffer params buf off in
           List.iter
             (fun (i, w) ->
               L0.update boxed i w;
               L0.update flat i w)
             updates;
           let wb = Stdx.Bitbuf.Writer.create () and wf = Stdx.Bitbuf.Writer.create () in
           L0.write boxed wb;
           L0.write flat wf;
           L0.decode flat = L0.decode boxed && writer_bytes wf = writer_bytes wb));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"arena reset-reuse leaves sampler bytes unchanged" ~count:100
         QCheck.(pair (int_range 0 1000) (small_list (pair (int_range 0 4095) (int_range (-5) 5))))
         (fun (seed, updates) ->
           let params = l0_params seed in
           let arena = Stdx.Scratch.create () in
           let run () =
             let buf = Stdx.Scratch.ints arena "test.l0" (L0.size_words params) in
             let s = L0.of_buffer params buf 0 in
             List.iter (fun (i, w) -> L0.update s i w) updates;
             let w = Stdx.Bitbuf.Writer.create () in
             L0.write s w;
             writer_bytes w
           in
           let first = run () in
           (* Poison the cached backing store, then re-borrow: the
              zero-fill reset must make the rerun byte-identical. *)
           let poison = Stdx.Scratch.dirty_ints arena "test.l0" (L0.size_words params) in
           Array.fill poison 0 (Array.length poison) max_int;
           run () = first));
  ]

let () =
  Alcotest.run "linear_sketch"
    [
      ( "one-sparse",
        [
          Alcotest.test_case "zero" `Quick test_one_sparse_zero;
          Alcotest.test_case "singleton" `Quick test_one_sparse_singleton;
          Alcotest.test_case "collision" `Quick test_one_sparse_collision;
          Alcotest.test_case "combine/scale" `Quick test_one_sparse_combine_scale;
          Alcotest.test_case "serialization" `Quick test_one_sparse_serialization;
        ] );
      ( "sparse-recovery",
        [
          Alcotest.test_case "exact" `Quick test_sparse_recovery_exact;
          Alcotest.test_case "cancellation" `Quick test_sparse_recovery_cancellation;
          Alcotest.test_case "soundness" `Quick test_sparse_recovery_soundness;
          Alcotest.test_case "success rate" `Quick test_sparse_recovery_success_rate;
        ] );
      ( "l0-sampler",
        [
          Alcotest.test_case "zero" `Quick test_l0_zero;
          Alcotest.test_case "single" `Quick test_l0_single;
          Alcotest.test_case "true nonzero" `Quick test_l0_returns_true_nonzero;
          Alcotest.test_case "linearity" `Quick test_l0_linearity;
          Alcotest.test_case "serialization" `Quick test_l0_serialization;
        ] );
      ("linear-sketch-properties", qcheck_tests);
      ("flat-boxed-equivalence", flat_boxed_qcheck);
    ]
