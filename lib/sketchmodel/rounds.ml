(* The one referee engine. One iteration = one simultaneous sketch round
   followed by one referee step; [Continue] and [Announce] charge the
   broadcast, [Finish] charges nothing. Sketch slots are indexed by
   player, never by the order they were computed in, so the referee's
   input — and therefore output and stats — cannot depend on
   [schedule]. That is the contract that lets the experiment suite run
   trials (and their inner runs) on any domain in any order;
   test_sketchmodel pins it with shuffled schedules. *)

module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type ('b, 'a) step = Continue of 'b | Announce of 'b * 'a | Finish of 'a

type ('v, 'b, 'a) protocol = {
  name : string;
  max_rounds : int;
  init : n:int -> Public_coins.t -> 'b;
  player : round:int -> 'v -> 'b -> Public_coins.t -> Writer.t;
  referee :
    round:int -> n:int -> state:'b -> sketches:Reader.t array -> Public_coins.t -> ('b, 'a) step;
  encode_broadcast : 'b -> Writer.t;
}

type stats = {
  players : int;
  rounds : int;
  max_bits : int;
  total_bits : int;
  broadcast_bits : int;
  round_max : int array;
  round_total : int array;
  round_broadcast : int array;
}

let avg_bits s =
  if s.players = 0 then 0. else float_of_int s.total_bits /. float_of_int s.players

let round1_max s = s.round_max.(0)
let round2_max s = if s.rounds > 1 then s.round_max.(1) else 0
let max_bits_per_round s = Array.fold_left max 0 s.round_max

let round_span name r body =
  Stdx.Trace.span
    ~args:(fun () -> [ ("round", Stdx.Trace.Int r); ("protocol", Stdx.Trace.Str name) ])
    "protocol.round" body

let check_schedule players = function
  | None -> None
  | Some order ->
      let sorted = Array.copy order in
      Array.sort compare sorted;
      if sorted <> Array.init players Fun.id then
        invalid_arg "Rounds.run_views: schedule is not a permutation of the players";
      Some order

(* One round's messages, slot [p] holding player [p]'s sketch whatever
   the order they were computed in. *)
let sketch_round order player views =
  match order with
  | None -> Array.map player views
  | Some order ->
      let slots = Array.make (Array.length views) None in
      Array.iter (fun p -> slots.(p) <- Some (player views.(p))) order;
      Array.map (function Some w -> w | None -> assert false) slots

let run_views ?schedule protocol ~n views coins =
  let players = Array.length views in
  let order = check_schedule players schedule in
  let per_player = Array.make players 0 in
  (* Per-round (max, total, broadcast), most recent first. *)
  let curves = ref [] in
  let rec go round state =
    if round > protocol.max_rounds then failwith (protocol.name ^ ": round limit exceeded");
    let step =
      round_span protocol.name round (fun () ->
          let writers =
            sketch_round order (fun view -> protocol.player ~round view state coins) views
          in
          let round_max = ref 0 and round_total = ref 0 in
          let sketches =
            Array.mapi
              (fun p w ->
                let bits = Writer.length_bits w in
                per_player.(p) <- per_player.(p) + bits;
                if bits > !round_max then round_max := bits;
                round_total := !round_total + bits;
                Reader.of_writer w)
              writers
          in
          let step = protocol.referee ~round ~n ~state ~sketches coins in
          let broadcast =
            match step with
            | Continue b | Announce (b, _) -> Writer.length_bits (protocol.encode_broadcast b)
            | Finish _ -> 0
          in
          curves := (!round_max, !round_total, broadcast) :: !curves;
          step)
    in
    match step with
    | Continue b -> go (round + 1) b
    | Announce (_, a) | Finish a -> a
  in
  let output = go 1 (protocol.init ~n coins) in
  let curves = Array.of_list (List.rev !curves) in
  let curve f = Array.map f curves in
  let round_broadcast = curve (fun (_, _, b) -> b) in
  ( output,
    {
      players;
      rounds = Array.length curves;
      max_bits = Array.fold_left max 0 per_player;
      total_bits = Array.fold_left ( + ) 0 per_player;
      broadcast_bits = Array.fold_left ( + ) 0 round_broadcast;
      round_max = curve (fun (m, _, _) -> m);
      round_total = curve (fun (_, t, _) -> t);
      round_broadcast;
    } )

let one_round ~name ~player ~referee =
  {
    name;
    max_rounds = 1;
    init = (fun ~n:_ _ -> ());
    player = (fun ~round:_ view () coins -> player view coins);
    referee = (fun ~round:_ ~n ~state:() ~sketches coins -> Finish (referee ~n ~sketches coins));
    encode_broadcast = (fun () -> Writer.create ());
  }

let of_player_bits bits =
  let max_bits = Array.fold_left max 0 bits and total_bits = Array.fold_left ( + ) 0 bits in
  {
    players = Array.length bits;
    rounds = 1;
    max_bits;
    total_bits;
    broadcast_bits = 0;
    round_max = [| max_bits |];
    round_total = [| total_bits |];
    round_broadcast = [| 0 |];
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "players=%d rounds=%d max=%d bits avg=%.1f bits total=%d bits broadcast=%d bits \
     [per-round max:%s]"
    s.players s.rounds s.max_bits (avg_bits s) s.total_bits s.broadcast_bits
    (String.concat "," (Array.to_list (Array.map string_of_int s.round_max)))
