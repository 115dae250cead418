type structure = { players : int; coordinates : int; view : int -> int list }

type sharing = Nih | Shared of int | Nof

let multiplicity s =
  let counts = Array.make s.coordinates 0 in
  for i = 0 to s.players - 1 do
    List.iter
      (fun c ->
        if c < 0 || c >= s.coordinates then invalid_arg "Simultaneous: view out of range";
        counts.(c) <- counts.(c) + 1)
      (s.view i)
  done;
  counts

let classify s =
  let counts = multiplicity s in
  let max_mult = Array.fold_left max 0 counts in
  if max_mult <= 1 then Nih
  else if s.players >= 3 && Array.for_all (fun c -> c = s.players - 1) counts then Nof
  else Shared max_mult

let nih_example ~players ~per_player =
  {
    players;
    coordinates = players * per_player;
    view = (fun i -> List.init per_player (fun j -> (i * per_player) + j));
  }

let nof_example ~players ~block =
  {
    players;
    coordinates = players * block;
    view =
      (fun i ->
        List.concat
          (List.init players (fun owner ->
               if owner = i then []
               else List.init block (fun j -> (owner * block) + j))));
  }

(* Edge slot (u, v), u < v, gets index u*n + v - (u+1)*(u+2)/2 ... simpler:
   enumerate pairs lexicographically. *)
let slot ~n u v =
  let u, v = (min u v, max u v) in
  (* Number of pairs before row u: u*n - u*(u+1)/2; offset in row: v-u-1. *)
  (u * n) - (u * (u + 1) / 2) + (v - u - 1)

let of_vertex_partition ~n =
  {
    players = n;
    coordinates = n * (n - 1) / 2;
    view =
      (fun v ->
        List.init n (fun u -> u)
        |> List.filter (fun u -> u <> v)
        |> List.map (fun u -> slot ~n u v)
        |> List.sort compare);
  }

type 'a protocol = {
  name : string;
  player : int -> bool array -> Sketchmodel.Public_coins.t -> Stdx.Bitbuf.Writer.t;
  referee : sketches:Stdx.Bitbuf.Reader.t array -> Sketchmodel.Public_coins.t -> 'a;
}

(* Player [i]'s view is its index and the values of its coordinates; the
   game runs through the sketching model's engine, so its cost is
   accounted exactly as every protocol's. *)
let run s protocol ~input coins =
  if Array.length input <> s.coordinates then invalid_arg "Simultaneous.run: input length";
  let views =
    Array.init s.players (fun i -> (i, Array.of_list (List.map (fun c -> input.(c)) (s.view i))))
  in
  Sketchmodel.Rounds.run_views
    (Sketchmodel.Rounds.one_round ~name:protocol.name
       ~player:(fun (i, visible) coins -> protocol.player i visible coins)
       ~referee:(fun ~n:_ ~sketches coins -> protocol.referee ~sketches coins))
    ~n:s.players views coins

let equality_structure ~bits =
  {
    players = 2;
    coordinates = 2 * bits;
    view = (fun i -> List.init bits (fun c -> (i * bits) + c));
  }

let equality_two_party ~bits ~reps =
  ignore bits;
  {
    name = "public-coin-equality";
    player =
      (fun _i visible coins ->
        let w = Stdx.Bitbuf.Writer.create () in
        for rep = 0 to reps - 1 do
          let rng = Sketchmodel.Public_coins.keyed coins "eq-mask" rep in
          let dot = ref false in
          Array.iter
            (fun b ->
              let masked = Stdx.Prng.bool rng in
              if masked && b then dot := not !dot)
            visible;
          Stdx.Bitbuf.Writer.bit w !dot
        done;
        w);
    referee =
      (fun ~sketches _coins ->
        match sketches with
        | [| a; b |] ->
            let ok = ref true in
            for _ = 1 to reps do
              if Stdx.Bitbuf.Reader.bit a <> Stdx.Bitbuf.Reader.bit b then ok := false
            done;
            !ok
        | _ -> invalid_arg "equality: two players expected");
  }
