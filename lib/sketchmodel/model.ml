module Graph = Dgraph.Graph

type view = { n : int; vertex : int; neighbors : int array }

let views g = Array.init (Graph.n g) (fun v -> { n = Graph.n g; vertex = v; neighbors = Graph.neighbors g v })

type 'a protocol = {
  name : string;
  player : view -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
  referee : n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a;
}

let run_views ?schedule protocol ~n player_views coins =
  Rounds.run_views ?schedule
    (Rounds.one_round ~name:protocol.name ~player:protocol.player ~referee:protocol.referee)
    ~n player_views coins

let run protocol g coins = run_views protocol ~n:(Graph.n g) (views g) coins

let run_rounds protocol g coins = Rounds.run_views protocol ~n:(Graph.n g) (views g) coins

let success_rate ~trials ~seed experiment =
  if trials <= 0 then invalid_arg "Model.success_rate";
  let successes = ref 0 in
  for trial = 0 to trials - 1 do
    let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + (trial * 7919))) in
    if experiment coins then incr successes
  done;
  float_of_int !successes /. float_of_int trials
