(* A BCC execution is an engine run whose state is the broadcast
   history. The history is deliberately *not* a materialised list of
   reader arrays handed to every consumer: building fresh readers of
   every prior round for every consumer made a run O(n²·rounds²) in byte
   copies — once the dominant allocation of the whole bench suite.
   Instead a history is a handle over the rounds stored so far that
   mints fresh readers for one round on demand; consumers that replay
   incrementally (e.g. Bcc_mm) touch only the newest round. *)

module Reader = Stdx.Bitbuf.Reader

type history = { upto : int; stored : Reader.t array array }

let rounds_so_far h = h.upto

let round_readers h round =
  if round < 1 || round > h.upto then invalid_arg "Bcc.round_readers: round out of range";
  Array.map Reader.restart h.stored.(round - 1)

type 'a protocol = {
  name : string;
  rounds : int;
  broadcast :
    round:int -> Model.view -> history -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
  output : n:int -> history -> Public_coins.t -> 'a;
}

(* Every vertex's broadcast reaches all vertices and the referee, and is
   already charged as that player's bits; the referee forwards nothing
   of its own, so the engine's broadcast costs zero bits. [stored] only
   grows, so an older history value stays valid. *)
let to_rounds protocol =
  let stored = Array.make protocol.rounds [||] in
  {
    Rounds.name = protocol.name;
    max_rounds = protocol.rounds;
    init = (fun ~n:_ _ -> { upto = 0; stored });
    player = (fun ~round view history coins -> protocol.broadcast ~round view history coins);
    referee =
      (fun ~round ~n ~state:_ ~sketches coins ->
        stored.(round - 1) <- sketches;
        let history = { upto = round; stored } in
        if round = protocol.rounds then Rounds.Finish (protocol.output ~n history coins)
        else Rounds.Continue history);
    encode_broadcast = (fun _ -> Stdx.Bitbuf.Writer.create ());
  }

let run protocol g coins =
  if protocol.rounds < 1 then invalid_arg "Bcc.run: rounds";
  Model.run_rounds (to_rounds protocol) g coins

let of_sketch (p : 'a Model.protocol) =
  {
    name = p.Model.name ^ "@bcc";
    rounds = 1;
    broadcast = (fun ~round view history coins ->
        ignore round;
        ignore history;
        p.Model.player view coins);
    output =
      (fun ~n history coins ->
        if rounds_so_far history <> 1 then
          invalid_arg "Bcc.of_sketch: expected exactly one round of history";
        p.Model.referee ~n ~sketches:(round_readers history 1) coins);
  }

let to_sketch (p : 'a protocol) =
  if p.rounds <> 1 then invalid_arg "Bcc.to_sketch: protocol uses more than one round";
  let empty = { upto = 0; stored = [||] } in
  {
    Model.name = p.name ^ "@sketch";
    player = (fun view coins -> p.broadcast ~round:1 view empty coins);
    referee = (fun ~n ~sketches coins -> p.output ~n { upto = 1; stored = [| sketches |] } coins);
  }
