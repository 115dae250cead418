module Graph = Dgraph.Graph

type mm_state = { n : int; matched : Stdx.Bitset.t; mutable pairs : Graph.edge list }

let mm_create n = { n; matched = Stdx.Bitset.create n; pairs = [] }

let mm_feed state (u, v) =
  if u <> v && (not (Stdx.Bitset.mem state.matched u)) && not (Stdx.Bitset.mem state.matched v)
  then begin
    Stdx.Bitset.add state.matched u;
    Stdx.Bitset.add state.matched v;
    state.pairs <- Graph.normalize_edge u v :: state.pairs
  end

let mm_result state = List.rev state.pairs

let bits_needed n =
  let rec go v acc = if v <= 1 then acc else go ((v + 1) / 2) (acc + 1) in
  max 1 (go n 0)

let mm_state_bits state =
  state.n + (2 * bits_needed state.n * List.length state.pairs)

let mm_of_stream stream =
  let state = mm_create stream.Stream.n in
  List.iter
    (fun event ->
      match event with
      | Stream.Insert e -> mm_feed state e
      | Stream.Delete _ ->
          invalid_arg "Insertion_greedy.mm_of_stream: deletions are not supported")
    stream.Stream.events;
  mm_result state

type mis_state = {
  mis_n : int;
  in_set : Stdx.Bitset.t;
  arrived : Stdx.Bitset.t;
  mutable members : int list;
}

let mis_create n =
  { mis_n = n; in_set = Stdx.Bitset.create n; arrived = Stdx.Bitset.create n; members = [] }

let mis_feed state ~vertex ~earlier_neighbors =
  if Stdx.Bitset.mem state.arrived vertex then
    invalid_arg "Insertion_greedy.mis_feed: vertex arrived twice";
  List.iter
    (fun u ->
      if not (Stdx.Bitset.mem state.arrived u) then
        invalid_arg "Insertion_greedy.mis_feed: neighbor has not arrived")
    earlier_neighbors;
  Stdx.Bitset.add state.arrived vertex;
  if not (List.exists (Stdx.Bitset.mem state.in_set) earlier_neighbors) then begin
    Stdx.Bitset.add state.in_set vertex;
    state.members <- vertex :: state.members
  end

let mis_result state = List.rev state.members

let mis_of_graph g ~order =
  let state = mis_create (Graph.n g) in
  let position = Array.make (Graph.n g) max_int in
  Array.iteri (fun i v -> position.(v) <- i) order;
  Array.iter
    (fun v ->
      let earlier =
        List.rev
          (Graph.fold_neighbors
             (fun u acc -> if position.(u) < position.(v) then u :: acc else acc)
             g v [])
      in
      mis_feed state ~vertex:v ~earlier_neighbors:earlier)
    order;
  mis_result state
