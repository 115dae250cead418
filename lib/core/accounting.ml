module Graph = Dgraph.Graph
module Rs = Rsgraph.Rs_graph
module Model = Sketchmodel.Model

type strategy = Truncate | Hash

type sigma_mode = Fix_sigma | Enumerate_sigma

type spec = { rs : Rs.t; k : int; bits : int; strategy : strategy; sigma_mode : sigma_mode }

type report = {
  spec_bits : int;
  outcomes : int;
  sigma_enumerated : bool;
  kr : float;
  info : float;
  h_m_given_pi : float;
  eq1_residual : float;
  expected_recovered : float;
  lemma33_slack : float;
  h_public : float;
  per_copy_info : float array;
  per_copy_h : float array;
  lemma34_slack : float;
  lemma35_slacks : float array;
  budget_bound : float;
  theorem_slack : float;
}

let tiny_rs () = Rs.trivial ~r:1 ~t:2

let micro_rs () = Rs.bipartite 2

let permutations n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: rest -> (x :: y :: rest) :: List.map (fun l -> y :: l) (insert_everywhere x rest)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insert_everywhere x) (perms rest)
  in
  perms (List.init n (fun i -> i)) |> List.map Array.of_list

(* Message of one player: a prefix (or hash) of its adjacency bitmap over
   the vertex labels [0 .. bits-1].  A genuine function of the player's
   input (its view) and nothing else. *)
let message spec (view : Model.view) =
  let b = spec.bits in
  match spec.strategy with
  | Truncate ->
      let bytes = Bytes.make ((b + 7) / 8) '\000' in
      Array.iter
        (fun u ->
          if u < b then
            Bytes.set bytes (u / 8)
              (Char.chr (Char.code (Bytes.get bytes (u / 8)) lor (1 lsl (u mod 8)))))
        view.Model.neighbors;
      Bytes.to_string bytes
  | Hash ->
      let acc =
        Array.fold_left
          (fun acc u -> Stdx.Hashing.mix64 (acc lxor (u + 1)))
          (Stdx.Hashing.mix64 (view.Model.vertex + 17))
          view.Model.neighbors
      in
      let masked = if b >= 62 then acc else acc land ((1 lsl b) - 1) in
      string_of_int masked

(* Everything the random variables need, precomputed per outcome. *)
type cell = {
  sigma_id : int;
  j : int;
  m_codes : int array;  (** M_{i,J} packed as an r-bit code per copy *)
  pi_public : string;
  pi_unique : string array;  (** per copy: concatenated unique messages *)
  recovered : int;  (** |M^U_π| of the certifying referee *)
}

(* Per-(σ, j_star) invariants, hoisted out of the inner coin-pattern loop:
   the label maps and the matching-edge indices depend only on the
   permutation and the special index, so the 2^(k·|E|) coin patterns of
   one (σ, j_star) share a single frame instead of each re-deriving it (and,
   previously, each freezing a throwaway columnar graph — the dominant
   allocation of the whole enumeration). *)
type frame = {
  frame_sigma_id : int;
  frame_j : int;
  public_labels : int array;
  copy_map : int array array;  (** [copy_map.(i).(v)]: G label of copy-i RS vertex [v] *)
  match_idx : int array;  (** index into the RS edge list of each edge of matching [j] *)
  special : (int * int) array array;
      (** per copy, the normalized mapped edges of matching [j] *)
  mapped : (int * int) array array;  (** per copy, all RS edges mapped to G labels *)
}

let build_frame spec ~rs_edges ~sigma ~sigma_id j =
  let rs = spec.rs in
  let nn = Rs.n rs in
  let rr = rs.Rs.r in
  let n_public = nn - (2 * rr) in
  let v_star = Rs.matching_vertices rs j in
  let star_pos = Array.make nn (-1) in
  Array.iteri (fun pos v -> star_pos.(v) <- pos) v_star;
  (* Rank of each non-star vertex among non-star vertices, in vertex
     order — the same order Hard_dist.make derives from its filter. *)
  let non_pos = Array.make nn (-1) in
  let next = ref 0 in
  for v = 0 to nn - 1 do
    if star_pos.(v) < 0 then begin
      non_pos.(v) <- !next;
      incr next
    end
  done;
  let public_labels = Array.init n_public (fun l -> sigma.(l)) in
  let unique_label i l = sigma.(n_public + (i * 2 * rr) + l) in
  let copy_map =
    Array.init spec.k (fun i ->
        Array.init nn (fun v ->
            if star_pos.(v) >= 0 then unique_label i star_pos.(v)
            else public_labels.(non_pos.(v))))
  in
  let match_idx =
    Array.map
      (fun (u, v) ->
        let e = Graph.normalize_edge u v in
        let found = ref (-1) in
        Array.iteri (fun idx e' -> if e' = e then found := idx) rs_edges;
        if !found < 0 then
          invalid_arg "Accounting.build_frame: matching edge missing from RS edge list";
        !found)
      rs.Rs.matchings.(j)
  in
  let special =
    Array.init spec.k (fun i ->
        Array.map
          (fun (u, v) -> Graph.normalize_edge copy_map.(i).(u) copy_map.(i).(v))
          rs.Rs.matchings.(j))
  in
  let mapped =
    Array.init spec.k (fun i ->
        Array.map (fun (u, v) -> Graph.normalize_edge copy_map.(i).(u) copy_map.(i).(v)) rs_edges)
  in
  { frame_sigma_id = sigma_id; frame_j = j; public_labels; copy_map; match_idx; special; mapped }

let kept_of_code spec ~edge_count code =
  Array.init spec.k (fun i ->
      Array.init edge_count (fun e -> code land (1 lsl ((i * edge_count) + e)) <> 0))

(* Views of one outcome, computed without materialising the graph. Public
   players read their neighbourhood off the deduped mapped edge set — the
   exact edge set [Hard_dist.make] freezes, so sorting the collected
   endpoints reproduces [Graph.neighbors]'s ascending CSR rows; unique
   players use copy-local RS adjacency exactly as
   [Hard_dist.augmented_views] does. The equivalence is pinned by test. *)
let public_views ~n frame mapped =
  Array.map
    (fun label ->
      let nbrs =
        List.filter_map
          (fun (a, b) -> if a = label then Some b else if b = label then Some a else None)
          mapped
        |> List.sort compare
      in
      { Model.n; vertex = label; neighbors = Array.of_list nbrs })
    frame.public_labels

let unique_views_row spec ~rs_edges ~n frame ~copy ~kept_row =
  let nn = Rs.n spec.rs in
  Array.init nn (fun v ->
      let nbrs = ref [] in
      Array.iteri
        (fun e (a, b) ->
          if kept_row.(e) then
            if a = v then nbrs := frame.copy_map.(copy).(b) :: !nbrs
            else if b = v then nbrs := frame.copy_map.(copy).(a) :: !nbrs)
        rs_edges;
      {
        Model.n;
        vertex = frame.copy_map.(copy).(v);
        neighbors = Array.of_list (List.sort compare !nbrs);
      })

(* Truncate messages are adjacency bitmaps over the labels [< b] —
   insensitive to neighbour order and duplicates — so the hot enumeration
   writes them straight off the mapped edge arrays, skipping the sorted
   view construction entirely. Hash hashes the ordered neighbour
   sequence, so it still goes through the view builders; the test suite
   pins the fast path byte-identical to the view-based messages. *)
let set_bit bytes b u =
  if u < b then
    Bytes.set bytes (u / 8) (Char.chr (Char.code (Bytes.get bytes (u / 8)) lor (1 lsl (u mod 8))))

let truncate_public_message spec ~edge_count frame code label =
  let b = spec.bits in
  let bytes = Bytes.make ((b + 7) / 8) '\000' in
  for i = 0 to spec.k - 1 do
    let row = frame.mapped.(i) in
    for e = 0 to edge_count - 1 do
      if code land (1 lsl ((i * edge_count) + e)) <> 0 then begin
        let a, c = row.(e) in
        if a = label then set_bit bytes b c else if c = label then set_bit bytes b a
      end
    done
  done;
  Bytes.to_string bytes

let truncate_unique_message spec ~rs_edges frame ~copy ~kept_row v =
  let b = spec.bits in
  let bytes = Bytes.make ((b + 7) / 8) '\000' in
  Array.iteri
    (fun e (a, c) ->
      if kept_row.(e) then
        if a = v then set_bit bytes b frame.copy_map.(copy).(c)
        else if c = v then set_bit bytes b frame.copy_map.(copy).(a))
    rs_edges;
  Bytes.to_string bytes

let surviving_mapped spec ~edge_count frame code =
  let acc = ref [] in
  for i = spec.k - 1 downto 0 do
    let row = frame.mapped.(i) in
    for e = edge_count - 1 downto 0 do
      if code land (1 lsl ((i * edge_count) + e)) <> 0 then acc := row.(e) :: !acc
    done
  done;
  List.sort_uniq compare !acc

let frame_views spec ~rs_edges ~edge_count ~n frame code =
  let pviews = public_views ~n frame (surviving_mapped spec ~edge_count frame code) in
  let kept = kept_of_code spec ~edge_count code in
  let uviews =
    Array.concat
      (List.init spec.k (fun i ->
           unique_views_row spec ~rs_edges ~n frame ~copy:i ~kept_row:kept.(i)))
  in
  Array.append pviews uviews

let enumerated_views spec ~sigma ~j ~code =
  let rs_edges = Graph.edges_array spec.rs.Rs.graph in
  let edge_count = Array.length rs_edges in
  let nn = Rs.n spec.rs in
  let rr = spec.rs.Rs.r in
  let n = nn - (2 * rr) + (2 * rr * spec.k) in
  let frame = build_frame spec ~rs_edges ~sigma ~sigma_id:0 j in
  frame_views spec ~rs_edges ~edge_count ~n frame code

(* Per-player messages of one outcome on the path [analyze] actually
   takes: the Truncate bitmap fast path (no views), the view-based
   [message] for Hash. Exported so the test suite can pin it
   byte-identical to [message] over the reference views. *)
let enumerated_messages spec ~sigma ~j ~code =
  let rs_edges = Graph.edges_array spec.rs.Rs.graph in
  let edge_count = Array.length rs_edges in
  let nn = Rs.n spec.rs in
  let rr = spec.rs.Rs.r in
  let n = nn - (2 * rr) + (2 * rr * spec.k) in
  let frame = build_frame spec ~rs_edges ~sigma ~sigma_id:0 j in
  match spec.strategy with
  | Hash -> Array.map (message spec) (frame_views spec ~rs_edges ~edge_count ~n frame code)
  | Truncate ->
      let kept = kept_of_code spec ~edge_count code in
      let publics =
        Array.map (truncate_public_message spec ~edge_count frame code) frame.public_labels
      in
      let uniques =
        Array.concat
          (List.init spec.k (fun i ->
               Array.init nn
                 (truncate_unique_message spec ~rs_edges frame ~copy:i ~kept_row:kept.(i))))
      in
      Array.append publics uniques

(* A frame plus everything per-copy that only depends on that copy's
   2^|E| edge-drop pattern: the unique players of copy i see copy-i edges
   only, so their concatenated transcript Π(U_i), the survivor code
   M_{i,J}, and the copy's certified-recovery count all take just
   2^|E| values per frame — memoising them here means each is built once
   per frame instead of once per each of the 2^(k·|E|) cells. *)
type frame_prep = {
  frame : frame;
  pi_u : string array array;  (** [pi_u.(i).(p)]: Π(U_i) under copy-i pattern [p] *)
  m_code : int array array;
  rec_cnt : int array array;
}

let prep_frame spec ~rs_edges ~edge_count ~n frame =
  let patterns = 1 lsl edge_count in
  let per_copy build = Array.init spec.k (fun i -> Array.init patterns (build i)) in
  let row_of p = Array.init edge_count (fun e -> p land (1 lsl e) <> 0) in
  let nn = Rs.n spec.rs in
  let pi_u =
    per_copy (fun i p ->
        let kept_row = row_of p in
        let buf = Buffer.create 64 in
        (match spec.strategy with
        | Truncate ->
            for v = 0 to nn - 1 do
              Buffer.add_string buf (truncate_unique_message spec ~rs_edges frame ~copy:i ~kept_row v);
              Buffer.add_char buf '|'
            done
        | Hash ->
            Array.iter
              (fun view ->
                Buffer.add_string buf (message spec view);
                Buffer.add_char buf '|')
              (unique_views_row spec ~rs_edges ~n frame ~copy:i ~kept_row));
        Buffer.contents buf)
  in
  let m_code =
    per_copy (fun _ p ->
        Array.fold_left
          (fun acc idx -> (acc lsl 1) lor (if p land (1 lsl idx) <> 0 then 1 else 0))
          0 frame.match_idx)
  in
  (* Certifying referee (Truncate only): a surviving special edge (i,(a,b))
     is output iff one endpoint's transmitted bitmap prefix covers the
     other endpoint's label, so the referee is certain it exists. *)
  let rec_cnt =
    per_copy (fun i p ->
        match spec.strategy with
        | Hash -> 0
        | Truncate ->
            let count = ref 0 in
            Array.iteri
              (fun pos idx ->
                if p land (1 lsl idx) <> 0 then begin
                  let a, b = frame.special.(i).(pos) in
                  if a < spec.bits || b < spec.bits then incr count
                end)
              frame.match_idx;
            !count)
  in
  { frame; pi_u; m_code; rec_cnt }

let build_cell spec ~edge_count ~n prep code =
  let frame = prep.frame in
  let mask = (1 lsl edge_count) - 1 in
  let pat i = (code lsr (i * edge_count)) land mask in
  let buf = Buffer.create 64 in
  (match spec.strategy with
  | Truncate ->
      Array.iter
        (fun label ->
          Buffer.add_string buf (truncate_public_message spec ~edge_count frame code label);
          Buffer.add_char buf '|')
        frame.public_labels
  | Hash ->
      Array.iter
        (fun view ->
          Buffer.add_string buf (message spec view);
          Buffer.add_char buf '|')
        (public_views ~n frame (surviving_mapped spec ~edge_count frame code)));
  let pi_public = Buffer.contents buf in
  let pi_unique = Array.init spec.k (fun i -> prep.pi_u.(i).(pat i)) in
  let m_codes = Array.init spec.k (fun i -> prep.m_code.(i).(pat i)) in
  let recovered = ref 0 in
  for i = 0 to spec.k - 1 do
    recovered := !recovered + prep.rec_cnt.(i).(pat i)
  done;
  {
    sigma_id = frame.frame_sigma_id;
    j = frame.frame_j;
    m_codes;
    pi_public;
    pi_unique;
    recovered = !recovered;
  }

let analyze spec =
  let rs = spec.rs in
  let edge_count = Graph.m rs.Rs.graph in
  if spec.k * edge_count > 16 then invalid_arg "Accounting.analyze: space too large";
  if spec.k < 1 || spec.bits < 0 then invalid_arg "Accounting.analyze: spec";
  let tt = rs.Rs.t_count and rr = rs.Rs.r in
  let nn = Rs.n rs in
  let n = nn - (2 * rr) + (2 * rr * spec.k) in
  let sigmas =
    match spec.sigma_mode with
    | Fix_sigma -> [| Array.init n (fun v -> v) |]
    | Enumerate_sigma ->
        if n > 7 then invalid_arg "Accounting.analyze: n too large to enumerate sigma";
        Array.of_list (permutations n)
  in
  let rs_edges = Graph.edges_array rs.Rs.graph in
  let code_count = 1 lsl (spec.k * edge_count) in
  let per_sigma = tt * code_count in
  let preps =
    Array.init
      (Array.length sigmas * tt)
      (fun f ->
        prep_frame spec ~rs_edges ~edge_count ~n
          (build_frame spec ~rs_edges ~sigma:sigmas.(f / tt) ~sigma_id:(f / tt) (f mod tt)))
  in
  let cells =
    Array.init (Array.length sigmas * per_sigma) (fun idx ->
        let sigma_id = idx / per_sigma in
        let rest = idx mod per_sigma in
        let j = rest / code_count in
        build_cell spec ~edge_count ~n preps.((sigma_id * tt) + j) (rest mod code_count))
  in
  let space = Infotheory.Space.uniform (List.init (Array.length cells) (fun i -> i)) in
  (* RV keys are materialised once per outcome and shared across every
     entropy pass below: the passes only consume the keys through
     structural hashing/equality, so sharing cannot change any table —
     it only stops each pass re-boxing the same lists and tuples. *)
  let m_keys = Array.map (fun c -> Array.to_list c.m_codes) cells in
  let given_keys = Array.map (fun c -> (c.sigma_id, c.j)) cells in
  let pi_keys =
    Array.map (fun c -> (c.pi_public, Array.to_list c.pi_unique)) cells
  in
  let given_rv i = given_keys.(i) in
  let m_rv i = m_keys.(i) in
  let m_i_rv copy i = cells.(i).m_codes.(copy) in
  let pi_p_rv i = cells.(i).pi_public in
  let pi_u_rv copy i = cells.(i).pi_unique.(copy) in
  let pi_rv i = pi_keys.(i) in
  let module E = Infotheory.Entropy in
  let info = E.conditional_mutual_information space m_rv pi_rv ~given:given_rv in
  let h_m_given_pi = E.conditional_entropy space m_rv ~given:(E.pair pi_rv given_rv) in
  let kr = float_of_int (spec.k * rr) in
  let expected_recovered =
    Infotheory.Space.expectation space (fun i -> float_of_int cells.(i).recovered)
  in
  let h_public = E.entropy space pi_p_rv in
  let per_copy_info =
    Array.init spec.k (fun copy ->
        E.conditional_mutual_information space (m_i_rv copy) (pi_u_rv copy) ~given:given_rv)
  in
  let per_copy_h = Array.init spec.k (fun copy -> E.entropy space (pi_u_rv copy)) in
  let sum = Array.fold_left ( +. ) 0. in
  let p_count = nn - (2 * rr) in
  let budget_bound =
    float_of_int spec.bits
    *. (float_of_int p_count +. (float_of_int (spec.k * nn) /. float_of_int tt))
  in
  {
    spec_bits = spec.bits;
    outcomes = Array.length cells;
    sigma_enumerated = spec.sigma_mode = Enumerate_sigma;
    kr;
    info;
    h_m_given_pi;
    eq1_residual = abs_float (info -. (kr -. h_m_given_pi));
    expected_recovered;
    lemma33_slack = kr -. expected_recovered +. 1. -. h_m_given_pi;
    h_public;
    per_copy_info;
    per_copy_h;
    lemma34_slack = h_public +. sum per_copy_info -. info;
    lemma35_slacks =
      Array.init spec.k (fun i -> (per_copy_h.(i) /. float_of_int tt) -. per_copy_info.(i));
    budget_bound;
    theorem_slack = budget_bound -. info;
  }

let all_inequalities_hold report =
  let tol = 1e-6 in
  report.eq1_residual < tol
  && report.lemma33_slack >= -.tol
  && report.lemma34_slack >= -.tol
  && ((not report.sigma_enumerated) || Array.for_all (fun s -> s >= -.tol) report.lemma35_slacks)
  && ((not report.sigma_enumerated) || report.theorem_slack >= -.tol)
