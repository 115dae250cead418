(* Stoer-Wagner minimum cut on unweighted simple graphs, implemented over a
   contracted weight matrix.  Each phase runs a maximum-adjacency search;
   the cut-of-the-phase isolates the last-added vertex, and the two last
   vertices are merged for the next phase. *)

let min_cut g =
  let n = Graph.n g in
  if n < 2 then max_int
  else begin
    let w = Array.make_matrix n n 0 in
    Graph.iter_edges
      (fun u v ->
        w.(u).(v) <- 1;
        w.(v).(u) <- 1)
      g;
    let merged = Array.make n false in
    let best = ref max_int in
    let active = ref n in
    while !active > 1 do
      (* Maximum-adjacency order over the still-active vertices. *)
      let in_a = Array.make n false in
      let weight_to_a = Array.make n 0 in
      let prev = ref (-1) and last = ref (-1) in
      for _ = 1 to !active do
        (* Pick the most tightly connected remaining vertex. *)
        let pick = ref (-1) in
        for v = 0 to n - 1 do
          if (not merged.(v)) && not in_a.(v) then
            if !pick = -1 || weight_to_a.(v) > weight_to_a.(!pick) then pick := v
        done;
        let v = !pick in
        in_a.(v) <- true;
        prev := !last;
        last := v;
        for u = 0 to n - 1 do
          if (not merged.(u)) && not in_a.(u) then weight_to_a.(u) <- weight_to_a.(u) + w.(v).(u)
        done
      done;
      (* Cut of the phase: the last vertex against the rest. *)
      let phase_cut = ref 0 in
      for u = 0 to n - 1 do
        if (not merged.(u)) && u <> !last then phase_cut := !phase_cut + w.(!last).(u)
      done;
      if !phase_cut < !best then best := !phase_cut;
      (* Merge last into prev. *)
      merged.(!last) <- true;
      for u = 0 to n - 1 do
        if not merged.(u) then begin
          w.(!prev).(u) <- w.(!prev).(u) + w.(!last).(u);
          w.(u).(!prev) <- w.(!prev).(u)
        end
      done;
      decr active
    done;
    !best
  end

let is_k_edge_connected g k =
  if k <= 0 then Graph.n g > 0 else Graph.n g >= 2 && min_cut g >= k
