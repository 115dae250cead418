type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    ss /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  let frac = pos -. floor pos in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let summarize xs =
  let n = Array.length xs in
  if n = 0 then { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0. }
  else
    {
      count = n;
      mean = mean xs;
      stddev = stddev xs;
      min = Array.fold_left min xs.(0) xs;
      max = Array.fold_left max xs.(0) xs;
      p50 = quantile xs 0.5;
      p90 = quantile xs 0.9;
    }

let wilson_interval ~successes ~trials ~z =
  if trials = 0 then (0., 1.)
  else begin
    let n = float_of_int trials in
    let phat = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let centre = phat +. (z2 /. (2. *. n)) in
    let margin = z *. sqrt ((phat *. (1. -. phat) /. n) +. (z2 /. (4. *. n *. n))) in
    (max 0. ((centre -. margin) /. denom), min 1. ((centre +. margin) /. denom))
  end

(* log of the binomial coefficient via lgamma-free summation of logs;
   n is small (<= a few thousand) in every use here. *)
let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else begin
    let acc = ref 0. in
    for i = 1 to k do
      acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
    done;
    !acc
  end

let binomial_tail_ge ~n ~p ~k =
  if p <= 0. then if k <= 0 then 1. else 0.
  else if p >= 1. then if k <= n then 1. else 0.
  else begin
    let lp = log p and lq = log (1. -. p) in
    let total = ref 0. in
    for i = max 0 k to n do
      let lmass = log_choose n i +. (float_of_int i *. lp) +. (float_of_int (n - i) *. lq) in
      total := !total +. exp lmass
    done;
    min 1. !total
  end

let chernoff_lower_tail ~n ~p ~delta = exp (-.(delta *. delta) *. float_of_int n *. p /. 2.)
