(** Summary statistics for experiment outputs.

    Small, exact helpers behind every "mean ± stddev" column the tables
    print and the tail bounds the Claim 3.1 experiments check. *)

type summary = {
  count : int;  (** Number of samples. *)
  mean : float;  (** Arithmetic mean; [nan] on empty input. *)
  stddev : float;  (** Unbiased sample standard deviation. *)
  min : float;  (** Smallest sample. *)
  max : float;  (** Largest sample. *)
  p50 : float;  (** Median ({!quantile} at 0.5). *)
  p90 : float;  (** 90th percentile ({!quantile} at 0.9). *)
}
(** The descriptive statistics of one sample array. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance; [0.] for fewer than two points. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0, 1\]], linear interpolation between order
    statistics. Requires a non-empty array. *)

val summarize : float array -> summary
(** All of the above in one pass (plus a sort for the percentiles). *)

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** Wilson score confidence interval for a binomial proportion. *)

val binomial_tail_ge : n:int -> p:float -> k:int -> float
(** [binomial_tail_ge ~n ~p ~k] = Pr[Bin(n, p) >= k], computed exactly by
    summing the mass function in log-space. Used to check the Chernoff step
    of Claim 3.1 against exact tail values on small instances. *)

val chernoff_lower_tail : n:int -> p:float -> delta:float -> float
(** The multiplicative Chernoff upper bound
    [exp (-delta^2 * n * p / 2)] on [Pr\[Bin(n,p) <= (1-delta) n p\]]. *)
