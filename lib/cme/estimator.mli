(** Miss-ratio estimation from the CME point solver.

    Two drivers: [exact] visits every iteration point (only viable for tiny
    spaces; used by tests and the optimality oracle), and [sample]
    implements the paper's Simple Random Sampling scheme — a fixed number of
    points chosen uniformly, each access classified independently, and the
    population miss ratio inferred through a binomial confidence interval
    (width 0.1 at 90 % confidence needs 164 points, section 2.3). *)

type ref_counts = { r_accesses : int; r_misses : int; r_compulsory : int }
(** Per-reference classification totals (the CME property that "each memory
    reference can be studied independently of the others", section 2.3). *)

type report = {
  points : int;        (** iteration points examined *)
  accesses : int;      (** [points * number of references] *)
  misses : int;
  compulsory : int;
  per_ref : ref_counts array;  (** indexed by [ref_id] *)
  miss_ratio : Tiling_util.Stats.interval;
  replacement_ratio : Tiling_util.Stats.interval;
  fallbacks : int;     (** conservative solver answers during this run *)
}

val replacement : report -> int
(** Replacement (capacity + conflict) misses observed. *)

val exact : Engine.t -> report
(** Classify every access of the nest. *)

val exact_by_region : Engine.t -> (Box.t * report) list
(** Like {!exact}, but one report per convex region of the iteration space
    (the path slicer's [full_space] decomposition, which pins dimensions
    that affine bounds depend on pointwise).  The regions partition the
    space, so the per-region counts sum to {!exact}'s totals; triangular
    nests expose per-region cost this way (section 2.3). *)

val sample : ?width:float -> ?confidence:float -> seed:int -> Engine.t -> report
(** Paper defaults: [width = 0.1], [confidence = 0.9] (164 points).  The
    sample size and the reported intervals both honour the requested
    [confidence]: the half-width is the [confidence]-level normal quantile
    around the sampled ratio, not a relabelled default. *)

val sample_at : ?confidence:float -> Engine.t -> int array array -> report
(** Classify exactly the given points (common-random-number evaluation: the
    genetic algorithm passes the same underlying sample to every candidate
    tiling to make objective values comparable).  Intervals are computed at
    [confidence] (default 0.9); an empty point set yields degenerate
    zero-width intervals. *)

val default_points : unit -> int
(** The paper's sample size: [required_sample_size ~width:0.1
    ~confidence:0.9] = 164. *)

val to_json : report -> Tiling_obs.Json.t
(** Machine-readable rendering of a report: totals, both confidence
    intervals, the per-call fallback delta and per-reference counts. *)

val pp : report Fmt.t

val pp_per_ref : Tiling_ir.Nest.t -> report Fmt.t
(** One line per reference: array name, access kind, miss/replacement
    ratios. *)
