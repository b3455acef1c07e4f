(** Pluggable cost backends: how much does a candidate cost?

    Every search strategy in this reproduction (GA tiling, padding, joint
    pad+tile, loop-order, and all the baselines) ultimately asks one
    question of a fully transformed nest: how many replacement misses does
    it suffer?  A backend answers that question.  The search layer never
    hardcodes the cost model, so swapping the CME sampler for an exact
    enumeration or for the trace-driven simulator — the ground-truth
    oracle the CMEs approximate — is a one-argument change.

    A backend receives the *prepared* candidate: the nest after tiling /
    padding / interchange has been applied, plus the common iteration-point
    sample embedded into that nest's coordinates.  Preparing candidates is
    the strategy's job (see {!Eval}); costing them is the backend's. *)

type t = {
  name : string;  (** CLI / report identifier, e.g. ["cme-sample"] *)
  cost :
    Tiling_cache.Config.t -> Tiling_ir.Nest.t -> points:int array array -> float;
      (** [cost cache nest ~points] is the candidate's objective value
          (lower is better): its replacement-miss count.  [points] is the
          embedded common sample; backends that enumerate the whole
          iteration space ignore it.  Must be pure and safe to call from
          several domains at once. *)
}

val cme_sample : t
(** The paper's objective: CME point solver over the embedded sample
    ({!Tiling_cme.Estimator.sample_at}).  Name: ["cme-sample"]. *)

val cme_exact : t
(** CME point solver over every iteration point
    ({!Tiling_cme.Estimator.exact}) — exact but only viable on small
    spaces.  Name: ["cme-exact"]. *)

val sim : t
(** Trace-driven cache simulation ({!Tiling_trace.Run.simulate}): replays
    the nest's full address trace through the LRU simulator.  The
    ground-truth oracle the CME backends are validated against.
    Name: ["sim"]. *)

val symbolic : t
(** {!cme_sample} under the name ["symbolic"], outside {!all}, so no CLI
    flag or wire request selects it.  It is kept only because the traced
    symbolic pass of [perfbench/tile_run.ml] names it, and [perfbench/]
    changes only together with the benchmark definition, so that runs
    stay comparable.  The next benchmark change should drop that pass,
    and then this value. *)

val default : t
(** [cme_sample]. *)

val all : t list
(** [cme_sample; cme_exact; sim] — the backends a name selects. *)

val names : string list

val of_string : string -> (t, string) result
(** Look a backend up by [name]; the error message lists valid names. *)
