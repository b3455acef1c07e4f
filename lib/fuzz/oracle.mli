(** The differential oracle: the CME point solver, driven through
    {!Tiling_cme.Estimator.exact}, must assign every reference the same
    access, miss and compulsory-miss counts as the trace-driven
    set-associative LRU simulator ({!Tiling_cache.Sim} fed by
    {!Tiling_trace}).

    Conservative solver answers (window-cap fallbacks) are legitimate
    over-approximations, not model bugs; a disagreeing run whose engine
    fell back at least once is therefore reported as {!Inconclusive}
    rather than {!Mismatch}. *)

type ref_delta = {
  ref_id : int;
  cme : int * int * int;  (** (accesses, misses, compulsory) per the solver *)
  sim : int * int * int;  (** the same triple per the simulator *)
}

type verdict =
  | Agree
  | Mismatch of ref_delta list      (** fallback-free disagreement: a bug *)
  | Inconclusive of ref_delta list  (** disagreement under >= 1 fallback *)

type result = {
  verdict : verdict;
  fallbacks : int;  (** conservative solver answers during the run *)
  points : int;     (** iteration points classified *)
  accesses : int;   (** total accesses compared *)
}

val check : Tiling_ir.Nest.t -> Tiling_cache.Config.t -> result
(** Runs both sides on the same nest and geometry and compares per-ref. *)

val check_case : Case.t -> result
(** {!check} on a regenerated case. *)

val pp_result : result Fmt.t
(** Human-readable verdict with per-reference deltas on disagreement. *)
