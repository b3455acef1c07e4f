(** The fuzzing loop: draw random cases, run the oracle, shrink failures.

    Trials are deterministic in [(seed, index)] — every trial derives its
    own generator from the master seed and its index, so a run is
    reproducible regardless of how many trials a time budget allowed, and
    any single trial can be replayed in isolation.

    Observability: the run emits [fuzz.trials], [fuzz.agree],
    [fuzz.inconclusive] and [fuzz.mismatches] counters (plus
    [fuzz.shrink.steps] from the shrinker) and wraps itself in a
    [fuzz.run] span. *)

type knobs = {
  max_depth : int;    (** loop depth drawn from [1, max_depth] *)
  min_extent : int;   (** per-loop trip count lower bound *)
  max_extent : int;   (** per-loop trip count upper bound *)
  max_narrays : int;  (** arrays drawn from [1, max_narrays] *)
  max_nrefs : int;    (** references drawn from [1, max_nrefs] *)
  max_offset : int;   (** subscript offset bound drawn from [0, max_offset] *)
  max_coeff : int;    (** subscript coefficient bound drawn from [1, max_coeff] *)
  max_step : int;     (** loop step drawn from [1, max_step] *)
  max_sets : int;     (** sets = 2^k up to this (power of two); 1 = fully assoc. *)
  max_assoc : int;    (** associativity = 2^k up to this (power of two) *)
  lines : int list;   (** line sizes to draw from (powers of two) *)
  max_tri_pct : int;
      (** [tri_ratio] drawn from [0, max_tri_pct] percent; [0] (the
          default) draws nothing, keeping rectangular case streams
          byte-identical to pre-triangular runs *)
}

val default_knobs : knobs
(** depth <= 3, extents 2..10, <= 3 arrays, <= 5 refs, offsets <= 3,
    coefficients <= 3, steps <= 3, sets <= 32, assoc <= 8, lines
    {8, 16, 32, 64} — sweeping direct-mapped through fully-associative
    geometries.  Rectangular only ([max_tri_pct = 0]); pass [tri=...] to
    {!knobs_of_string} to mix in triangular shapes. *)

val knobs_of_string : string -> (knobs, string) result
(** Comma-separated [key=value] overrides of {!default_knobs}: [depth],
    [extent] (max trip count), [arrays], [refs], [offset], [coeff],
    [step], [sets], [assoc], [line] (pin a single line size), [tri]
    (max triangular probability, percent 0-100).  Example:
    ["depth=2,extent=8,line=32,tri=60"]. *)

val draw_case : knobs -> Tiling_util.Prng.t -> Case.t
(** One random case under the knobs (exposed for tests).  Array bases are
    aligned to the drawn line size, keeping distinct arrays off shared
    cache lines — the regime the CME reuse model describes. *)

type mismatch = {
  trial : int;              (** trial index that found it *)
  raw : Case.t;             (** as drawn *)
  shrunk : Case.t;          (** after delta-debugging *)
  shrink_checks : int;      (** oracle runs the shrinker spent *)
  result : Oracle.result;   (** oracle output for [shrunk] *)
}

type outcome = {
  trials_run : int;
  agreed : int;
  inconclusive : int;       (** disagreements masked by solver fallbacks *)
  fallback_trials : int;    (** trials with >= 1 fallback (any verdict) *)
  mismatches : mismatch list;
  accesses : int;           (** total accesses compared across all trials *)
  wall_s : float;
}

val run :
  ?knobs:knobs ->
  ?time_budget:float ->
  ?on_trial:(int -> Case.t -> Oracle.result -> unit) ->
  ?domains:int ->
  trials:int ->
  seed:int ->
  unit ->
  outcome
(** Runs up to [trials] trials (stopping early once [time_budget] seconds
    of wall clock have elapsed, if given) and minimizes every mismatch.
    [on_trial] observes each trial as it completes (progress reporting).

    [domains] (default 1) fans the oracle checks out over the domain pool
    in batches of [domains * 4] trials; accounting, shrinking and
    [on_trial] still run sequentially in trial-index order, so the outcome
    is byte-identical to a sequential run.  The time budget is tested
    between batches rather than between trials. *)

val load_corpus : string -> (Case.t list, string) result
(** Parses a corpus file: one {!Case.to_string} line per entry, blank
    lines and [#] comments ignored.  The error names the offending line
    number. *)
