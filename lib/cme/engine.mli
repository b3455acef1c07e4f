(** The fast CME point solver (sections 2.2–2.4 of the paper).

    [classify] decides, for one iteration point and one reference, whether
    the access hits or misses, and classifies the miss:

    - for every reuse vector of the reference, the potential source access
      is [point - delta]; the *compulsory equations* correspond to the
      source falling outside the iteration space (or on a different memory
      line, for spatial reuse);
    - the *replacement equations* correspond to some access between source
      and destination mapping to the same cache set with a different memory
      line; in a k-way cache, [k] distinct such lines are needed (§2.2).

    The access hits iff at least one reuse vector has an in-space, same-line
    source with fewer than [assoc] distinct interfering lines on its path
    (i.e. the point solves none of that vector's equations); it is a
    compulsory miss iff no reuse vector has a same-line in-space source.

    Replacement queries are answered analytically: the image of a
    reference's address function over a path box is a small set of
    generators (steps and counts); its residues modulo [sets * line] are
    computed once per generator signature (memoised) and probed against the
    window of the destination's cache set, and distinct interfering lines
    are identified by exact interval queries with gcd/denseness shortcuts.
    Queries that exceed the window/recursion budget fall back to a
    conservative answer and are counted in {!fallback_count}. *)

type outcome = Hit | Compulsory_miss | Replacement_miss

type t

val create :
  ?window_cap:int -> Tiling_ir.Nest.t -> Tiling_cache.Config.t -> t
(** Builds the solver context: address forms, reuse vectors, memo tables.
    [window_cap] bounds the per-segment exact window enumeration (default
    512). *)

val nest : t -> Tiling_ir.Nest.t
val cache : t -> Tiling_cache.Config.t

val reuse_vectors : t -> Tiling_reuse.Vectors.t list array
(** The reuse vectors the solver uses, per reference. *)

val classify : t -> int array -> int -> outcome
(** [classify t point ref_id] decides the outcome of reference [ref_id] at
    [point].  [point] must be an iteration point of the nest. *)

val reuse_sources : t -> int array -> int -> (int array * int) list
(** [reuse_sources t point ref_id] lists the valid same-line reuse sources
    of the access — each an earlier (point, reference) pair, already
    normalised to the latest realisation (see the module comment).  Besides
    the static reuse vectors, earlier same-iteration references and every
    reference of the execution predecessor are always considered, which
    captures streaming reuse whose memory line wraps across several layout
    dimensions between consecutive iterations.  Empty means the access is a
    compulsory miss; the access hits iff at least one source's path is
    interference-free.  Exposed for the symbolic solver and for tests. *)

val fallback_count : t -> int
(** Number of replacement queries answered conservatively so far. *)

val memo_size : t -> int
(** Number of distinct residue images in this engine's private table
    (ablation metric). *)

(** {2 Cross-engine residue cache}

    Canonical generator signatures recur across the hundreds of engines a
    GA run creates (the modulus is fixed by the cache configuration and
    nearby tile vectors share generators), so residue images are also
    cached in a process-wide, sharded, mutex-protected table keyed by
    [(modulus, canonical generators)].  Each engine's private table acts
    as an L1 in front of it.  The shared cache is bounded and evicts in
    FIFO insertion order; eviction only ever costs a recompute, never
    correctness.  Hits, misses and evictions are counted in the
    [cme.residues.shared.{hit,miss,evictions}] metrics. *)

val set_shared_residue_capacity : int -> unit
(** Bound the shared cache to roughly [n] entries (rounded up to at least
    one entry per shard; default 4096), evicting immediately if the new
    bound is tighter.  @raise Invalid_argument if [n < 0]. *)

val clear_shared_residues : unit -> unit
(** Empty the shared cache (benchmarks use this to measure cold-cache
    evaluation; engines remain valid, their private tables untouched). *)

val shared_residue_size : unit -> int
(** Number of residue images currently in the shared cache. *)
