(** The daemon's persistent result store: a cache of final search
    answers, backed by a disk tier for the {!Tiling_search.Memo} of every
    search the daemon runs.

    A daemon sees the {e same} searches again across requests and
    restarts, and a search is deterministic in its inputs.  The store
    keeps two kinds of record in one append-only log:

    - {b answers}: the final outcome JSON of a search, keyed by an
      {e answer key} (the search fingerprint plus a digest of the search
      options).  A repeat search is one lookup;
    - {b candidates}: each fresh candidate evaluation, keyed by the
      search's {e fingerprint} (a string digesting everything that
      determines objective values: method, kernel, geometry, cache,
      backend, seed) plus the packed candidate key.  A search cut short
      by its deadline leaves its finished work here, and a search that
      differs only in its options replays over these records.

    Properties:

    - {b append-only}: a record is one text line; writes never touch
      earlier bytes, so a crash can at worst truncate the final line;
    - {b crash-safe load}: malformed or truncated lines are counted and
      skipped, never fatal;
    - {b periodic compaction}: when enough dead lines accumulate
      (duplicate keys from concurrent same-fingerprint requests), the
      log is rewritten through a temp file and atomically renamed;
    - {b multi-process safe}: several daemons may share one log
      (docs/SERVER.md "Coalescing and shared stores").  All disk traffic
      happens under a cross-process advisory lock on a [<path>.lock]
      sidecar (a dedicated file because fcntl locks die with any close
      of any descriptor on the locked file, and compaction must reopen
      the log); appends are batched in memory and land as one
      [write(2)] on an [O_APPEND] descriptor, so two processes never
      interleave bytes.  {!sync} and {!refresh} fold records appended
      by sibling processes into this process's tables, and detect a
      sibling's compaction (inode change) to re-read the rewritten log
      — so compaction never drops another process's results.

    The advisory lock is fcntl-based and therefore {e per-process}: two
    {!t} values for the same path inside one process are not isolated
    from each other (and don't need to be — they already serialise on
    their own mutexes and O_APPEND).

    All operations are thread-safe.  Store traffic is counted both in
    local atomics (always on, served by [tiler request stats]) and in
    the {!Tiling_obs.Metrics} registry under [server.store.*]. *)

type t

val open_ : ?compact_min_dead:int -> path:string -> unit -> (t, string) result
(** Load (or create) the log at [path].  [compact_min_dead] is the dead-
    record count that triggers compaction at the next {!sync} (default
    1024, overridable with the [TILING_STORE_COMPACT_MIN] environment
    variable).  Fails if the file exists but does not carry the store
    header — the store never clobbers a foreign file. *)

val path : t -> string

val fingerprint :
  method_:string ->
  kernel:string ->
  n:int ->
  cache:Tiling_cache.Config.t ->
  backend:string ->
  seed:int ->
  string
(** The canonical search fingerprint, e.g.
    ["tile|mm|64|8192:32:1|cme-sample|20020815"].  Everything the
    objective value of a candidate depends on must be in here; GA
    population parameters (restarts, generation counts) must not be —
    they change which candidates are visited, never their values.  They
    do change a search's final answer, so answer keys add a digest of
    them ({!Server.answer_key}). *)

val find : t -> fingerprint:string -> Tiling_search.Memo.Key.t -> float option
(** Bumps the store hit/miss counters. *)

val append : t -> fingerprint:string -> Tiling_search.Memo.Key.t -> float -> unit
(** Record one evaluation (in memory immediately; on disk at the next
    {!sync} / buffered-channel flush). *)

val find_answer : t -> key:string -> string option
(** The answer stored under [key], byte-for-byte as it was appended.
    Bumps the store hit/miss counters, and the answer-hit counter on a
    hit. *)

val append_answer : t -> key:string -> string -> unit
(** Record one final answer: the text of one JSON object.  Like
    {!append}, it is in memory immediately and on disk at the next
    {!sync}.  On load, an answer line whose object is cut short is
    skipped as malformed; its text is not parsed until a lookup needs
    it. *)

val tier : t -> fingerprint:string -> float Tiling_search.Memo.tier
(** The {!find}/{!append} pair curried over one fingerprint, shaped for
    {!Tiling_search.Memo.set_tier}. *)

val sync : t -> unit
(** Flush buffered appends to disk, fold in records appended by other
    processes sharing the log, and compact if enough dead records
    accumulated.  The daemon calls this after every completed request.
    When nothing changed on either side, the cost is one [stat(2)]. *)

val refresh : t -> unit
(** {!sync} without the compaction trigger: reconcile with the shared
    log (flush our pending appends, fold in everyone else's).  Search
    handlers call this before starting work so a daemon answers warm
    even when another process sharing the log computed the result. *)

val close : t -> unit
(** Flush pending appends, then close the log and its lock.  The store
    must not be used after. *)

(** {2 Introspection (for [stats] and tests)} *)

val entries : t -> int
(** live records: distinct fingerprint+key pairs plus distinct answer
    keys *)

val records : t -> int  (** log lines, dead ones included *)

val fingerprints : t -> int

val answers : t -> int  (** distinct answer keys *)

val hits : t -> int  (** lookups served, answers included *)

val answer_hits : t -> int

val misses : t -> int

val appends : t -> int

val compactions : t -> int

val skipped_on_load : t -> int
(** Malformed/truncated lines tolerated by {!open_} and later
    refreshes. *)
