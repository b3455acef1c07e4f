(** The daemon's request scheduler: a bounded admission queue in front of
    a fixed crew of worker threads.

    Admission control is the contract that keeps the daemon stable under
    overload: a request either gets a queue slot immediately or is
    rejected immediately ([`Overloaded`] with a [retry_after_s] hint
    derived from recent service times) — the queue never grows without
    bound and a saturated daemon keeps answering in constant time.

    Workers are OS threads, not domains: heavy requests parallelise
    {e internally} over the process-wide {!Tiling_util.Pool} domains (the
    PR-4 evaluation path), so worker threads exist to overlap requests
    and keep admission/IO responsive, and the worker count stays small.

    Deadlines are cooperative.  Each job's [cancelled] probe flips once
    the deadline passes; handlers poll it (the search layer polls it
    before every fresh candidate evaluation, see
    {!Tiling_search.Eval.set_cancel}) and abandon work by raising
    {!Tiling_search.Eval.Cancelled}, which the scheduler maps to a
    [Deadline_exceeded] wire error.  A job whose deadline passed while it
    was still queued is failed without running at all.

    In-flight coalescing (docs/SERVER.md "Coalescing and shared
    stores"): a request
    submitted with a [key] — the {!Store.fingerprint} of a searching
    request — attaches as a {e waiter} to an already queued or running
    job with the same key instead of consuming a queue slot.  The group
    evaluates once and every member's [deliver] receives the same result
    with [coalesced = true], so the daemon answers N identical concurrent
    searches with one evaluation.

    Metrics ([server.*] and [fleet.*]): [server.queue.depth] gauge,
    [server.admission.rejected], [server.requests.ok] /
    [.error] / [.timeout] counters, the [server.request_ns]
    histogram of end-to-end (enqueue-to-finish) latency, plus
    [fleet.coalesce.hits] (requests attached as waiters) and the
    [fleet.coalesce.waiters] gauge (waiters attached right now). *)

type t

type reject =
  | Overloaded of float  (** queue full; suggested retry backoff, seconds *)
  | Draining             (** {!drain} has begun; no new work accepted *)

type deliver = coalesced:bool -> (Tiling_obs.Json.t, Protocol.error) result -> unit
(** Result sink for one request.  [coalesced] is true for {e every}
    member of a request group that shared one evaluation — the leader
    included — so the group's response envelopes stay byte-identical
    modulo request id.  A request that ran alone gets [coalesced:false]. *)

val create : ?workers:int -> ?capacity:int -> unit -> t
(** [workers] executor threads (default 2, min 1) over a queue of
    [capacity] slots (default 64, min 1). *)

val submit :
  t ->
  ?deadline_s:float ->
  ?label:string ->
  ?trace:Tiling_obs.Span.context ->
  ?key:string ->
  work:(cancelled:(unit -> bool) -> Tiling_obs.Json.t) ->
  deliver:deliver ->
  unit ->
  (unit, reject) result
(** Enqueue [work].  [deadline_s] is absolute (Unix time).  [deliver] is
    called exactly once, from a worker thread, with the work's result —
    or with [Deadline_exceeded] (queued past its deadline, or the work
    raised {!Tiling_search.Eval.Cancelled}) or [Internal] (any other
    exception; the daemon survives).  [deliver] must not raise.

    [key], when given, makes the request coalescible: if a job with the
    same key is queued or running, this request's [deliver] is attached
    to it as a waiter and [Ok ()] is returned without consuming a queue
    slot — no second evaluation happens, and the shared result (success
    {e or} failure) reaches every waiter with [coalesced:true].  Callers
    must fold anything that changes the answer or the response shape
    (deadline, trace/progress opt-ins) into the key — or pass no key at
    all — so only requests that can share an envelope verbatim coalesce.

    [label] (typically the wire method) names the job in {!inflight}.
    [trace], when given, is the request's root trace context: the worker
    records the queue wait as a ["request.queue"] span, then runs [work]
    under the context with a ["request.run"] span around it, so every span
    and {!Tiling_obs.Events} emission inside the handler joins the
    request's trace. *)

val depth : t -> int
val capacity : t -> int

val workers : t -> int
(** Live worker threads: the configured count until {!drain}, 0 after
    (the drain joins the crew and clears the roster). *)

val retry_after : t -> float
(** The backoff hint attached to [Overloaded] rejects: median recent
    service time times the requests queued ahead, divided by the worker
    count, clamped to [0.1, 60] seconds (1s before any completion).  The
    hint tracks the live queue depth, so it shrinks as the backlog
    drains. *)

val completed : t -> int
(** Jobs delivered (ok, failed and timed out alike). *)

val rejected : t -> int
(** Admission rejects since creation. *)

val timeouts : t -> int

val coalesced : t -> int
(** Requests ever attached as waiters to another job ([fleet.coalesce.hits]
    seen by this scheduler).  A group of N identical requests counts
    N-1 here and 1 in {!completed}. *)

val waiting : t -> int
(** Waiters attached to queued or running jobs right now. *)

val latency_ms : t -> float * float * int
(** [(p50, p95, samples)] over a ring of the most recent request
    latencies (milliseconds, enqueue to delivery); [(0., 0., 0)] before
    the first completion. *)

val inflight : t -> (string * float * float) list
(** The jobs executing right now as [(label, queued_s, running_s)],
    longest-running first. *)

val latency_histogram : unit -> Tiling_obs.Json.t
(** The full [server.request_ns] histogram in {!Tiling_obs.Metrics}
    snapshot shape ([{"count", "sum", "buckets": [{"le", "count"}...]}]) —
    percentiles beyond the ring's p50/p95 are computable from it without
    an OpenMetrics scrape.  Stable all-zero shape when the metrics
    registry is disabled or nothing completed yet. *)

val drain : t -> unit
(** Stop admitting ({!submit} returns [Draining]), let the workers
    finish everything already queued, and join them.  The thread roster
    is cleared under the lock before joining, so {!workers} and
    {!retry_after} never report a crew that is shutting down.
    Idempotent. *)
