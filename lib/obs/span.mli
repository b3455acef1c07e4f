(** Timed scopes recorded into a bounded in-memory buffer, exportable as
    Chrome [trace_event] JSON (open the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}), plus request-scoped trace
    contexts whose span trees can be returned on the daemon wire.

    Tracing is disabled by default; with no live trace contexts a disabled
    [with_] is one atomic load, one branch and the call to the wrapped
    function.  The buffers are mutex-protected, so spans may be recorded
    from any {!Tiling_util.Par} domain; each event carries its domain id as
    the Chrome [tid], which lays parallel work out on separate tracks.

    The two recording surfaces are independent: the global Chrome buffer
    captures everything while {!set_enabled}[ true]; a trace context
    captures only the spans of threads it is ambient on, whether or not
    global recording is enabled. *)

val set_enabled : bool -> unit
(** Turn global recording on or off.  Off by default. *)

val enabled : unit -> bool

val tracing : unit -> bool
(** Whether any span recorded right now would be kept: global recording is
    on {e or} a trace context is ambient on the calling thread.  Use this
    to guard optional instrumentation work (e.g. per-chunk spans). *)

val set_capacity : int -> unit
(** Maximum retained events (default 65536).  Once full, further events are
    dropped and counted; {!to_chrome_json} reports the drop count under a
    final metadata event. *)

val clear : unit -> unit
(** Drop all recorded events and reset the drop counter (global buffer
    only; live trace contexts are unaffected). *)

val with_ :
  ?attrs:(string * Json.t) list -> ?start_us:float -> string -> (unit -> 'a) -> 'a
(** [with_ name f] times [f ()] and records a complete ("ph":"X") event.
    [start_us] (a {!now_us} reading) backdates the span's start, so a
    span can begin exactly where a phase recorded with {!record_at}
    ended.
    The scope is recorded even when [f] raises.  Nesting is expressed by
    containment of time ranges, which is how the Chrome viewer stacks
    slices on a track.  If a trace context is ambient on the calling
    thread, the span also joins that trace as a child of the innermost
    enclosing span, and the context seen by [f] is the new child (so
    nested [with_] calls build a tree). *)

val instant : ?attrs:(string * Json.t) list -> string -> unit
(** A zero-duration ("ph":"i") marker, e.g. per-generation GA statistics.
    Joins the ambient trace like {!with_}. *)

val events_recorded : unit -> int
(** Events currently buffered (metadata events excluded). *)

val to_chrome_json : unit -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with events in
    recording order; timestamps are microseconds since an arbitrary
    process-local origin. *)

val write_chrome : string -> unit
(** Serialize {!to_chrome_json} to a file. *)

(** {1 Request-scoped trace contexts} *)

type context = private { trace_id : int; span_id : int; depth : int }
(** A position in a trace: the trace's id, the id of the innermost open
    span (0 at the root) and its depth.  Values are created by
    {!start_trace} and derived internally by {!with_}; they are cheap,
    immutable and safe to send across threads and domains. *)

val start_trace : unit -> context
(** Open a new trace and return its root context.  The trace accumulates
    events in its own bounded buffer (see {!set_trace_capacity}) until
    {!finish_trace} or {!discard_trace}; every trace opened must be closed
    by one of the two, or its buffer leaks. *)

val finish_trace : context -> Json.t
(** Close the trace and return its span tree:
    [{"trace_id": int, "dropped": int, "spans": [span...]}] where each span
    is [{"name", "ts_us", "dur_us", "attrs"?, "children"?}], children
    sorted by start time.  Spans whose parent was dropped surface as extra
    roots.  Calling it twice returns an empty tree the second time. *)

val discard_trace : context -> unit
(** Close the trace and drop its events. *)

val current : unit -> context option
(** The context ambient on the calling thread, if any.  O(1) when no trace
    is live anywhere in the process. *)

val with_ambient : context option -> (unit -> 'a) -> 'a
(** [with_ambient ctx f] runs [f] with [ctx] installed as the calling
    thread's ambient context ([None] clears it), restoring the previous
    binding afterwards, raise or return.  Use this to carry a context
    across an explicit thread or domain hop (scheduler worker, pool
    chunk). *)

val record_at :
  ?attrs:(string * Json.t) list ->
  context ->
  string ->
  ts_us:float ->
  dur_us:float ->
  unit
(** Record a completed span with explicit timestamps as a child of [ctx] —
    for phases measured outside any call scope, e.g. the time a job spent
    queued before a worker picked it up. *)

val set_trace_capacity : int -> unit
(** Maximum events retained per trace (default 8192).  A full trace keeps
    recording shallow spans (depth <= 4) so the returned tree keeps its
    skeleton; deeper events are dropped and counted. *)

val now_us : unit -> float
(** Microseconds since the process-local origin shared by all spans. *)
