module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span
module Events = Tiling_obs.Events
module Netio = Tiling_util.Netio
module Eval = Tiling_search.Eval
module Memo = Tiling_search.Memo

let m_accepted = Metrics.counter "server.connections.accepted"
let m_bad_lines = Metrics.counter "server.protocol.bad_lines"
let m_scrapes = Metrics.counter "server.metrics.scrapes"
let m_progress = Metrics.counter "server.progress.sent"
let g_connections = Metrics.gauge "server.connections"

let log = Logs.Src.create "tiling.server" ~doc:"tiling daemon"

module Log = (val Logs.src_log log)

type config = {
  addr : Netio.addr;
  workers : int;
  capacity : int;
  store_path : string option;
  default_deadline_s : float option;
  domains : int;
  max_line_bytes : int;
  metrics_addr : Netio.addr option;
}

let default_config =
  {
    addr = Netio.Unix_sock "tiler.sock";
    workers = 2;
    capacity = 64;
    store_path = None;
    default_deadline_s = None;
    domains = 1;
    max_line_bytes = 1 lsl 20;
    metrics_addr = None;
  }

(* JSON nesting in requests never legitimately exceeds a handful of
   levels; a tight cap shuts the deep-nesting parser-recursion vector. *)
let max_request_depth = 64

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* one response line at a time *)
  plock : Mutex.t;  (* guards [pending] *)
  idle : Condition.t;
  mutable pending : int;  (* scheduler jobs that will still write to [fd] *)
}

type state = {
  cfg : config;
  sched : Scheduler.t;
  store : Store.t option;
  started_at : float;
  stop : bool Atomic.t;
  clock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable conn_threads : Thread.t list;
}

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                               *)

let reply conn j =
  Mutex.protect conn.wlock (fun () ->
      match Netio.write_line conn.fd (Json.to_string j) with
      | Ok () -> ()
      | Error m -> Log.debug (fun f -> f "dropping reply: %s" m))

let conn_begin c = Mutex.protect c.plock (fun () -> c.pending <- c.pending + 1)

let conn_end c =
  Mutex.protect c.plock (fun () ->
      c.pending <- c.pending - 1;
      if c.pending = 0 then Condition.broadcast c.idle)

let conn_wait_idle c =
  Mutex.protect c.plock (fun () ->
      while c.pending > 0 do
        Condition.wait c.idle c.plock
      done)

(* ------------------------------------------------------------------ *)
(* Handlers.  Each handler validates [params] on the connection thread
   and returns the actual work as a closure — parameter mistakes are
   answered immediately and never consume a queue slot — plus, for the
   searching methods, the {!Store.fingerprint} that keys in-flight
   coalescing: the fingerprint pins every input that changes the answer
   (kernel, n, cache geometry, backend, seed), so two requests with the
   same key can share one evaluation and one response body. *)

let ( let* ) = Result.bind

module P = Protocol.Params

let kernel_setup params =
  let* kernel = P.require (P.string params "kernel") "kernel" in
  let* n = P.int params "n" in
  let* size = P.int params "cache_size" in
  let* line = P.int params "line" in
  let* assoc = P.int params "assoc" in
  let size = Option.value size ~default:8192
  and line = Option.value line ~default:32
  and assoc = Option.value assoc ~default:1 in
  match Tiling_kernels.Kernels.find kernel with
  | exception Not_found -> Error (Printf.sprintf "unknown kernel %S" kernel)
  | spec -> (
      let n = match n with Some n -> n | None -> List.hd spec.sizes in
      match Tiling_cache.Config.make ~size ~line ~assoc () with
      | exception Invalid_argument m -> Error m
      | cache ->
          if n < 1 then Error "n must be >= 1"
          else Ok (spec, n, spec.build n, cache))

let search_opts params =
  let* seed = P.int params "seed" in
  let seed = Option.value seed ~default:20020815 in
  let* backend = P.string params "backend" in
  let* backend =
    match backend with
    | None -> Ok Tiling_search.Backend.default
    | Some s -> Tiling_search.Backend.of_string s
  in
  Ok (seed, backend)

(* The daemon's two hooks into a search, delivered through [on_eval]:
   the request deadline becomes the evaluation service's cancellation
   probe, and the persistent store becomes its memo's backing tier. *)
let attach st ~fingerprint ~cancelled eval =
  Eval.set_cancel eval cancelled;
  Option.iter
    (fun store ->
      Memo.set_tier (Eval.memo eval) (Some (Store.tier store ~fingerprint)))
    st.store

(* Fold appends from other daemons sharing this store file into our
   tables before a search starts, so a repeat search is answered warm
   even when another process computed it. *)
let refresh_store st = Option.iter Store.refresh st.store

(* Per-phase memo/store effectiveness, recorded into the request's trace
   so `tiler request --trace` can print hit rates next to the flame. *)
let eval_stats_instant ~phase eval =
  if Span.tracing () then
    Span.instant "request.eval.stats"
      ~attrs:
        [
          ("phase", Json.String phase);
          ("memo_hits", Json.Int (Eval.hits eval));
          ("fresh", Json.Int (Eval.fresh eval));
          ("distinct", Json.Int (Eval.distinct eval));
        ]

let sync_store st = Option.iter Store.sync st.store

(* A final answer depends on the search options as well as on the
   fingerprint: GA parameters and restarts change which candidates are
   visited, so they change the winner.  Marshal covers every field of
   those records, present and future, so a binary with other defaults
   never serves a stale answer; [No_sharing] makes equal values marshal
   equally whatever their physical sharing. *)
let answer_key ~fingerprint ?(popts : Tiling_core.Padder.opts option)
    (topts : Tiling_core.Tiler.opts) =
  let options =
    ( (topts.ga, topts.restarts, topts.sample_points),
      Option.map
        (fun (p : Tiling_core.Padder.opts) ->
          (p.ga, p.restarts, p.sample_points, p.max_intra, p.max_inter))
        popts )
  in
  Printf.sprintf "%s|%s" fingerprint
    (Digest.to_hex (Digest.string (Marshal.to_string options [ Marshal.No_sharing ])))

let setup_json (spec : Tiling_kernels.Kernels.spec) n
    (cache : Tiling_cache.Config.t) =
  [
    ("kernel", Json.String spec.name);
    ("n", Json.Int n);
    ( "cache",
      Json.Obj
        [
          ("size", Json.Int cache.Tiling_cache.Config.size);
          ("line", Json.Int cache.Tiling_cache.Config.line);
          ("assoc", Json.Int cache.Tiling_cache.Config.assoc);
        ] );
  ]

(* The shape every search reply shares.  [served] names the layer that
   produced the outcome and sits beside it, so outcomes compare equal
   whichever layer served them. *)
let search_reply setup ~served outcome =
  Json.Obj (setup @ [ ("outcome", outcome); ("served", Json.String served) ])

(* Answer a search from the store when it holds the final answer;
   otherwise run [search] and store what it returns.  A search that
   raises (deadline, crash) stores no answer, only the candidate records
   its evaluations already appended. *)
let answer_or_search st ~key ~setup search =
  refresh_store st;
  let cached =
    Option.bind st.store (fun store ->
        Span.with_ "store.answer" (fun () ->
            Option.bind (Store.find_answer store ~key) (fun text ->
                Result.to_option (Json.of_string text))))
  in
  match cached with
  | Some outcome -> search_reply setup ~served:"answer" outcome
  | None ->
      let outcome = search () in
      Option.iter
        (fun store -> Store.append_answer store ~key (Json.to_string outcome))
        st.store;
      sync_store st;
      search_reply setup ~served:"search" outcome

let handle_analyze _st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* tiles = P.int_list params "tiles" in
  let* exact = P.bool params "exact" in
  let* seed = P.int params "seed" in
  let exact = Option.value exact ~default:false
  and seed = Option.value seed ~default:20020815 in
  Ok
    ( (fun ~cancelled:_ ->
        let nest =
          match tiles with
          | None -> nest
          | Some tiles -> Tiling_ir.Transform.tile nest (Array.of_list tiles)
        in
        let engine = Tiling_cme.Engine.create nest cache in
        let report =
          if exact then Tiling_cme.Estimator.exact engine
          else Tiling_cme.Estimator.sample ~seed engine
        in
        Json.Obj
          (setup_json spec n cache
          @ [ ("report", Tiling_cme.Estimator.to_json report) ])),
      None )

let handle_tile st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* seed, backend = search_opts params in
  let fingerprint =
    Store.fingerprint ~method_:"tile" ~kernel:spec.name ~n ~cache
      ~backend:backend.Tiling_search.Backend.name ~seed
  in
  Ok
    ( (fun ~cancelled ->
        let evals = ref [] in
        let opts =
          {
            Tiling_core.Tiler.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                evals := eval :: !evals;
                attach st ~fingerprint ~cancelled eval);
          }
        in
        answer_or_search st
          ~key:(answer_key ~fingerprint opts)
          ~setup:(setup_json spec n cache)
          (fun () ->
            let o = Tiling_core.Tiler.optimize ~opts nest cache in
            List.iter (eval_stats_instant ~phase:"tile") !evals;
            Tiling_core.Tiler.to_json o)),
      Some fingerprint )

let handle_pad_tile st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* seed, backend = search_opts params in
  (* Two search phases, two fingerprints: candidate values in the
     tile phase depend on the padding chosen, but that padding is
     itself a deterministic function of the fingerprinted inputs. *)
  let fp phase =
    Store.fingerprint
      ~method_:("pad-tile." ^ phase)
      ~kernel:spec.name ~n ~cache
      ~backend:backend.Tiling_search.Backend.name ~seed
  in
  Ok
    ( (fun ~cancelled ->
        let pad_evals = ref [] and tile_evals = ref [] in
        let popts =
          {
            Tiling_core.Padder.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                pad_evals := eval :: !pad_evals;
                attach st ~fingerprint:(fp "pad") ~cancelled eval);
          }
        in
        let topts =
          {
            Tiling_core.Tiler.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                tile_evals := eval :: !tile_evals;
                attach st ~fingerprint:(fp "tile") ~cancelled eval);
          }
        in
        answer_or_search st
          ~key:(answer_key ~fingerprint:(fp "answer") ~popts topts)
          ~setup:(setup_json spec n cache)
          (fun () ->
            let o = Tiling_core.Optimizer.pad_then_tile ~topts ~popts nest cache in
            List.iter (eval_stats_instant ~phase:"pad") !pad_evals;
            List.iter (eval_stats_instant ~phase:"tile") !tile_evals;
            Tiling_core.Optimizer.combined_to_json o)),
      (* The whole combined request is the coalescible unit; its key must
         differ from a plain "tile" of the same setup, hence the method
         prefix carried by the phase fingerprints. *)
      Some (fp "pad") )

let handle_fuzz_case _st params =
  let* line = P.require (P.string params "case") "case" in
  let* case = Tiling_fuzz.Case.of_string line in
  Ok
    ( (fun ~cancelled:_ ->
      let r = Tiling_fuzz.Oracle.check_case case in
      let triple (a, m, c) = Json.List [ Json.Int a; Json.Int m; Json.Int c ] in
      let delta (d : Tiling_fuzz.Oracle.ref_delta) =
        Json.Obj
          [
            ("ref", Json.Int d.ref_id);
            ("cme", triple d.cme);
            ("sim", triple d.sim);
          ]
      in
      let verdict, deltas =
        match r.verdict with
        | Tiling_fuzz.Oracle.Agree -> ("agree", [])
        | Tiling_fuzz.Oracle.Mismatch ds -> ("mismatch", ds)
        | Tiling_fuzz.Oracle.Inconclusive ds -> ("inconclusive", ds)
      in
      Json.Obj
        [
          ("case", Json.String (Tiling_fuzz.Case.to_string case));
          ("verdict", Json.String verdict);
          ("deltas", Json.List (List.map delta deltas));
          ("fallbacks", Json.Int r.fallbacks);
          ("points", Json.Int r.points);
          ("accesses", Json.Int r.accesses);
        ]),
      None )

let stats_json ?(events = 0) st =
  let p50, p95, samples = Scheduler.latency_ms st.sched in
  let inflight =
    List.map
      (fun (label, queued_s, running_s) ->
        Json.Obj
          [
            ("method", Json.String label);
            ("queued_s", Json.Float queued_s);
            ("running_s", Json.Float running_s);
          ])
      (Scheduler.inflight st.sched)
  in
  let store =
    match st.store with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("path", Json.String (Store.path s));
            ("entries", Json.Int (Store.entries s));
            ("records", Json.Int (Store.records s));
            ("fingerprints", Json.Int (Store.fingerprints s));
            ("answers", Json.Int (Store.answers s));
            ("hits", Json.Int (Store.hits s));
            ("answer_hits", Json.Int (Store.answer_hits s));
            ("misses", Json.Int (Store.misses s));
            ("appends", Json.Int (Store.appends s));
            ("compactions", Json.Int (Store.compactions s));
            ("skipped_on_load", Json.Int (Store.skipped_on_load s));
          ]
  in
  Json.Obj
    ([
      ("pid", Json.Int (Unix.getpid ()));
      ("version", Json.Int Protocol.version);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started_at));
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Scheduler.depth st.sched));
            ("capacity", Json.Int (Scheduler.capacity st.sched));
            ("workers", Json.Int (Scheduler.workers st.sched));
          ] );
      ( "requests",
        Json.Obj
          [
            ("completed", Json.Int (Scheduler.completed st.sched));
            ("rejected", Json.Int (Scheduler.rejected st.sched));
            ("timeouts", Json.Int (Scheduler.timeouts st.sched));
            ("coalesced", Json.Int (Scheduler.coalesced st.sched));
            ("waiting", Json.Int (Scheduler.waiting st.sched));
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("p50", Json.Float p50);
            ("p95", Json.Float p95);
            ("samples", Json.Int samples);
          ] );
      ("latency_ns_histogram", Scheduler.latency_histogram ());
      ("inflight", Json.List inflight);
      ("connections", Json.Int (Mutex.protect st.clock (fun () -> Hashtbl.length st.conns)));
      ("store", store);
    ]
    @
    if events <= 0 then []
    else
      [
        ( "events",
          Json.List (List.map Events.to_json (Events.recent ~limit:events ())) );
      ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

let handler_for = function
  | "analyze" -> Some handle_analyze
  | "tile" -> Some handle_tile
  | "pad-tile" -> Some handle_pad_tile
  | "fuzz-case" -> Some handle_fuzz_case
  | _ -> None

let dispatch st conn (req : Protocol.request) =
  match req.meth with
  | "stats" -> (
      match P.int req.params "events" with
      | Error m ->
          reply conn
            (Protocol.error_response ~id:req.id (Protocol.err Protocol.Bad_request m))
      | Ok events ->
          let events = Option.value events ~default:0 in
          reply conn (Protocol.ok_response ~id:req.id (stats_json ~events st)))
  | "metrics" -> (
      Metrics.incr m_scrapes;
      match P.string req.params "format" with
      | Error m ->
          reply conn
            (Protocol.error_response ~id:req.id (Protocol.err Protocol.Bad_request m))
      | Ok (Some "json") ->
          reply conn
            (Protocol.ok_response ~id:req.id
               (Json.Obj
                  [
                    ("format", Json.String "json");
                    ("snapshot", Metrics.snapshot ());
                  ]))
      | Ok (None | Some "openmetrics") ->
          reply conn
            (Protocol.ok_response ~id:req.id
               (Json.Obj
                  [
                    ("format", Json.String "openmetrics");
                    ("body", Json.String (Tiling_obs.Openmetrics.render ()));
                  ]))
      | Ok (Some other) ->
          reply conn
            (Protocol.error_response ~id:req.id
               (Protocol.err Protocol.Bad_request
                  (Printf.sprintf
                     "unknown format %S (expected openmetrics or json)" other))))
  | "shutdown" ->
      reply conn
        (Protocol.ok_response ~id:req.id
           (Json.Obj [ ("stopping", Json.Bool true) ]));
      Log.info (fun f -> f "shutdown requested over the wire");
      Atomic.set st.stop true
  | meth -> (
      match handler_for meth with
      | None ->
          reply conn
            (Protocol.error_response ~id:req.id
               (Protocol.err Protocol.Unknown_method
                  (Printf.sprintf "unknown method %S" meth)))
      | Some handler -> (
          let rel_deadline =
            match P.float req.params "deadline_s" with
            | Error _ as e -> e
            | Ok rel -> (
                match (rel, st.cfg.default_deadline_s) with
                | None, None -> Ok None
                | (Some _ as r), _ | None, (Some _ as r) -> Ok r)
          in
          match
            let* work, key = handler st req.params in
            let* rel = rel_deadline in
            let* trace = P.bool req.params "trace" in
            let* progress = P.bool req.params "progress" in
            Ok
              ( work,
                key,
                rel,
                Option.value trace ~default:false,
                Option.value progress ~default:false )
          with
          | Error m ->
              reply conn
                (Protocol.error_response ~id:req.id
                   (Protocol.err Protocol.Bad_request m))
          | Ok (work, key, rel_deadline, trace, progress) -> (
              let deadline_s =
                Option.map (fun d -> Unix.gettimeofday () +. d) rel_deadline
              in
              (* Coalescing is off for traced / progress-streaming
                 requests (a waiter's envelope would carry someone else's
                 trace, and progress frames are per-subscription), and
                 requests only share a slot when their deadline budgets
                 match — a tight-deadline request must not inherit a
                 result computed under a laxer one being cancelled late,
                 nor vice versa. *)
              let key =
                if trace || progress then None
                else
                  Option.map
                    (fun k ->
                      match rel_deadline with
                      | None -> k
                      | Some d -> Printf.sprintf "%s|dl%g" k d)
                    key
              in
              let id = req.id in
              (* One root context serves both opt-ins: spans accumulate in
                 its buffer for the ["trace"] field, and its trace id is the
                 routing key that picks this request's events out of the
                 process-wide journal. *)
              let tctx =
                if trace || progress then Some (Span.start_trace ()) else None
              in
              let received_us = Span.now_us () in
              conn_begin conn;
              let subscription =
                match (tctx, progress) with
                | Some ctx, true ->
                    let tid = ctx.Span.trace_id in
                    Some
                      (Events.subscribe (fun ev ->
                           if ev.Events.trace_id = Some tid then begin
                             Metrics.incr m_progress;
                             reply conn
                               (Protocol.progress_response ~id
                                  (Events.to_json ev))
                           end))
                | _ -> None
              in
              let close_trace result =
                match tctx with
                | None -> result
                | Some ctx -> (
                    match result with
                    | Ok (Json.Obj fields) when trace ->
                        let total_us = Span.now_us () -. received_us in
                        let tree = Span.finish_trace ctx in
                        let tree =
                          match tree with
                          | Json.Obj tfields ->
                              Json.Obj
                                (tfields @ [ ("total_us", Json.Float total_us) ])
                          | other -> other
                        in
                        Ok (Json.Obj (fields @ [ ("trace", tree) ]))
                    | result ->
                        Span.discard_trace ctx;
                        result)
              in
              let deliver ~coalesced result =
                Option.iter Events.unsubscribe subscription;
                (match close_trace result with
                | Ok r -> reply conn (Protocol.ok_response ~id ~coalesced r)
                | Error e ->
                    reply conn (Protocol.error_response ~id ~coalesced e));
                conn_end conn
              in
              let abandon () =
                Option.iter Events.unsubscribe subscription;
                Option.iter Span.discard_trace tctx;
                conn_end conn
              in
              match
                Scheduler.submit st.sched ?deadline_s ~label:req.meth
                  ?trace:tctx ?key ~work ~deliver ()
              with
              | Ok () -> ()
              | Error (Scheduler.Overloaded retry_after_s) ->
                  abandon ();
                  reply conn
                    (Protocol.error_response ~id
                       (Protocol.err ~retry_after_s Protocol.Overloaded
                          "admission queue is full"))
              | Error Scheduler.Draining ->
                  abandon ();
                  reply conn
                    (Protocol.error_response ~id
                       (Protocol.err Protocol.Draining
                          "daemon is draining; connect elsewhere")))))

(* ------------------------------------------------------------------ *)
(* Per-connection read loop                                             *)

let salvage_id j = Option.value (Json.member "id" j) ~default:Json.Null

let serve_conn st conn =
  let r = Netio.reader conn.fd in
  let rec loop () =
    match Netio.read_line ~max_bytes:st.cfg.max_line_bytes r with
    | `Eof -> ()
    | `Too_long ->
        (* The stream cannot be re-synchronised: answer and hang up. *)
        Metrics.incr m_bad_lines;
        reply conn
          (Protocol.error_response ~id:Json.Null
             (Protocol.err Protocol.Payload_too_large
                (Printf.sprintf "request line exceeds %d bytes"
                   st.cfg.max_line_bytes)))
    | `Line line ->
        if String.trim line = "" then loop ()
        else begin
          (match
             Json.of_string ~max_depth:max_request_depth
               ~max_size:st.cfg.max_line_bytes line
           with
          | Error m ->
              Metrics.incr m_bad_lines;
              reply conn
                (Protocol.error_response ~id:Json.Null
                   (Protocol.err Protocol.Bad_request ("invalid JSON: " ^ m)))
          | Ok j -> (
              match Protocol.request_of_json j with
              | Error e ->
                  Metrics.incr m_bad_lines;
                  reply conn (Protocol.error_response ~id:(salvage_id j) e)
              | Ok req -> dispatch st conn req));
          loop ()
        end
  in
  (try loop ()
   with e ->
     Log.err (fun f -> f "connection loop died: %s" (Printexc.to_string e)));
  (* Jobs already admitted will still write here; wait them out so the
     descriptor is never closed (and possibly reused) under them. *)
  conn_wait_idle conn;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let install_signals stop =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  List.iter
    (fun s ->
      try
        Sys.set_signal s
          (Sys.Signal_handle (fun _ -> Atomic.set stop true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let run cfg =
  match Netio.listen cfg.addr with
  | Error m -> Error (Printf.sprintf "cannot listen on %s: %s" (Netio.addr_to_string cfg.addr) m)
  | Ok lfd -> (
      let store =
        match cfg.store_path with
        | None -> Ok None
        | Some path -> Result.map Option.some (Store.open_ ~path ())
      in
      match store with
      | Error m ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot open store: %s" m)
      | Ok store -> (
          let http =
            match cfg.metrics_addr with
            | None -> Ok None
            | Some addr ->
                Result.map Option.some
                  (Http.start ~addr ~body:(fun () ->
                       Metrics.incr m_scrapes;
                       Tiling_obs.Openmetrics.render ()))
          in
          match http with
          | Error m ->
              (try Unix.close lfd with Unix.Unix_error _ -> ());
              Option.iter Store.close store;
              Error (Printf.sprintf "cannot start metrics listener: %s" m)
          | Ok http ->
          let stop = Atomic.make false in
          install_signals stop;
          let st =
            {
              cfg;
              sched = Scheduler.create ~workers:cfg.workers ~capacity:cfg.capacity ();
              store;
              started_at = Unix.gettimeofday ();
              stop;
              clock = Mutex.create ();
              conns = Hashtbl.create 16;
              conn_threads = [];
            }
          in
          Log.app (fun f ->
              f "serving on %s (pid %d, %d workers, %d slots%s)"
                (Netio.addr_to_string cfg.addr)
                (Unix.getpid ()) cfg.workers cfg.capacity
                (match cfg.store_path with
                | Some p -> Printf.sprintf ", store %s" p
                | None -> ", no store"));
          let next = ref 0 in
          while not (Atomic.get st.stop) do
            match Unix.select [ lfd ] [] [] 0.2 with
            | [], _, _ -> ()
            | _ -> (
                match Unix.accept ~cloexec:true lfd with
                | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) -> ()
                | fd, _ ->
                    Metrics.incr m_accepted;
                    let conn =
                      {
                        fd;
                        wlock = Mutex.create ();
                        plock = Mutex.create ();
                        idle = Condition.create ();
                        pending = 0;
                      }
                    in
                    let key = incr next; !next in
                    Mutex.protect st.clock (fun () ->
                        Hashtbl.replace st.conns key conn;
                        Metrics.set g_connections
                          (float_of_int (Hashtbl.length st.conns)));
                    let t =
                      Thread.create
                        (fun () ->
                          serve_conn st conn;
                          Mutex.protect st.clock (fun () ->
                              Hashtbl.remove st.conns key;
                              Metrics.set g_connections
                                (float_of_int (Hashtbl.length st.conns))))
                        ()
                    in
                    st.conn_threads <- t :: st.conn_threads)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          (* Graceful drain: no new connections, no new admissions, let
             everything already admitted finish, then unblock readers. *)
          Log.app (fun f -> f "draining");
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          Option.iter Http.stop http;
          Scheduler.drain st.sched;
          Mutex.protect st.clock (fun () ->
              Hashtbl.iter
                (fun _ c ->
                  try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
                  with Unix.Unix_error _ -> ())
                st.conns);
          List.iter Thread.join st.conn_threads;
          Option.iter
            (fun s ->
              Store.sync s;
              Store.close s)
            store;
          (match cfg.addr with
          | Netio.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
          | Netio.Tcp _ -> ());
          Log.app (fun f -> f "stopped");
          Ok ()))
