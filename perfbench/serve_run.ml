(* The serve-mixed workload: a `tiler serve` child under a closed-loop
   client that mixes stored answers with fresh searches.

   - Priming: a first daemon instance answers the warm set (T2D 100,
     seeds drawn from the workload seed) and writes it to a fresh store;
     then it shuts down.
   - Set-up: a daemon is spawned on the primed store several times, each
     timed by its CPU up to its first [stats] reply; the last one stays
     up.
   - Fixed warm round: each warm request once, in order.  With the
     priming pass it is the run's fixed work; layer counts come from it.
   - Quiet phase: two connections replay the warm set, each its own
     half of it, so no two requests can coalesce onto one in-flight job.
   - Busy phase: one connection keeps replaying while the other sends
     fresh searches over a kernel mix that append to the store.

   A caller waits for each answer before sending the next (closed loop).
   An error envelope or transport failure counts as failed and enters
   every latency percentile as +infinity. *)

open Probe
module Client = Tiling_server.Client
module Kernels = Tiling_kernels.Kernels
module Tiler = Tiling_core.Tiler

(* T2D 100 rather than MM 64 for the warm set: an MM 64 search costs
   four times the CPU, and a run that must end within its time limit
   on a busy host could prime only two of them. *)
let warm_kernel = ("T2D", 100)
let warm_set = 12

(* The fresh searches, whose answers alone make [answer_repl_ratio]:
   kernel, size and number of GA seeds.  A single T2D 100 answer's
   quality is a lottery on the GA seed (the log of its ratio has a
   standard deviation of about 0.65 over 30 seeds), so a steady figure
   would need hundreds of them.  These kernels of the paper's suite
   vary far less from seed to seed: MM 64 about 0.03 in the log,
   T3DJIK 30 about 0.3, and the three BIHAR loops hardly at all. *)
let fresh_kernels =
  [ ("MM", 64, 1); ("T3DJIK", 30, 2); ("DPSSB", 32, 1); ("DRADFG1", 32, 1); ("DRADFG2", 32, 1) ]

let fresh_list =
  List.concat_map (fun (name, n, seeds) -> List.init seeds (fun _ -> (name, n))) fresh_kernels

let setup_spawns = 15
let min_quiet_samples = 200

(* The daemon's CPU per warm reply is read once per window of the quiet
   phase; the median window is the figure. *)
let cpu_window_s = 0.75

let warm_seed seed k = Tile_run.ga_seed seed (200 + k)
let fresh_seed seed k = Tile_run.ga_seed seed (300 + k)

type daemon = { pid : int; conn : Client.t; log : Unix.file_descr }

(* Daemons still running; killed at exit if the run dies half way. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~tiler ~sock ~store ~log_path =
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process tiler
      [|
        tiler; "serve"; "--socket"; "unix:" ^ sock; "--store"; store;
        "--workers"; "2"; "--domains"; "2";
      |]
      Unix.stdin log log
  in
  live := pid :: !live;
  let deadline = now () +. 30. in
  let rec connect () =
    match Client.connect (Tiling_util.Netio.Unix_sock sock) with
    | Ok c -> c
    | Error e ->
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith ("daemon did not come up: " ^ e)
        end;
        Unix.sleepf 0.001;
        connect ()
  in
  { pid; conn = connect (); log }

let call d meth params = Client.call d.conn ~meth ~params

let stop d =
  ignore (call d "shutdown" []);
  Client.close d.conn;
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live;
  Unix.close d.log

let result_of d meth params =
  match call d meth params with
  | Error e -> failwith (meth ^ ": " ^ e)
  | Ok env -> (
      match Client.result_of_response env with
      | Ok res -> res
      | Error e -> failwith (meth ^ ": " ^ e.message))

let registry d =
  flatten
    (Option.value
       (Json.member "snapshot" (result_of d "metrics" [ ("format", Json.String "json") ]))
       ~default:Json.Null)

let store_stats d =
  let store = Option.value (Json.member "store" (result_of d "stats" [])) ~default:Json.Null in
  List.map
    (fun k ->
      ( "store." ^ k,
        Option.value (Option.bind (Json.member k store) Json.to_float) ~default:0.,
        "count" ))
    [ "hits"; "misses"; "appends"; "compactions"; "records" ]

(* One request as a client sees it: round trip, result (or a failure
   message) and, when traced, the server's own span tree. *)
type reply = { rtt : float; res : (Json.t, string) result }

let request conn ~traced ~kernel:(name, n) ~seed =
  let params =
    [
      ("kernel", Json.String name);
      ("n", Json.Int n);
      ("seed", Json.Int seed);
      ("backend", Json.String "cme-sample");
    ]
    @ if traced then [ ("trace", Json.Bool true) ] else []
  in
  let t0 = now () in
  let res =
    match Client.call conn ~meth:"tile" ~params with
    | Error e -> Error ("transport: " ^ e)
    | Ok env -> (
        match Client.result_of_response env with
        | Ok r -> Ok r
        | Error e ->
            Error
              (Tiling_server.Protocol.code_to_string e.code ^ ": " ^ e.message))
  in
  { rtt = now () -. t0; res }

let outcome res = Option.value (Json.member "outcome" res) ~default:Json.Null

let tiles_of o =
  match Json.member "tiles" o with
  | Some (Json.List l) ->
      Array.of_list (List.map (function Json.Int i -> i | _ -> 0) l)
  | _ -> [||]

let reported_repl o =
  Option.value
    (Option.bind (Json.member "after" o) (fun a ->
         Option.bind (Json.member "replacement_ratio" a) (fun i ->
             Option.bind (Json.member "center" i) Json.to_float)))
    ~default:nan

(* Traced replies' layer timings (µs). *)
type wire = {
  wlock : Mutex.t;
  mutable queue : float list;
  mutable run : float list;
  mutable overhead : float list;
}

let note_trace w (rep : reply) =
  match rep.res with
  | Ok res -> (
      match Json.member "trace" res with
      | Some tree ->
          let total = Option.bind (Json.member "total_us" tree) Json.to_float in
          Mutex.protect w.wlock (fun () ->
              w.queue <- span_us [ "request.queue" ] tree :: w.queue;
              w.run <- span_us [ "request.run" ] tree :: w.run;
              Option.iter
                (fun t -> w.overhead <- ((1e6 *. rep.rtt) -. t) :: w.overhead)
                total)
      | None -> ())
  | Error _ -> ()


type phase = Fixed | Quiet | Busy

let in_thread f =
  let out = ref [] in
  let th = Thread.create (fun () -> out := f ()) () in
  fun () ->
    Thread.join th;
    !out

let run ~tiler ~dir ~seed ~seconds ~traced =
  let r = tally () in
  let sock = Filename.concat dir "d.sock" and store = Filename.concat dir "store" in
  let log_path = Filename.concat dir "daemon.log" in
  let wire = { wlock = Mutex.create (); queue = []; run = []; overhead = [] } in
  let phase = ref Fixed in
  let report_us = ref 0. in
  (* Traced replies: report time over the fixed work, wire and scheduler
     timings over the quiet phase. *)
  let track rep =
    if traced then
      match (!phase, rep.res) with
      | Fixed, Ok res ->
          Option.iter
            (fun t ->
              report_us :=
                !report_us
                +. span_us [ "tiler.report.before"; "tiler.report.after" ] t)
            (Json.member "trace" res)
      | Quiet, _ -> note_trace wire rep
      | _ -> ()
  in
  let warm_spec = Kernels.find (fst warm_kernel) and warm_n = snd warm_kernel in
  (* Simulated quality of the priming pass's answers and of the busy
     phase's fresh ones. *)
  let warm_quality = ref [] and fresh_quality = ref [] in
  (* A newly searched answer: bounds, then the simulator. *)
  let check_fresh ~into (spec : Kernels.spec) n (rep : reply) =
    attempt r;
    match rep.res with
    | Error e ->
        fail r e;
        None
    | Ok res ->
        let o = outcome res in
        let tiles = tiles_of o in
        if tiles_in_bounds (spec.build n) tiles then begin
          into :=
            (Printf.sprintf "%s %d" spec.name n, judge spec n tiles ~reported:(reported_repl o))
            :: !into;
          Some o
        end
        else begin
          fail r (Printf.sprintf "%s %d: tiles out of [1, U_i]" spec.name n);
          None
        end
  in
  (* Priming pass on a first daemon instance. *)
  let d0 = spawn ~tiler ~sock ~store ~log_path in
  let t0 = now () and c0 = proc_cpu d0.pid in
  let primed =
    List.init warm_set (fun k ->
        let rep = request d0.conn ~traced ~kernel:warm_kernel ~seed:(warm_seed seed k) in
        track rep;
        rep)
  in
  let search_s = now () -. t0 and search_cpu_s = proc_cpu d0.pid -. c0 in
  let prime_counts = registry d0 in
  stop d0;
  let answers =
    Array.of_list
      (List.map
         (fun rep ->
           Option.value (check_fresh ~into:warm_quality warm_spec warm_n rep) ~default:Json.Null)
         primed)
  in
  (* Set-up: spawn on the primed store; the daemon's CPU time up to its
     first stats reply, so store load time shows. *)
  let rec setups k acc =
    let d = spawn ~tiler ~sock ~store ~log_path in
    ignore (result_of d "stats" []);
    let acc = proc_cpu_live d.pid :: acc in
    if k = 1 then (d, acc)
    else begin
      stop d;
      setups (k - 1) acc
    end
  in
  let d, setup_samples = setups setup_spawns [] in
  let conn2 =
    match Client.connect (Tiling_util.Netio.Unix_sock sock) with
    | Ok c -> c
    | Error e -> failwith ("second connection: " ^ e)
  in
  (* A warm reply must equal what the priming pass got. *)
  let answered = Atomic.make 0 in
  let warm conn k =
    let rep = request conn ~traced ~kernel:warm_kernel ~seed:(warm_seed seed k) in
    Atomic.incr answered;
    attempt r;
    track rep;
    match rep.res with
    | Error e ->
        fail r e;
        infinity
    | Ok res when outcome res <> answers.(k) ->
        fail r (Printf.sprintf "warm reply %d differs from the priming answer" k);
        infinity
    | Ok _ -> rep.rtt
  in
  (* Connection [c] replays fingerprints [c], [c + 2], [c + 4], ... *)
  let replay conn c more =
    let samples = ref [] and k = ref 0 in
    while more () do
      let t = now () in
      samples := (t, warm conn (c + (2 * (!k mod (warm_set / 2))))) :: !samples;
      incr k
    done;
    !samples
  in
  (* Fixed warm round. *)
  let before = registry d in
  for k = 0 to warm_set - 1 do
    ignore (warm d.conn k)
  done;
  let fixed = sum prime_counts (delta ~before ~after:(registry d)) in
  (* Quiet phase: both connections replay, for 40 % of the budget and at
     least [min_quiet_samples] replies. *)
  phase := Quiet;
  let quiet_until = now () +. (0.4 *. seconds) in
  let started = Atomic.make 0 in
  let quiet_more () =
    Atomic.incr started;
    now () < quiet_until || Atomic.get started <= min_quiet_samples
  in
  (* Daemon CPU and replies answered, once per window, newest first. *)
  let sample () = (proc_cpu d.pid, Atomic.get answered) in
  let quiet_on = Atomic.make true in
  let join_sampler =
    in_thread (fun () ->
        let rec loop acc =
          Thread.delay cpu_window_s;
          if Atomic.get quiet_on then loop (sample () :: acc) else acc
        in
        loop [ sample () ])
  in
  let join_other = in_thread (fun () -> replay conn2 1 quiet_more) in
  (* Both connections' samples, in the order they were taken. *)
  let in_order l = List.map snd (List.sort compare l) in
  let quiet = in_order (replay d.conn 0 quiet_more @ join_other ()) in
  Atomic.set quiet_on false;
  (* Both connections are idle now, so the last window ends here. *)
  let windows = join_sampler () in
  let windows = sample () :: windows in
  let rec per_reply = function
    | (c1, n1) :: ((c0, n0) :: _ as rest) when n1 > n0 ->
        (1000. *. (c1 -. c0) /. float_of_int (n1 - n0)) :: per_reply rest
    | _ :: rest -> per_reply rest
    | [] -> []
  in
  let warm_cpu = per_reply windows in
  (* Busy phase: fresh searches on one connection, warm on the other.
     The traced run leaves it out: what it yields is wall times and
     store counts, which run.py takes from the untraced run. *)
  phase := Busy;
  let fresh, busy =
    if traced then ([], [])
    else begin
      let busy_on = Atomic.make true in
      let join_warm = in_thread (fun () -> replay d.conn 0 (fun () -> Atomic.get busy_on)) in
      let fresh =
        List.mapi
          (fun k kernel ->
            (kernel, request conn2 ~traced ~kernel ~seed:(fresh_seed seed k)))
          fresh_list
      in
      Atomic.set busy_on false;
      (fresh, in_order (join_warm ()))
    end
  in
  let peak = peak_mem_mb (Some d.pid) in
  let stores = store_stats d in
  Client.close conn2;
  stop d;
  let cold =
    List.map
      (fun ((name, n), rep) ->
        match check_fresh ~into:fresh_quality (Kernels.find name) n rep with
        | None -> infinity
        | Some _ -> rep.rtt)
      fresh
  in
  (* One warm fingerprint against an in-process search. *)
  attempt r;
  let o =
    Tiler.optimize
      ~opts:{ Tiler.default_opts with seed = warm_seed seed 0; domains = 2 }
      (warm_spec.build warm_n) cache
  in
  (match Json.of_string (Json.to_string (Tiler.to_json o)) with
  | Ok j when j = answers.(0) -> ()
  | _ -> fail r "warm answer differs from an in-process Tiler.optimize");
  let ms = List.map (fun x -> 1000. *. x) in
  let q = !warm_quality @ !fresh_quality in
  let warm_cpu_ms = median warm_cpu in
  e2e r "setup_s" (median setup_samples) "s" (List.length setup_samples);
  e2e r "search_cpu_s" search_cpu_s "s" warm_set;
  (* The traced run has no busy phase, so no figure (null). *)
  e2e r "answer_repl_ratio" (answer_ratio !fresh_quality) "ratio"
    (List.length !fresh_quality);
  e2e r "warm_cpu_ms" warm_cpu_ms "ms" (List.length warm_cpu);
  e2e r "peak_mem_mb" peak "MB" 1;
  e2e r "search_s" search_s "s" warm_set;
  e2e r "cold_p50_ms" (median (ms cold)) "ms" (List.length cold);
  e2e r "warm_p50_ms" (median (ms quiet)) "ms" (List.length quiet);
  e2e r "warm_p95_ms" (percentile 95. (ms quiet)) "ms" (List.length quiet);
  e2e r "busy_warm_p50_ms" (median (ms busy)) "ms" (List.length busy);
  e2e r "estimate_err_pp" (mean (List.map (fun (_, q) -> q.err_pp) q)) "pp" (List.length q);
  List.iter (fun (n, v, u) -> e2e r n v u 1) stores;
  r.main_timing <- warm_cpu_ms;
  if traced then begin
    let fresh_evals = get fixed "search.memo.miss" and hits = get fixed "search.memo.hit" in
    (* The backend wrapper only reaches in-process searches; the daemon
       counts its backend calls as memo misses but does not time them. *)
    layer r "backend.calls" fresh_evals "count";
    layer r "backend.busy_s" 0. "s";
    layer r "backend.call_us_p50" 0. "us";
    layer r "eval.fresh" fresh_evals "count";
    layer r "eval.hits" hits "count";
    layer r "eval.hit_ratio" (ratio hits (hits +. fresh_evals)) "ratio";
    List.iter (fun (n, v, u) -> layer r n v u) (registry_layers fixed @ closed_form_layers fixed);
    (* Idle here: tile-cme alone runs a symbolic pass. *)
    layer r "symbolic.answer_repl_ratio" 0. "ratio";
    layer r "tiler.report_s" (!report_us /. 1e6) "s";
    layer r "scheduler.queue_ms_p50" (median wire.queue /. 1000.) "ms";
    layer r "scheduler.run_ms_p50" (median wire.run /. 1000.) "ms";
    layer r "wire.overhead_ms_p50" (median wire.overhead /. 1000.) "ms"
  end;
  r
