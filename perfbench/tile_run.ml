(* The tile-cme workload: one-shot searches through [Tiler.optimize], in
   process, the way `tiler tile` runs them.

   Two phases, mirroring the daemon workload's first two:
   - cold pass: the fixed kernel list, each a fresh search.  Its wall
     time, answers and layer counts are the run's fixed work, so counts
     repeat exactly for a seed.
   - quiet warm phase: repeat searches whose candidate costs are all
     known already (a memo tier pre-filled from the cold pass, the same
     mechanism the daemon's store uses), timed one by one.
   A traced run adds a third, untimed: the first seed of MM 64, MM 100
   and T2D 200 searched again through the symbolic backend, for the
   closed-form layer's counts and the quality of its answers. *)

open Probe
module Tiler = Tiling_core.Tiler
module Memo = Tiling_search.Memo
module Eval = Tiling_search.Eval
module Backend = Tiling_search.Backend
module Kernels = Tiling_kernels.Kernels
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span

(* Kernel, size and the number of GA seeds it is searched with, so the
   run's totals average over several GA trajectories.  T2D 200 gets the
   most: the log of one answer's ratio has a standard deviation of about
   0.5 over GA seeds, against 0.03 for MM 64 and 0.1 for MM 100.  The
   three BIHAR loops of the paper's suite are cheap and vary hardly at
   all; with them each kernel's share of [answer_repl_ratio], and so of
   its seed-to-seed spread, is a sixth.  Do not drop or resize MM 64 and
   T2D 200: on them the symbolic backend picks tiles with far more
   simulated misses than cme-sample does, and the traced run's
   [symbolic.answer_repl_ratio] must keep showing it. *)
let kernels =
  [
    ("MM", 64, 1); ("MM", 100, 1); ("T2D", 200, 6);
    ("DPSSB", 32, 1); ("DRADFG1", 32, 1); ("DRADFG2", 32, 1);
  ]

(* The kernels the traced symbolic pass searches again: the paper's MM
   and T2D, where the mis-ranking shows.  The BIHAR loops would only
   dilute it. *)
let symbolic_kernels = [ ("MM", 64); ("MM", 100); ("T2D", 200) ]

(* GA seeds derive from the workload seed and the search's slot alone,
   so the traced symbolic pass searches with the cold pass's seeds. *)
let ga_seed seed slot = Hashtbl.hash (seed, slot) land 0x3FFF_FFFF

(* Candidate costs of one search, recorded during the cold pass and
   served back to the warm repeats. *)
type costs = { tbl : (int array, float) Hashtbl.t; clock : Mutex.t }

let recording c =
  {
    Memo.find = (fun _ -> None);
    save =
      (fun k v ->
        Mutex.protect c.clock (fun () ->
            Hashtbl.replace c.tbl (Array.copy (Memo.Key.values k)) v));
  }

let replaying c =
  {
    Memo.find =
      (fun k -> Mutex.protect c.clock (fun () -> Hashtbl.find_opt c.tbl (Memo.Key.values k)));
    save = (fun _ _ -> ());
  }

(* The backend layer timed from outside: the stock cost function wrapped
   in a [Backend.t] of our own. *)
type backend_timing = {
  block : Mutex.t;
  mutable calls : int;
  mutable busy : float;
  mutable durs : float list;
}

let timed (b : Backend.t) t =
  {
    b with
    Backend.cost =
      (fun cache nest ~points ->
        let t0 = now () in
        let v = b.cost cache nest ~points in
        let dt = now () -. t0 in
        Mutex.protect t.block (fun () ->
            t.calls <- t.calls + 1;
            t.busy <- t.busy +. dt;
            t.durs <- dt :: t.durs);
        v);
  }

type search = {
  spec : Kernels.spec;
  n : int;
  seed : int;
  costs : costs;
  mutable answer : Json.t;  (** [Tiler.to_json] of the cold outcome *)
}

let opts ~backend ~domains ~seed ~on_eval =
  { Tiler.default_opts with seed; domains; backend; on_eval }

let check_bounds r (s : search) (o : Tiler.outcome) =
  if not (tiles_in_bounds (s.spec.build s.n) o.tiles) then
    fail r (Printf.sprintf "%s %d: tiles out of [1, U_i]" s.spec.name s.n)

(* One warm repeat: every candidate is a memo hit, so the time is the GA
   replay plus the before/after reports.  Returns wall and CPU seconds. *)
let warm_repeat r ~backend (s : search) =
  attempt r;
  let t0 = now () and c0 = cpu () in
  let o =
    Tiler.optimize
      ~opts:
        (opts ~backend ~domains:1 ~seed:s.seed ~on_eval:(fun e ->
             Memo.set_tier (Eval.memo e) (Some (replaying s.costs))))
      (s.spec.build s.n) cache
  in
  let dt = (now () -. t0, cpu () -. c0) in
  if Tiler.to_json o <> s.answer then begin
    fail r (Printf.sprintf "%s %d: warm repeat differs from the cold answer" s.spec.name s.n);
    (infinity, infinity)
  end
  else dt

(* Set-up: the kernels, their GA seeds and the simulated replacement
   misses of each untiled nest (the reference every answer is judged
   against). *)
let prepare ~seed =
  List.concat
  @@ List.mapi
    (fun i (name, n, seeds) ->
      let spec = Kernels.find name in
      ignore (untiled_repl spec n);
      List.init seeds (fun k ->
          {
            spec;
            n;
            seed = ga_seed seed ((10 * i) + k);
            costs = { tbl = Hashtbl.create 4096; clock = Mutex.create () };
            answer = Json.Null;
          }))
    kernels

(* Set-up ends here: run.py reads the process's CPU seconds so far from
   this line. *)
let ready () = Printf.printf "ready %.6f\n%!" (cpu ())

let run ~backend ~domains ~seed ~seconds ~traced =
  let r = tally () in
  let searches = prepare ~seed in
  ready ();
  let timing = { block = Mutex.create (); calls = 0; busy = 0.; durs = [] } in
  let cost_backend = if traced then timed backend timing else backend in
  let evals = ref [] in
  let report_us = ref 0. in
  let snap () = flatten (Metrics.snapshot ()) in
  let before = snap () in
  (* Cold pass. *)
  let walls =
    List.map
      (fun s ->
        attempt r;
        let on_eval e =
          evals := e :: !evals;
          Memo.set_tier (Eval.memo e) (Some (recording s.costs))
        in
        let search () =
          Tiler.optimize
            ~opts:(opts ~backend:cost_backend ~domains ~seed:s.seed ~on_eval)
            (s.spec.build s.n) cache
        in
        let t0 = now () and c0 = cpu () in
        let o =
          if traced then begin
            let ctx = Span.start_trace () in
            let o = Span.with_ambient (Some ctx) search in
            report_us :=
              !report_us
              +. span_us [ "tiler.report.before"; "tiler.report.after" ]
                   (Span.finish_trace ctx);
            o
          end
          else search ()
        in
        let wall = now () -. t0 and cpu_s = cpu () -. c0 in
        s.answer <- Tiler.to_json o;
        check_bounds r s o;
        (wall, cpu_s, s, o))
      searches
  in
  let after = snap () in
  let search_s = List.fold_left (fun acc (w, _, _, _) -> acc +. w) 0. walls
  and search_cpu_s = List.fold_left (fun acc (_, c, _, _) -> acc +. c) 0. walls in
  let quality =
    List.map
      (fun (_, _, s, (o : Tiler.outcome)) ->
        judge s.spec s.n o.tiles ~reported:o.after.replacement_ratio.center)
      walls
  in
  (* Quiet warm phase: every search repeated in turn, for 40 % of the
     budget (the daemon workload's share).  A warm repeat's cost depends
     on the tiling the seed led to, so all of them take part. *)
  let warm_until = now () +. (0.4 *. seconds) in
  let arr = Array.of_list searches in
  let per_search = Array.make (Array.length arr) [] in
  let quiet = ref [] in
  let i = ref 0 in
  while now () < warm_until || !i < Array.length arr do
    let k = !i mod Array.length arr in
    let t = warm_repeat r ~backend arr.(k) in
    quiet := t :: !quiet;
    per_search.(k) <- snd t :: per_search.(k);
    incr i
  done;
  (* CPU per warm answer: each search's median repeat, averaged. *)
  let warm_cpu_ms =
    1000. *. mean (Array.to_list (Array.map median per_search))
  in
  (* Fresh-search latency: the cold pass's T2D 200 searches, T2D being
     the daemon workload's fresh kind. *)
  let cold =
    List.filter_map
      (fun (w, _, s, _) -> if (s.spec.name, s.n) = ("T2D", 200) then Some w else None)
      walls
  in
  let ms = List.map (fun x -> 1000. *. x) in
  let quiet_wall = ms (List.rev_map fst !quiet) in
  let answers =
    List.map2 (fun (_, _, s, _) q -> (Printf.sprintf "%s %d" s.spec.name s.n, q)) walls quality
  in
  e2e r "search_cpu_s" search_cpu_s "s" (List.length walls);
  e2e r "answer_repl_ratio" (answer_ratio answers) "ratio" (List.length answers);
  e2e r "warm_cpu_ms" warm_cpu_ms "ms" (List.length quiet_wall);
  e2e r "peak_mem_mb" (peak_mem_mb None) "MB" 1;
  e2e r "search_s" search_s "s" (List.length walls);
  e2e r "cold_p50_ms" (median (ms cold)) "ms" (List.length cold);
  e2e r "warm_p50_ms" (median quiet_wall) "ms" (List.length quiet_wall);
  e2e r "warm_p95_ms" (percentile 95. quiet_wall) "ms" (List.length quiet_wall);
  e2e r "estimate_err_pp" (mean (List.map (fun q -> q.err_pp) quality)) "pp" (List.length quality);
  (* No daemon, so no busy phase beside the warm repeats. *)
  e2e r "busy_warm_p50_ms" 0. "ms" 0;
  r.main_timing <- search_cpu_s;
  if traced then begin
    let fresh = List.fold_left (fun a e -> a + Eval.fresh e) 0 !evals
    and hits = List.fold_left (fun a e -> a + Eval.hits e) 0 !evals in
    layer r "backend.calls" (float_of_int timing.calls) "count";
    layer r "backend.busy_s" timing.busy "s";
    layer r "backend.call_us_p50" (1e6 *. median timing.durs) "us";
    layer r "eval.fresh" (float_of_int fresh) "count";
    layer r "eval.hits" (float_of_int hits) "count";
    layer r "eval.hit_ratio" (ratio (float_of_int hits) (float_of_int (hits + fresh))) "ratio";
    List.iter (fun (n, v, u) -> layer r n v u) (registry_layers (delta ~before ~after));
    layer r "tiler.report_s" (!report_us /. 1e6) "s";
    (* Idle here: there is no daemon, so no scheduler, store or wire. *)
    List.iter
      (fun (n, u) -> layer r n 0. u)
      [
        ("scheduler.queue_ms_p50", "ms"); ("scheduler.run_ms_p50", "ms");
        ("store.hits", "count"); ("store.misses", "count"); ("store.appends", "count");
        ("store.compactions", "count"); ("store.records", "count");
        ("wire.overhead_ms_p50", "ms");
      ];
    (* The symbolic pass, on the first seed of each symbolic kernel. *)
    let before = snap () in
    let symbolic =
      List.filter_map
        (fun (name, n) -> List.find_opt (fun s -> s.spec.name = name && s.n = n) searches)
        symbolic_kernels
      |> List.map (fun s ->
             attempt r;
             let o =
               Tiler.optimize
                 ~opts:(opts ~backend:Backend.symbolic ~domains:1 ~seed:s.seed ~on_eval:ignore)
                 (s.spec.build s.n) cache
             in
             check_bounds r s o;
             ( Printf.sprintf "%s %d" s.spec.name s.n,
               judge s.spec s.n o.tiles ~reported:o.after.replacement_ratio.center ))
    in
    List.iter (fun (n, v, u) -> layer r n v u) (closed_form_layers (delta ~before ~after:(snap ())));
    layer r "symbolic.answer_repl_ratio" (answer_ratio symbolic) "ratio"
  end;
  r
