(* Experiment regeneration: every table and figure of the paper's
   evaluation (section 4), printed in the paper's layout with the paper's
   reference numbers alongside.  See EXPERIMENTS.md for the recorded
   comparison. *)

open Tiling_core

let pct r = 100. *. r.Tiling_util.Stats.center

let repl (r : Tiling_cme.Estimator.report) = pct r.Tiling_cme.Estimator.replacement_ratio
let total (r : Tiling_cme.Estimator.report) = pct r.Tiling_cme.Estimator.miss_ratio

let seed = 20020815

let tiler_opts = { Tiler.default_opts with seed }
let padder_opts = { Padder.default_opts with seed }

let build name n = (Tiling_kernels.Kernels.find name).Tiling_kernels.Kernels.build n

(* Results are cached across experiments (table 4 aggregates figures 8/9). *)
type tiling_result = {
  kernel : string;
  size : int;
  before_repl : float;
  after_repl : float;
  before_total : float;
  after_total : float;
  tiles : int array;
  generations : int;
  converged : bool;
}

let tile_cache : (string * int * int, tiling_result) Hashtbl.t = Hashtbl.create 64

let optimize_kernel name n (cache : Tiling_cache.Config.t) =
  let key = (name, n, cache.Tiling_cache.Config.size) in
  match Hashtbl.find_opt tile_cache key with
  | Some r -> r
  | None ->
      let nest = build name n in
      let o = Tiler.optimize ~opts:tiler_opts nest cache in
      let r =
        {
          kernel = name;
          size = n;
          before_repl = repl o.Tiler.before;
          after_repl = repl o.Tiler.after;
          before_total = total o.Tiler.before;
          after_total = total o.Tiler.after;
          tiles = o.Tiler.tiles;
          generations = o.Tiler.ga.Tiling_ga.Engine.generations;
          converged = o.Tiler.ga.Tiling_ga.Engine.converged;
        }
      in
      Hashtbl.replace tile_cache key r;
      r

(* ------------------------------------------------------------------ *)
(* Table 2: miss ratios for some kernels, 8KB direct-mapped, 32B lines  *)

let table2 () =
  Fmt.pr "@.== Table 2: miss ratios before/after tiling (8KB DM, 32B lines) ==@.";
  Fmt.pr "%-10s %-6s | %21s | %21s | %s@." "Kernel" "N" "no tiling (tot/repl)"
    "tiling (tot/repl)" "paper (tot/repl -> tot/repl)";
  let paper =
    [
      ("T2D", 2000, (63.3, 36.4, 27.7, 0.9));
      ("T3DJIK", 200, (63.4, 36.7, 30.2, 3.6));
      ("T3DIKJ", 200, (34.6, 7.0, 27.9, 0.3));
      ("JACOBI3D", 200, (25.6, 7.2, 19.8, 1.3));
    ]
  in
  List.iter
    (fun (name, n, (pt, pr, pt', pr')) ->
      let r = optimize_kernel name n Tiling_cache.Config.dm8k in
      Fmt.pr "%-10s %-6d | %9.1f%% /%8.1f%% | %9.1f%% /%8.1f%% | %.1f/%.1f -> %.1f/%.1f@."
        name n r.before_total r.before_repl r.after_total r.after_repl pt pr pt' pr')
    paper

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9: replacement miss ratio for every kernel and size    *)

let figure_kernels =
  (* The bar labels of figures 8 and 9. *)
  [
    ("T2D", [ 100; 500; 2000 ]);
    ("T3DJIK", [ 20; 100; 200 ]);
    ("T3DIKJ", [ 20; 100; 200 ]);
    ("JACOBI3D", [ 20; 100; 200 ]);
    ("MATMUL", [ 100; 500; 2000 ]);
    ("MM", [ 100; 500; 2000 ]);
    ("ADI", [ 100; 500; 2000 ]);
    ("ADD", [ 32 ]);
    ("BTRIX", [ 128 ]);
    ("VPENTA2", [ 128 ]);
    ("DPSSB", [ 128 ]);
    ("DRADBG1", [ 128 ]);
    ("DRADFG1", [ 128 ]);
  ]

let figure cache label =
  Fmt.pr "@.== %s: replacement miss ratio, no-tiling vs tiling (%a) ==@." label
    Tiling_cache.Config.pp cache;
  Fmt.pr "%-14s %10s %10s   %s@." "Kernel_N" "no-tiling" "tiling" "tiles";
  let results = ref [] in
  List.iter
    (fun (name, sizes) ->
      List.iter
        (fun n ->
          let r = optimize_kernel name n cache in
          results := r :: !results;
          Fmt.pr "%-14s %9.1f%% %9.1f%%   [%a]@."
            (Printf.sprintf "%s_%d" name n)
            r.before_repl r.after_repl
            Fmt.(array ~sep:(any ",") int)
            r.tiles)
        sizes)
    figure_kernels;
  List.rev !results

let fig8 () = ignore (figure Tiling_cache.Config.dm8k "Figure 8")
let fig9 () = ignore (figure Tiling_cache.Config.dm32k "Figure 9")

(* ------------------------------------------------------------------ *)
(* Table 3: padding, then padding + tiling, for the conflict kernels    *)

let table3_row name n cache =
  let nest = build name n in
  let c = Optimizer.pad_then_tile ~topts:tiler_opts ~popts:padder_opts nest cache in
  (repl c.Optimizer.original, repl c.Optimizer.padded, repl c.Optimizer.padded_tiled)

let table3 () =
  Fmt.pr "@.== Table 3: conflict kernels — original / padding / padding+tiling ==@.";
  let run cache_label cache rows =
    Fmt.pr "--- %s ---@." cache_label;
    Fmt.pr "%-12s %10s %10s %16s | %s@." "Kernel" "original" "padding"
      "padding+tiling" "paper";
    List.iter
      (fun (name, n, (po, pp_, ppt)) ->
        let o, p, pt = table3_row name n cache in
        Fmt.pr "%-12s %9.1f%% %9.1f%% %15.1f%% | %.1f / %.1f / %.1f@."
          (if n > 200 then Printf.sprintf "%s %d" name n else name)
          o p pt po pp_ ppt)
      rows
  in
  run "8KB" Tiling_cache.Config.dm8k
    [
      ("ADD", 32, (60.2, 59.8, 0.5));
      ("BTRIX", 128, (50.1, 0.2, 0.2));
      ("VPENTA1", 128, (78.3, 52.4, 0.0));
      ("VPENTA2", 128, (86.0, 11.9, 0.0));
      ("ADI", 1000, (26.2, 12.3, 4.1));
      ("ADI", 2000, (25.7, 12.4, 3.4));
    ];
  run "32KB" Tiling_cache.Config.dm32k
    [
      ("ADD", 32, (60.2, 59.8, 0.0));
      ("BTRIX", 128, (34.1, 0.0, 0.0));
      ("VPENTA1", 128, (78.1, 32.9, 0.0));
      ("VPENTA2", 128, (86.0, 11.3, 0.0));
    ]

let joint () =
  Fmt.pr "@.== Future work (section 4.3): sequential vs joint padding+tiling ==@.";
  Fmt.pr "%-12s %10s %18s %14s@." "Kernel" "original" "pad-then-tile" "joint GA";
  List.iter
    (fun (name, n) ->
      let cache = Tiling_cache.Config.dm8k in
      let seq =
        let nest = build name n in
        let c = Optimizer.pad_then_tile ~topts:tiler_opts ~popts:padder_opts nest cache in
        (repl c.Optimizer.original, repl c.Optimizer.padded_tiled)
      in
      let jnt =
        let nest = build name n in
        let j = Optimizer.pad_and_tile ~topts:tiler_opts ~popts:padder_opts nest cache in
        repl j.Optimizer.optimized
      in
      Fmt.pr "%-12s %9.1f%% %17.1f%% %13.1f%%@."
        (if n > 200 then Printf.sprintf "%s %d" name n else name)
        (fst seq) (snd seq) jnt)
    [ ("ADD", 32); ("VPENTA1", 128); ("VPENTA2", 128); ("ADI", 1000) ]

let order () =
  Fmt.pr "@.== Extension: loop order searched together with tile sizes ==@.";
  Fmt.pr "%-14s %12s %14s %18s@." "Kernel_N" "untiled" "tiles only"
    "order + tiles";
  List.iter
    (fun (name, n) ->
      let nest = build name n in
      let cache = Tiling_cache.Config.dm8k in
      let t = Tiler.optimize ~opts:tiler_opts nest cache in
      let w = Tiler.optimize_with_order ~opts:tiler_opts nest cache in
      Fmt.pr "%-14s %11.1f%% %13.1f%% %13.1f%% [%a]@."
        (Printf.sprintf "%s_%d" name n)
        (repl t.Tiler.before) (repl t.Tiler.after) (repl w.Tiler.oafter)
        Fmt.(array ~sep:(any ",") int)
        w.Tiler.order)
    [ ("T3DJIK", 100); ("T3DIKJ", 100); ("MM", 500); ("MATMUL", 500) ]

let associativity () =
  Fmt.pr "@.== Extension: set-associative caches (beyond the paper's DM evaluation) ==@.";
  Fmt.pr "%-14s %12s %12s %12s@." "Kernel_N" "8KB DM" "8KB 2-way" "8KB 4-way";
  List.iter
    (fun (name, n) ->
      let row =
        List.map
          (fun assoc ->
            let cache = Tiling_cache.Config.make ~size:8192 ~line:32 ~assoc () in
            let nest = build name n in
            let o = Tiler.optimize ~opts:tiler_opts nest cache in
            (repl o.Tiler.before, repl o.Tiler.after))
          [ 1; 2; 4 ]
      in
      Fmt.pr "%-14s %s@."
        (Printf.sprintf "%s_%d" name n)
        (String.concat " "
           (List.map (fun (b, a) -> Printf.sprintf "%5.1f->%4.1f%%" b a) row)))
    [ ("T2D", 500); ("MM", 500); ("T3DJIK", 100); ("VPENTA2", 128) ]

(* ------------------------------------------------------------------ *)
(* Table 4: fraction of kernels below replacement thresholds            *)

let table4 () =
  Fmt.pr "@.== Table 4: %% of kernels with post-tiling replacement below thresholds ==@.";
  Fmt.pr "(excluding the table 3 kernels: ADD, BTRIX, VPENTA, large ADI)@.";
  let excluded r =
    List.mem r.kernel [ "ADD"; "BTRIX"; "VPENTA1"; "VPENTA2" ]
    || (r.kernel = "ADI" && r.size >= 1000)
  in
  let for_cache cache =
    let rs =
      List.concat_map
        (fun (name, sizes) ->
          List.map (fun n -> optimize_kernel name n cache) sizes)
        figure_kernels
    in
    List.filter (fun r -> not (excluded r)) rs
  in
  Fmt.pr "%-8s %8s %8s %8s | %s@." "Cache" "<1%" "<2%" "<5%" "paper (<1/<2/<5)";
  List.iter
    (fun (label, cache, (p1, p2, p5)) ->
      let rs = for_cache cache in
      let n = float_of_int (List.length rs) in
      let frac thr =
        100.
        *. float_of_int (List.length (List.filter (fun r -> r.after_repl < thr) rs))
        /. n
      in
      Fmt.pr "%-8s %7.1f%% %7.1f%% %7.1f%% | %.1f / %.1f / %.1f@." label (frac 1.)
        (frac 2.) (frac 5.) p1 p2 p5)
    [
      ("8KB", Tiling_cache.Config.dm8k, (56.4, 79.5, 100.0));
      ("32KB", Tiling_cache.Config.dm32k, (90.2, 97.6, 100.0));
    ]

(* ------------------------------------------------------------------ *)
(* GA behaviour: convergence generations, quality vs baselines          *)

let ga_convergence () =
  Fmt.pr "@.== GA convergence (section 3.3) ==@.";
  Fmt.pr "Paper: near-optimal after 15 generations in most cases, 15-25 otherwise.@.";
  Fmt.pr "%-14s %11s %9s %9s@." "Kernel_N" "generations" "converged" "objective";
  let gens = ref [] in
  List.iter
    (fun (name, n) ->
      let nest = build name n in
      let opts = { tiler_opts with Tiler.restarts = 1 } in
      let o = Tiler.optimize ~opts nest Tiling_cache.Config.dm8k in
      gens := o.Tiler.ga.Tiling_ga.Engine.generations :: !gens;
      Fmt.pr "%-14s %11d %9b %9.0f@."
        (Printf.sprintf "%s_%d" name n)
        o.Tiler.ga.Tiling_ga.Engine.generations
        o.Tiler.ga.Tiling_ga.Engine.converged
        o.Tiler.ga.Tiling_ga.Engine.best_objective)
    [
      ("T2D", 500); ("T2D", 2000); ("T3DJIK", 100); ("T3DIKJ", 100);
      ("JACOBI3D", 100); ("MM", 500); ("MATMUL", 500); ("ADI", 500);
      ("DPSSB", 128); ("DRADFG1", 128);
    ];
  let at15 = List.length (List.filter (fun g -> g <= 15) !gens) in
  Fmt.pr "converged at the 15-generation minimum: %d/%d@." at15 (List.length !gens);

  Fmt.pr "@.-- GA vs exhaustive optimum (small spaces, same objective) --@.";
  Fmt.pr "%-10s %12s %12s %12s@." "Kernel" "exhaustive" "GA" "GA/opt";
  List.iter
    (fun (name, n) ->
      let nest = build name n in
      let cache = Tiling_cache.Config.make ~size:2048 ~line:32 () in
      let sample = Sample.create ~seed nest in
      let spans = Tiling_ir.Transform.tile_spans nest in
      let per_dim = Array.fold_left max 1 spans in
      let ex = Tiling_baselines.Search.exhaustive ~per_dim sample nest cache in
      let o = Tiler.optimize ~opts:tiler_opts nest cache in
      let ga_obj = o.Tiler.ga.Tiling_ga.Engine.best_objective in
      let ratio =
        if ex.Tiling_baselines.Search.objective = 0. then
          if ga_obj = 0. then 1. else infinity
        else ga_obj /. ex.Tiling_baselines.Search.objective
      in
      Fmt.pr "%-10s %12.0f %12.0f %12.2f@."
        (Printf.sprintf "%s_%d" name n)
        ex.Tiling_baselines.Search.objective ga_obj ratio)
    [ ("T2D", 48); ("T2D", 64); ("ADI", 48) ];

  Fmt.pr "@.-- search and analytic baselines (MM_500, 8KB; objective: repl misses in sample) --@.";
  let nest = build "MM" 500 in
  let cache = Tiling_cache.Config.dm8k in
  let sample = Sample.create ~seed nest in
  let eval t = Tiler.objective_on sample nest cache t in
  let show label tiles obj =
    Fmt.pr "%-18s [%-12s] %8.0f@." label
      (String.concat "," (Array.to_list (Array.map string_of_int tiles)))
      obj
  in
  let o = Tiler.optimize ~opts:tiler_opts nest cache in
  show "GA+CME (paper)" o.Tiler.tiles o.Tiler.ga.Tiling_ga.Engine.best_objective;
  let r = Tiling_baselines.Search.random ~evals:1350 ~seed sample nest cache in
  show "random (same #evals)" r.Tiling_baselines.Search.tiles
    r.Tiling_baselines.Search.objective;
  let h = Tiling_baselines.Search.hill_climb ~evals:1350 ~seed sample nest cache in
  show "hill-climb" h.Tiling_baselines.Search.tiles
    h.Tiling_baselines.Search.objective;
  let sa =
    Tiling_baselines.Annealing.simulated_annealing
      ~params:{ Tiling_baselines.Annealing.default_params with evals = 1350 }
      ~seed sample nest cache
  in
  show "simulated annealing" sa.Tiling_baselines.Search.tiles
    sa.Tiling_baselines.Search.objective;
  let tb =
    Tiling_baselines.Annealing.tabu
      ~params:{ Tiling_baselines.Annealing.default_tabu_params with tabu_evals = 1350 }
      ~seed sample nest cache
  in
  show "tabu search" tb.Tiling_baselines.Search.tiles
    tb.Tiling_baselines.Search.objective;
  List.iter
    (fun (label, tiles) -> show label tiles (eval tiles))
    [
      ("LRW (ESS)", Tiling_baselines.Analytic.lrw nest cache);
      ("Coleman-McKinley", Tiling_baselines.Analytic.coleman_mckinley nest cache);
      ("Sarkar-Megiddo", Tiling_baselines.Analytic.sarkar_megiddo nest cache);
      ("untiled", Tiling_ir.Transform.tile_spans nest);
    ];

  Fmt.pr "@.-- GA design ablation (MM_500, 8KB; restarts=1, seeds 1..5) --@.";
  let variants =
    [
      ("paper+scaling+elitism", Tiling_ga.Engine.default_params);
      ("no elitism",
       { Tiling_ga.Engine.default_params with Tiling_ga.Engine.elitism = false });
    ]
  in
  List.iter
    (fun (label, params) ->
      let objs =
        List.map
          (fun s ->
            let opts = { tiler_opts with Tiler.restarts = 1; seed = s; ga = params } in
            (Tiler.optimize ~opts nest cache).Tiler.ga.Tiling_ga.Engine.best_objective)
          [ 1; 2; 3; 4; 5 ]
      in
      Fmt.pr "%-24s best objectives: %a@." label
        Fmt.(list ~sep:(any " ") (fmt "%.0f"))
        objs)
    variants

(* ------------------------------------------------------------------ *)
(* Solver accuracy: CME vs simulator vs sampling (section 2.3)          *)

let solver_accuracy () =
  Fmt.pr "@.== Solver accuracy: CME exact vs simulator vs 164-point sampling ==@.";
  Fmt.pr "%-22s %9s %9s %9s %9s@." "Config" "sim miss" "cme miss" "sampled"
    "CI halfw";
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 () in
  List.iter
    (fun (label, nest) ->
      let sim = Tiling_trace.Run.simulate nest cache in
      let exact = Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache) in
      let sampled =
        Tiling_cme.Estimator.sample ~seed (Tiling_cme.Engine.create nest cache)
      in
      Fmt.pr "%-22s %8.2f%% %8.2f%% %8.2f%% %8.2f%%@." label
        (100. *. Tiling_cache.Sim.miss_ratio sim.Tiling_trace.Run.total)
        (total exact) (total sampled)
        (100. *. sampled.Tiling_cme.Estimator.miss_ratio.Tiling_util.Stats.half_width))
    [
      ("MM_24", build "MM" 24);
      ("MM_24 t=6,4,8", Tiling_ir.Transform.tile (build "MM" 24) [| 6; 4; 8 |]);
      ("T2D_32", build "T2D" 32);
      ("T2D_32 t=8,8", Tiling_ir.Transform.tile (build "T2D" 32) [| 8; 8 |]);
      ("T3DJIK_14", build "T3DJIK" 14);
      ("JACOBI3D_12", build "JACOBI3D" 12);
      ("MATMUL_24", build "MATMUL" 24);
    ];
  Fmt.pr "@.-- sampling against exact CME on a large kernel (MM_500, 8KB) --@.";
  let nest = build "MM" 500 in
  let tiled = Tiling_ir.Transform.tile nest [| 500; 12; 24 |] in
  List.iter
    (fun (label, nest) ->
      let engine = Tiling_cme.Engine.create nest Tiling_cache.Config.dm8k in
      let reports =
        List.map (fun s -> Tiling_cme.Estimator.sample ~seed:s engine) [ 1; 2; 3; 4; 5 ]
      in
      let centers =
        List.map (fun (r : Tiling_cme.Estimator.report) -> total r) reports
      in
      Fmt.pr "%-18s five seeds: %a  (spread %.1f pp)@." label
        Fmt.(list ~sep:(any " ") (fmt "%.1f"))
        centers
        (List.fold_left max neg_infinity centers
        -. List.fold_left min infinity centers))
    [ ("MM_500 untiled", nest); ("MM_500 tiled", tiled) ];
  Fmt.pr "@.-- solver internals (ablation of the fast paths) --@.";
  let tiled_engine cap =
    let e = Tiling_cme.Engine.create ~window_cap:cap tiled Tiling_cache.Config.dm8k in
    let t0 = Unix.gettimeofday () in
    let r = Tiling_cme.Estimator.sample ~seed e in
    ( total r,
      Tiling_cme.Engine.fallback_count e,
      Tiling_cme.Engine.memo_size e,
      Unix.gettimeofday () -. t0 )
  in
  List.iter
    (fun cap ->
      let miss, fb, memo, dt = tiled_engine cap in
      Fmt.pr "window_cap=%-5d miss=%.2f%% fallbacks=%d memoised_images=%d time=%.3fs@."
        cap miss fb memo dt)
    [ 1; 8; 512 ]

(* ------------------------------------------------------------------ *)
(* Search throughput: the evaluation layer's parallel speedup           *)

type throughput_row = {
  t_kernel : string;
  t_size : int;
  t_domains : int;
  t_evals : int;        (* fresh (distinct) candidate evaluations *)
  t_wall_s : float;
  t_evals_per_s : float;
}

let throughput_rows : throughput_row list ref = ref []

let throughput () =
  Fmt.pr "@.== Search throughput: GA tile search, fresh evals/sec by domains ==@.";
  Fmt.pr "%-14s %8s %8s %10s %12s@." "Kernel_N" "domains" "evals" "wall (s)"
    "evals/sec";
  let domain_counts =
    match Tiling_util.Par.recommended_domains () with
    | 1 -> [ 1 ]
    | d -> [ 1; d ]
  in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun domains ->
          let nest = build name n in
          let opts = { tiler_opts with Tiler.restarts = 1; domains } in
          let t0 = Unix.gettimeofday () in
          let o = Tiler.optimize ~opts nest Tiling_cache.Config.dm8k in
          let wall = Unix.gettimeofday () -. t0 in
          let evals = o.Tiler.distinct_candidates in
          let rate = float_of_int evals /. Float.max 1e-9 wall in
          throughput_rows :=
            {
              t_kernel = name;
              t_size = n;
              t_domains = domains;
              t_evals = evals;
              t_wall_s = wall;
              t_evals_per_s = rate;
            }
            :: !throughput_rows;
          Fmt.pr "%-14s %8d %8d %10.2f %12.0f@."
            (Printf.sprintf "%s_%d" name n)
            domains evals wall rate)
        domain_counts)
    [ ("T2D", 500); ("MM", 200) ]

(* ------------------------------------------------------------------ *)
(* Candidate-evaluation throughput: the hot path end-to-end             *)

(* Measures Eval.evaluate_all itself — backend cost, memoisation, batch
   plumbing and domain fan-out — on synthetic GA generations of fresh
   candidates, with the shared residue cache cold and warm.  Batches are
   deliberately small (a converged GA's generations mostly hit the memo,
   so the work lists that reach Par.map are short); that is the regime
   where per-batch dispatch overhead shows. *)

type eval_row = {
  e_kernel : string;
  e_size : int;
  e_cache_size : int; (* cache capacity in bytes *)
  e_backend : string;
  e_residues : string; (* "cold" | "warm" *)
  e_domains : int;
  e_evals : int;
  e_wall_s : float;
  e_evals_per_s : float;
}

let eval_rows : eval_row list ref = ref []

let bench_quick () =
  match Sys.getenv_opt "TILING_BENCH_QUICK" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* Deterministic stream of distinct tile-vector candidates, chopped into
   GA-generation-sized batches.  Distinct by construction (an increasing
   hidden counter folded into each vector) so every candidate misses the
   memo and reaches the backend. *)
let candidate_batches ~spans ~batches ~batch_size ~seed =
  let rng = Tiling_util.Prng.create ~seed in
  let d = Array.length spans in
  let counter = ref 0 in
  Array.init batches (fun _ ->
      Array.init batch_size (fun _ ->
          incr counter;
          Array.init d (fun l ->
              if l = 0 then 1 + (!counter mod spans.(0))
              else 1 + Tiling_util.Prng.int rng spans.(l))))

let eval_throughput () =
  Fmt.pr "@.== Eval throughput: evaluate_all evals/sec ==@.";
  Fmt.pr "%-10s %-10s %-4s %7s %8s %10s %12s@." "Kernel_N" "backend" "res"
    "domains" "evals" "wall (s)" "evals/sec";
  let quick = bench_quick () in
  let domain_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let batches = if quick then 8 else 24 in
  let batch_size = 4 in
  let sample_points = 32 in
  (* sim replays the full iteration space per candidate, so it gets small
     problem sizes; cme-sample scales with the sample, not the space. *)
  let cache = Tiling_cache.Config.dm8k in
  let configs =
    [
      ("MM", 200, Tiling_search.Backend.cme_sample);
      ("SOR", 500, Tiling_search.Backend.cme_sample);
      (* Triangular datapoint: the affine latest-source path instead of the
         reuse-vector machinery — the throughput cost of exactness on
         non-rectangular spaces. *)
      ("LU", 100, Tiling_search.Backend.cme_sample);
      ("MM", 64, Tiling_search.Backend.cme_sample);
      ("MM", 24, Tiling_search.Backend.sim);
      ("SOR", 48, Tiling_search.Backend.sim);
      ("LU", 24, Tiling_search.Backend.sim);
    ]
  in
  List.iter
    (fun (name, n, backend) ->
      let nest = build name n in
      let sample = Tiling_core.Sample.create ~n:sample_points ~seed nest in
      let spans = Tiling_ir.Transform.tile_spans nest in
      let all_batches =
        candidate_batches ~spans ~batches ~batch_size ~seed:(seed + n)
      in
      let measure ~residues ~domains =
        if residues = "cold" then Tiling_cme.Engine.clear_shared_residues ();
        (* A fresh service per run: an empty objective memo means every
           candidate reaches the backend; "warm" refers only to the shared
           residue cache primed by the previous pass. *)
        let eval =
          Tiling_search.Eval.create ~backend ~domains ~cache
            ~prepare:(fun tiles ->
              ( Tiling_ir.Transform.tile nest tiles,
                Tiling_core.Sample.embed sample ~tiles ))
            ()
        in
        let t0 = Unix.gettimeofday () in
        Array.iter
          (fun batch -> ignore (Tiling_search.Eval.evaluate_all eval batch))
          all_batches;
        let wall = Unix.gettimeofday () -. t0 in
        let evals = Tiling_search.Eval.fresh eval in
        let rate = float_of_int evals /. Float.max 1e-9 wall in
        eval_rows :=
          {
            e_kernel = name;
            e_size = n;
            e_cache_size = cache.Tiling_cache.Config.size;
            e_backend = backend.Tiling_search.Backend.name;
            e_residues = residues;
            e_domains = domains;
            e_evals = evals;
            e_wall_s = wall;
            e_evals_per_s = rate;
          }
          :: !eval_rows;
        Fmt.pr "%-10s %-10s %-4s %7d %8d %10.3f %12.0f@."
          (Printf.sprintf "%s_%d/%dk" name n (cache.Tiling_cache.Config.size / 1024))
          backend.Tiling_search.Backend.name residues domains evals wall
          rate
      in
      List.iter
        (fun domains ->
          measure ~residues:"cold" ~domains;
          measure ~residues:"warm" ~domains)
        domain_counts)
    configs

(* ------------------------------------------------------------------ *)
(* Differential fuzzer throughput: oracle trials per second             *)

type fuzz_row = {
  f_trials : int;
  f_accesses : int;
  f_wall_s : float;
  f_trials_per_s : float;
}

let fuzz_rows : fuzz_row list ref = ref []

let fuzz_throughput () =
  Fmt.pr "@.== Fuzz throughput: CME-vs-simulator oracle trials/sec ==@.";
  let trials = 300 in
  let o = Tiling_fuzz.Driver.run ~trials ~seed:1 () in
  let open Tiling_fuzz.Driver in
  if o.mismatches <> [] then
    Fmt.pr "WARNING: %d oracle mismatches during the bench run@."
      (List.length o.mismatches);
  let rate = float_of_int o.trials_run /. Float.max 1e-9 o.wall_s in
  fuzz_rows :=
    {
      f_trials = o.trials_run;
      f_accesses = o.accesses;
      f_wall_s = o.wall_s;
      f_trials_per_s = rate;
    }
    :: !fuzz_rows;
  Fmt.pr "%d trials (%d accesses compared) in %.2f s: %.0f trials/sec@."
    o.trials_run o.accesses o.wall_s rate

(* ------------------------------------------------------------------ *)
(* Equation census: the section 2.4 size explosion                      *)

let equations () =
  Fmt.pr "@.== CME census: convex regions and equation counts (section 2.4) ==@.";
  Fmt.pr "%-26s %8s %8s %12s %12s@." "Nest" "regions" "reuse" "compulsory"
    "replacement";
  let show label nest =
    let s = Tiling_cme.Equations.summarize nest ~line:32 in
    Fmt.pr "%-26s %8d %8d %12d %12d@." label s.Tiling_cme.Equations.regions
      s.Tiling_cme.Equations.reuse_vectors
      s.Tiling_cme.Equations.compulsory_equations
      s.Tiling_cme.Equations.replacement_equations
  in
  let nest = build "MM" 100 in
  show "MM_100" nest;
  show "MM_100 tiles 10,10,10" (Tiling_ir.Transform.tile nest [| 10; 10; 10 |]);
  show "MM_100 tiles 7,9,11" (Tiling_ir.Transform.tile nest [| 7; 9; 11 |]);
  let t2d = build "T2D" 100 in
  show "T2D_100" t2d;
  show "T2D_100 tiles 7,9" (Tiling_ir.Transform.tile t2d [| 7; 9 |])
