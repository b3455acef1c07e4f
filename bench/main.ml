(* Benchmark and experiment driver.

     dune exec bench/main.exe            -- regenerate every table and figure
     dune exec bench/main.exe -- TARGET  -- one of: table2 fig8 fig9 table3
                                            table4 ga-convergence
                                            solver-accuracy equations
                                            throughput timing serve-latency
                                            serve-telemetry serve-fanout

   Besides the human-readable tables on stdout, every run writes
   BENCH_results.json in the current directory: a machine-readable record
   of what ran, how long each target took, and the tiling results
   accumulated in [Experiments.tile_cache].  Schema (see
   docs/OBSERVABILITY.md):

     { "schema": "tiling-bench/1",
       "targets": [ { "name": str, "wall_s": float }, ... ],
       "tilings": [ { "kernel": str, "n": int, "cache_size": int,
                      "tiles": [int], "before_miss_pct": float,
                      "after_miss_pct": float, "before_repl_pct": float,
                      "after_repl_pct": float, "generations": int,
                      "converged": bool }, ... ],
       "search_throughput":
                  [ { "kernel": str, "n": int, "domains": int,
                      "evals": int, "wall_s": float,
                      "evals_per_s": float }, ...
                    (* eval-throughput rows additionally carry *)
                    { "target": "eval-throughput", "backend": str,
                      "shared_residues": "cold"|"warm", ... } ],
       "serve_latency":
                  [ { "kernel": str, "n": int, "phase": "cold"|"warm",
                      "requests": int, "p50_ms": float, "p95_ms": float,
                      "wall_s": float }, ... ],
       "serve_fanout":
                  [ { "phase": "cold"|"warm"|"coalesce",
                      "clients": int, "requests": int, "p50_ms": float,
                      "p95_ms": float, "coalesce_hits": int,
                      "wall_s": float }, ... ] }

   Partial runs merge into the existing file rather than replacing it:
   sections (and the per-target partitions of "search_throughput") keep
   their previous rows unless this run re-measured them. *)

let targets : (string * (unit -> unit)) list =
  [
    ("table2", Experiments.table2);
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("table3", Experiments.table3);
    ("table4", Experiments.table4);
    ("joint", Experiments.joint);
    ("order", Experiments.order);
    ("assoc", Experiments.associativity);
    ("ga-convergence", Experiments.ga_convergence);
    ("solver-accuracy", Experiments.solver_accuracy);
    ("equations", Experiments.equations);
    ("throughput", Experiments.throughput);
    ("eval-throughput", Experiments.eval_throughput);
    ("fuzz-throughput", Experiments.fuzz_throughput);
    ("timing", Timing.run);
    ("serve-latency", Serve.run);
    ("serve-telemetry", Serve.run_telemetry);
    ("serve-fanout", Serve.run_fanout);
  ]

let timed_run name f =
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  Tiling_obs.Json.Obj
    [ ("name", Tiling_obs.Json.String name); ("wall_s", Tiling_obs.Json.Float wall) ]

let json_of_tiling (r : Experiments.tiling_result) cache_size =
  let open Tiling_obs.Json in
  Obj
    [
      ("kernel", String r.Experiments.kernel);
      ("n", Int r.Experiments.size);
      ("cache_size", Int cache_size);
      ( "tiles",
        List (Array.to_list (Array.map (fun t -> Int t) r.Experiments.tiles)) );
      ("before_miss_pct", Float r.Experiments.before_total);
      ("after_miss_pct", Float r.Experiments.after_total);
      ("before_repl_pct", Float r.Experiments.before_repl);
      ("after_repl_pct", Float r.Experiments.after_repl);
      ("generations", Int r.Experiments.generations);
      ("converged", Bool r.Experiments.converged);
    ]

let json_of_fuzz (r : Experiments.fuzz_row) =
  let open Tiling_obs.Json in
  Obj
    [
      ("trials", Int r.Experiments.f_trials);
      ("accesses", Int r.Experiments.f_accesses);
      ("wall_s", Float r.Experiments.f_wall_s);
      ("trials_per_s", Float r.Experiments.f_trials_per_s);
    ]

let json_of_throughput (r : Experiments.throughput_row) =
  let open Tiling_obs.Json in
  Obj
    [
      ("kernel", String r.Experiments.t_kernel);
      ("n", Int r.Experiments.t_size);
      ("domains", Int r.Experiments.t_domains);
      ("evals", Int r.Experiments.t_evals);
      ("wall_s", Float r.Experiments.t_wall_s);
      ("evals_per_s", Float r.Experiments.t_evals_per_s);
    ]

let json_of_eval_row (r : Experiments.eval_row) =
  let open Tiling_obs.Json in
  Obj
    [
      ("target", String "eval-throughput");
      ("kernel", String r.Experiments.e_kernel);
      ("n", Int r.Experiments.e_size);
      ("cache_size", Int r.Experiments.e_cache_size);
      ("backend", String r.Experiments.e_backend);
      ("shared_residues", String r.Experiments.e_residues);
      ("domains", Int r.Experiments.e_domains);
      ("evals", Int r.Experiments.e_evals);
      ("wall_s", Float r.Experiments.e_wall_s);
      ("evals_per_s", Float r.Experiments.e_evals_per_s);
    ]

(* A partial run (e.g. `bench/main.exe -- serve-latency`) must not wipe
   the series other targets produced on earlier runs, so writing merges
   with the previous BENCH_results.json: a section (or, for the shared
   [search_throughput] array, a target-tagged partition of it) is only
   replaced when the current run produced rows for it; [targets] and
   [tilings] merge row-wise by key, newest wins. *)
let read_previous () =
  match open_in_bin "BENCH_results.json" with
  | exception Sys_error _ -> None
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      (match Tiling_obs.Json.of_string s with
      | Ok doc -> Some doc
      | Error msg ->
          Fmt.epr "ignoring unreadable BENCH_results.json (%s)@." msg;
          None)

let prev_section prev key =
  match prev with
  | None -> []
  | Some doc -> (
      match Tiling_obs.Json.member key doc with
      | Some (Tiling_obs.Json.List rows) -> rows
      | _ -> [])

let str_member k row =
  match Tiling_obs.Json.member k row with
  | Some (Tiling_obs.Json.String s) -> Some s
  | _ -> None

(* Old rows not superseded by a new row with the same key, then the new
   rows: series keep their history across partial runs. *)
let merge_rows ~key old_rows new_rows =
  let new_keys = List.map key new_rows in
  List.filter (fun r -> not (List.mem (key r) new_keys)) old_rows @ new_rows

let write_results timed =
  let open Tiling_obs.Json in
  let prev = read_previous () in
  let keep_unless_empty key fresh =
    if fresh = [] then prev_section prev key else fresh
  in
  let tilings =
    Hashtbl.fold
      (fun (_, _, cache_size) r acc -> json_of_tiling r cache_size :: acc)
      Experiments.tile_cache []
    |> List.sort compare
  in
  let tilings =
    merge_rows
      ~key:(fun r ->
        (str_member "kernel" r, member "n" r, member "cache_size" r))
      (prev_section prev "tilings") tilings
  in
  let targets =
    merge_rows ~key:(str_member "name") (prev_section prev "targets")
      (List.rev timed)
  in
  (* search_throughput holds two series distinguished by the "target"
     tag; each is replaced only when this run re-measured it. *)
  let eval_tagged r = str_member "target" r = Some "eval-throughput" in
  let old_plain, old_eval =
    List.partition (fun r -> not (eval_tagged r)) (prev_section prev "search_throughput")
  in
  let throughput =
    (match List.rev_map json_of_throughput !Experiments.throughput_rows with
    | [] -> old_plain
    | fresh -> fresh)
    @
    match List.rev_map json_of_eval_row !Experiments.eval_rows with
    | [] -> old_eval
    | fresh -> fresh
  in
  let fuzz =
    keep_unless_empty "fuzz_throughput"
      (List.rev_map json_of_fuzz !Experiments.fuzz_rows)
  in
  let serve =
    keep_unless_empty "serve_latency"
      (List.rev_map Serve.json_of_row !Serve.rows)
  in
  let fanout =
    keep_unless_empty "serve_fanout"
      (List.rev_map Serve.json_of_fan_row !Serve.fanout_rows)
  in
  let doc =
    Obj
      [
        ("schema", String "tiling-bench/1");
        ("targets", List targets);
        ("tilings", List tilings);
        ("search_throughput", List throughput);
        ("fuzz_throughput", List fuzz);
        ("serve_latency", List serve);
        ("serve_fanout", List fanout);
      ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote BENCH_results.json (%d targets, %d tilings)@."
    (List.length targets) (List.length tilings)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let timed = ref [] in
  let run name f = timed := timed_run name f :: !timed in
  (match args with
  | [] ->
      Fmt.pr "Reproducing every table and figure (see EXPERIMENTS.md).@.";
      List.iter (fun (name, f) -> run name f) targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> run name f
          | None ->
              Fmt.epr "unknown target %s; available: %s@." name
                (String.concat " " (List.map fst targets));
              exit 1)
        names);
  write_results !timed
