let () =
  (* Re-entrant hook for the fleet suite's two-process store torture
     test: with this variable set, the binary is one raw store writer,
     not the test runner. *)
  match Sys.getenv_opt "TILING_STORE_TORTURE" with
  | Some spec -> Test_fleet.store_torture_child spec
  | None ->
  Alcotest.run "tiling"
    [
      ("intmath", Test_intmath.suite);
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("residue_set", Test_residue.suite);
      ("affine", Test_affine.suite);
      ("array_decl", Test_array_decl.suite);
      ("nest", Test_nest.suite);
      ("dsl", Test_dsl.suite);
      ("transform", Test_transform.suite);
      ("cache", Test_cache.suite);
      ("trace", Test_trace.suite);
      ("reuse", Test_reuse.suite);
      ("box", Test_box.suite);
      ("path", Test_path.suite);
      ("engine", Test_engine.suite);
      ("estimator", Test_estimator.suite);
      ("equations", Test_equations.suite);
      ("encoding", Test_encoding.suite);
      ("ga", Test_ga.suite);
      ("sample", Test_sample.suite);
      ("search", Test_search.suite);
      ("tiler", Test_tiler.suite);
      ("padder", Test_padder.suite);
      ("baselines", Test_baselines.suite);
      ("kernels", Test_kernels.suite);
      ("random_kernels", Test_random_kernels.suite);
      ("polyhedra", Test_polyhedra.suite);
      ("symbolic", Test_symbolic.suite);
      ("codegen", Test_codegen.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("order", Test_order.suite);
      ("par", Test_par.suite);
      ("amat", Test_amat.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("server", Test_server.suite);
      ("fleet", Test_fleet.suite);
    ]
