(* tiler — command-line driver for the CME+GA loop-tiling library.

   Subcommands:
     list        kernels and their paper sizes
     show        pretty-print a kernel (optionally tiled)
     simulate    trace-driven cache simulation (ground truth)
     analyze     CME miss-ratio estimate (sampled or exact, --per-ref)
     equations   CME census (regions / equation counts)
     tile        GA tile-size search
     pad         GA padding search
     pad-tile    padding then tiling (table 3 pipeline)
     joint       one GA over padding and tiles (the paper's future work)
     order       loop order searched together with tile sizes
     codegen     emit the (tiled) nest as C or Fortran
     baselines   compare search and analytic baselines on one kernel
     oracle      exhaustive CME-vs-simulator check over the kernel suite
     serve       run the tiling daemon (docs/SERVER.md)
     request     one request against a daemon (--trace, --progress)
     metrics     one-shot OpenMetrics scrape of a daemon
     top         live terminal view of a daemon

   The search/analysis subcommands take observability flags (see
   docs/OBSERVABILITY.md): --log-level for leveled stderr diagnostics,
   --json for a machine-readable result on stdout (human text moves to
   stderr), --metrics for a final counter snapshot, and --trace-out FILE
   for a Chrome trace_event file of the run's spans. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                     *)

let kernel_arg =
  let doc = "Kernel name (see $(b,tiler list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let size_arg =
  let doc = "Problem size N (defaults to the kernel's first paper size)." in
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~docv:"N" ~doc)

let cache_size_arg =
  let doc = "Cache size in bytes (default 8192)." in
  Arg.(value & opt int 8192 & info [ "cache" ] ~docv:"BYTES" ~doc)

let line_arg =
  let doc = "Line size in bytes (default 32)." in
  Arg.(value & opt int 32 & info [ "line" ] ~docv:"BYTES" ~doc)

let assoc_arg =
  let doc = "Associativity (default 1 = direct-mapped)." in
  Arg.(value & opt int 1 & info [ "assoc" ] ~docv:"WAYS" ~doc)

let seed_arg =
  let doc = "Random seed for sampling and the GA." in
  Arg.(value & opt int 20020815 & info [ "seed" ] ~docv:"SEED" ~doc)

let tiles_arg =
  let doc = "Tile sizes, comma separated (e.g. 32,8,64)." in
  Arg.(value & opt (some (list int)) None & info [ "tiles" ] ~docv:"T1,..,Tk" ~doc)

let exact_arg =
  let doc = "Visit every iteration point instead of sampling (slow)." in
  Arg.(value & flag & info [ "exact" ] ~doc)

(* Search flags shared by every GA subcommand. *)

let domains_arg =
  let doc =
    "Evaluate each GA generation in parallel over this many OCaml domains \
     (the result is identical for any value)."
  in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let backend_arg =
  let backend_conv =
    let parse s =
      match Tiling_search.Backend.of_string s with
      | Ok b -> Ok b
      | Error m -> Error (`Msg m)
    in
    let print ppf (b : Tiling_search.Backend.t) =
      Fmt.string ppf b.Tiling_search.Backend.name
    in
    Arg.conv (parse, print)
  in
  let doc =
    Printf.sprintf
      "Candidate cost backend; $(docv) is one of %s (see docs/SEARCH.md)."
      (String.concat ", " Tiling_search.Backend.names)
  in
  Arg.(
    value
    & opt backend_conv Tiling_search.Backend.default
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability flags                                                  *)

type obs = {
  log_level : Logs.level option;
  json : bool;
  metrics : bool;
  trace_out : string option;
}

let obs_term =
  let level_conv =
    let parse s =
      match Tiling_obs.Logging.level_of_string s with
      | Ok l -> Ok l
      | Error m -> Error (`Msg m)
    in
    let print ppf l = Fmt.string ppf (Logs.level_to_string l) in
    Arg.conv (parse, print)
  in
  let log_level =
    let doc =
      Printf.sprintf "Diagnostic logging to stderr; $(docv) is one of %s."
        (String.concat ", " Tiling_obs.Logging.level_names)
    in
    Arg.(value & opt level_conv None & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let json =
    let doc =
      "Print the result as one JSON object on stdout; the human-readable \
       text moves to stderr."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let metrics =
    let doc =
      "Record library metrics (solver classifications, GA evaluations, memo \
       hit rates, ...) and dump a final snapshot — into the JSON object \
       under $(b,metrics) with $(b,--json), as pretty JSON on stdout \
       otherwise."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace_out =
    let doc =
      "Record timed spans and write a Chrome trace_event file to $(docv) \
       (open in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let make log_level json metrics trace_out = { log_level; json; metrics; trace_out } in
  Term.(const make $ log_level $ json $ metrics $ trace_out)

let cache_json (c : Tiling_cache.Config.t) =
  Tiling_obs.Json.Obj
    [
      ("size", Tiling_obs.Json.Int c.Tiling_cache.Config.size);
      ("line", Tiling_obs.Json.Int c.Tiling_cache.Config.line);
      ("assoc", Tiling_obs.Json.Int c.Tiling_cache.Config.assoc);
      ("sets", Tiling_obs.Json.Int c.Tiling_cache.Config.sets);
    ]

(* Run one instrumented command body.  [f] computes the result under a root
   span and returns the human-readable printer plus the command-specific
   JSON fields; this wrapper routes them according to the flags.  With no
   observability flags everything below is inert and [f]'s printer writes
   to stdout exactly as it always did. *)
let obs_run obs ~command ~kernel ~n ~cache f =
  Tiling_obs.Logging.setup obs.log_level;
  if obs.metrics then Tiling_obs.Metrics.set_enabled true;
  if obs.trace_out <> None then Tiling_obs.Span.set_enabled true;
  let human, fields = Tiling_obs.Span.with_ ("cli." ^ command) f in
  Option.iter
    (fun file ->
      try Tiling_obs.Span.write_chrome file
      with Sys_error m -> Fmt.epr "tiler: cannot write trace: %s@." m)
    obs.trace_out;
  if obs.json then begin
    human Fmt.stderr;
    let obj =
      [
        ("command", Tiling_obs.Json.String command);
        ("kernel", Tiling_obs.Json.String kernel);
        ("n", Tiling_obs.Json.Int n);
        ("cache", cache_json cache);
      ]
      @ fields
      @
      if obs.metrics then [ ("metrics", Tiling_obs.Metrics.snapshot ()) ] else []
    in
    print_endline (Tiling_obs.Json.to_string (Tiling_obs.Json.Obj obj))
  end
  else begin
    human Fmt.stdout;
    if obs.metrics then
      Fmt.pr "metrics: %a@." Tiling_obs.Json.pp (Tiling_obs.Metrics.snapshot ())
  end

let build_kernel name size =
  match Tiling_kernels.Kernels.find name with
  | spec ->
      let n = match size with Some n -> n | None -> List.hd spec.sizes in
      Ok (spec, n, spec.build n)
  | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown kernel %S (try `tiler list')" name))

let build_cache size line assoc =
  match Tiling_cache.Config.make ~size ~line ~assoc () with
  | c -> Ok c
  | exception Invalid_argument m -> Error (`Msg m)

let with_setup name size csize line assoc f =
  match build_kernel name size with
  | Error (`Msg m) -> `Error (false, m)
  | Ok (spec, n, nest) -> (
      match build_cache csize line assoc with
      | Error (`Msg m) -> `Error (false, m)
      | Ok cache ->
          f spec n nest cache;
          `Ok ())

let apply_tiles nest = function
  | None -> nest
  | Some tiles -> Tiling_ir.Transform.tile nest (Array.of_list tiles)

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let list_cmd =
  let run () =
    Fmt.pr "%-9s %-5s %-22s %s@." "KERNEL" "LOOPS" "SIZES" "DESCRIPTION";
    List.iter
      (fun (s : Tiling_kernels.Kernels.spec) ->
        Fmt.pr "%-9s %-5d %-22s %s@." s.name s.loops
          (String.concat "," (List.map string_of_int s.sizes))
          s.description)
      (Tiling_kernels.Kernels.all @ Tiling_kernels.Kernels.extras)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper's kernels")
    Term.(const run $ const ())

let show_cmd =
  let run name size tiles =
    match build_kernel name size with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (_, _, nest) ->
        Fmt.pr "%a" Tiling_ir.Nest.pp (apply_tiles nest tiles);
        `Ok ()
  in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print a kernel as pseudo-Fortran")
    Term.(ret (const run $ kernel_arg $ size_arg $ tiles_arg))

let simulate_cmd =
  let run name size csize line assoc tiles =
    with_setup name size csize line assoc (fun _ n nest cache ->
        let nest = apply_tiles nest tiles in
        let report = Tiling_trace.Run.simulate nest cache in
        Fmt.pr "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp cache
          Tiling_trace.Run.pp_report report)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Replay the kernel's trace through the cache simulator")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ tiles_arg))

let analyze_cmd =
  let per_ref_arg =
    let doc = "Also print per-reference miss ratios." in
    Arg.(value & flag & info [ "per-ref" ] ~doc)
  in
  let run name size csize line assoc tiles exact seed per_ref obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"analyze" ~kernel:name ~n ~cache (fun () ->
            let nest = apply_tiles nest tiles in
            let engine = Tiling_cme.Engine.create nest cache in
            let report =
              if exact then Tiling_cme.Estimator.exact engine
              else Tiling_cme.Estimator.sample ~seed engine
            in
            let amat =
              Tiling_cache.Amat.amat
                ~miss_ratio:
                  report.Tiling_cme.Estimator.miss_ratio.Tiling_util.Stats.center
                ()
            in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_cme.Estimator.pp report;
              Fmt.pf ppf
                "estimated AMAT: %.1f cycles (1-cycle hits, 100-cycle memory)@."
                amat;
              if per_ref then
                Fmt.pf ppf "%a" (Tiling_cme.Estimator.pp_per_ref nest) report
            in
            ( human,
              [
                ("result", Tiling_cme.Estimator.to_json report);
                ("amat_cycles", Tiling_obs.Json.Float amat);
              ] )))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Estimate miss ratios with the CME solver")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ tiles_arg $ exact_arg $ seed_arg $ per_ref_arg $ obs_term))

let equations_cmd =
  let run name size csize line assoc tiles =
    with_setup name size csize line assoc (fun _ n nest cache ->
        let nest = apply_tiles nest tiles in
        let s = Tiling_cme.Equations.summarize nest ~line:cache.Tiling_cache.Config.line in
        Fmt.pr "%s n=%d: %a@." name n Tiling_cme.Equations.pp s)
  in
  Cmd.v (Cmd.info "equations" ~doc:"Count CME convex regions and equations")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ tiles_arg))

let tile_cmd =
  let run name size csize line assoc seed domains backend obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"tile" ~kernel:name ~n ~cache (fun () ->
            let opts =
              { Tiling_core.Tiler.default_opts with seed; domains; backend }
            in
            let o = Tiling_core.Tiler.optimize ~opts nest cache in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_core.Tiler.pp_outcome o
            in
            (human, [ ("result", Tiling_core.Tiler.to_json o) ])))
  in
  Cmd.v (Cmd.info "tile" ~doc:"Search near-optimal tile sizes with the GA")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ domains_arg $ backend_arg $ obs_term))

let pad_cmd =
  let run name size csize line assoc seed domains backend obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"pad" ~kernel:name ~n ~cache (fun () ->
            let opts =
              { Tiling_core.Padder.default_opts with seed; domains; backend }
            in
            let o = Tiling_core.Padder.optimize ~opts nest cache in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_core.Padder.pp_outcome o
            in
            (human, [ ("result", Tiling_core.Padder.to_json o) ])))
  in
  Cmd.v (Cmd.info "pad" ~doc:"Search near-optimal padding with the GA")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ domains_arg $ backend_arg $ obs_term))

let pad_tile_cmd =
  let run name size csize line assoc seed domains backend obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"pad-tile" ~kernel:name ~n ~cache (fun () ->
            let topts =
              { Tiling_core.Tiler.default_opts with seed; domains; backend }
            in
            let popts =
              { Tiling_core.Padder.default_opts with seed; domains; backend }
            in
            let o = Tiling_core.Optimizer.pad_then_tile ~topts ~popts nest cache in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_core.Optimizer.pp_combined o
            in
            (human, [ ("result", Tiling_core.Optimizer.combined_to_json o) ])))
  in
  Cmd.v
    (Cmd.info "pad-tile" ~doc:"Padding then tiling (the table 3 pipeline)")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ domains_arg $ backend_arg $ obs_term))

let trace_cmd =
  let limit_arg =
    let doc = "Maximum number of events to print (default 1000; 0 = all)." in
    Arg.(value & opt int 1000 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run name size tiles limit =
    match build_kernel name size with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (_, _, nest) ->
        let nest = apply_tiles nest tiles in
        let printed = ref 0 in
        (try
           Tiling_trace.Gen.iter nest (fun ev ->
               if limit > 0 && !printed >= limit then raise Exit;
               incr printed;
               (* dineroIV-style label: r/w address (hex) *)
               Printf.printf "%c 0x%x\n"
                 (match ev.Tiling_trace.Gen.access with
                 | Tiling_ir.Nest.Read -> 'r'
                 | Tiling_ir.Nest.Write -> 'w')
                 ev.Tiling_trace.Gen.addr)
         with Exit -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Dump the (tiled) nest's address trace (dinero-style r/w lines)")
    Term.(ret (const run $ kernel_arg $ size_arg $ tiles_arg $ limit_arg))

let codegen_cmd =
  let lang_arg =
    let doc = "Output language: c or fortran." in
    Cmdliner.Arg.(value & opt string "c" & info [ "lang" ] ~docv:"LANG" ~doc)
  in
  let run name size tiles lang =
    match build_kernel name size with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (_, _, nest) -> (
        let nest = apply_tiles nest tiles in
        match String.lowercase_ascii lang with
        | "c" ->
            print_string (Tiling_codegen.C_gen.emit_function nest);
            `Ok ()
        | "fortran" | "f" | "f77" ->
            print_string (Tiling_codegen.Fortran_gen.emit_subroutine nest);
            `Ok ()
        | other -> `Error (false, Printf.sprintf "unknown language %S" other))
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the (tiled) nest as C or Fortran source")
    Term.(ret (const run $ kernel_arg $ size_arg $ tiles_arg $ lang_arg))

let order_cmd =
  let run name size csize line assoc seed domains backend obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"order" ~kernel:name ~n ~cache (fun () ->
            let opts =
              { Tiling_core.Tiler.default_opts with seed; domains; backend }
            in
            let o = Tiling_core.Tiler.optimize_with_order ~opts nest cache in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_core.Tiler.pp_order_outcome o
            in
            (human, [ ("result", Tiling_core.Tiler.order_to_json o) ])))
  in
  Cmd.v
    (Cmd.info "order"
       ~doc:"Search loop order and tile sizes together (extension)")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ domains_arg $ backend_arg $ obs_term))

let joint_cmd =
  let run name size csize line assoc seed domains backend obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"joint" ~kernel:name ~n ~cache (fun () ->
            let topts =
              { Tiling_core.Tiler.default_opts with seed; domains; backend }
            in
            let popts = { Tiling_core.Padder.default_opts with seed } in
            let o = Tiling_core.Optimizer.pad_and_tile ~topts ~popts nest cache in
            let human ppf =
              Fmt.pf ppf "%s n=%d on %a:@.%a@." name n Tiling_cache.Config.pp
                cache Tiling_core.Optimizer.pp_joint o
            in
            (human, [ ("result", Tiling_core.Optimizer.joint_to_json o) ])))
  in
  Cmd.v
    (Cmd.info "joint"
       ~doc:"Search padding and tiling in a single GA (the paper's future work)")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ domains_arg $ backend_arg $ obs_term))

let fuzz_cmd =
  let trials_arg =
    let doc = "Number of random trials to run." in
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let time_budget_arg =
    let doc =
      "Stop drawing new trials after $(docv) seconds of wall clock (the \
       trial in flight finishes; shrinking is not budgeted)."
    in
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SEC" ~doc)
  in
  let spec_arg =
    let doc =
      "Comma-separated generator overrides, e.g. \
       $(b,depth=2,extent=8,line=32).  Knobs: depth, extent, arrays, refs, \
       offset, coeff, step, sets, assoc, line, tri (see docs/FUZZING.md)."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"KNOBS" ~doc)
  in
  let run trials time_budget spec seed domains obs =
    let knobs =
      match spec with
      | None -> Ok Tiling_fuzz.Driver.default_knobs
      | Some s -> Tiling_fuzz.Driver.knobs_of_string s
    in
    match knobs with
    | Error m -> `Error (false, m)
    | Ok knobs ->
        Tiling_obs.Logging.setup obs.log_level;
        if obs.metrics then Tiling_obs.Metrics.set_enabled true;
        if obs.trace_out <> None then Tiling_obs.Span.set_enabled true;
        let o =
          Tiling_fuzz.Driver.run ~knobs ?time_budget ~domains ~trials ~seed ()
        in
        Option.iter
          (fun file ->
            try Tiling_obs.Span.write_chrome file
            with Sys_error m -> Fmt.epr "tiler: cannot write trace: %s@." m)
          obs.trace_out;
        let human ppf =
          Fmt.pf ppf
            "fuzz: %d trials (%.1f/s), %d agree, %d inconclusive \
             (fallback-masked), %d fallback trials, %d accesses compared@."
            o.Tiling_fuzz.Driver.trials_run
            (float_of_int o.Tiling_fuzz.Driver.trials_run
            /. max 1e-9 o.Tiling_fuzz.Driver.wall_s)
            o.Tiling_fuzz.Driver.agreed o.Tiling_fuzz.Driver.inconclusive
            o.Tiling_fuzz.Driver.fallback_trials
            o.Tiling_fuzz.Driver.accesses;
          List.iter
            (fun (m : Tiling_fuzz.Driver.mismatch) ->
              Fmt.pf ppf "MISMATCH (trial %d, %d shrink checks)@."
                m.Tiling_fuzz.Driver.trial m.Tiling_fuzz.Driver.shrink_checks;
              Fmt.pf ppf "  raw:    %a@." Tiling_fuzz.Case.pp
                m.Tiling_fuzz.Driver.raw;
              Fmt.pf ppf "  shrunk: %a@." Tiling_fuzz.Case.pp
                m.Tiling_fuzz.Driver.shrunk;
              Fmt.pf ppf "  %a@." Tiling_fuzz.Oracle.pp_result
                m.Tiling_fuzz.Driver.result)
            o.Tiling_fuzz.Driver.mismatches;
          if o.Tiling_fuzz.Driver.mismatches = [] then
            Fmt.pf ppf "no mismatches: solver and simulator agree@."
        in
        let mismatch_json (m : Tiling_fuzz.Driver.mismatch) =
          Tiling_obs.Json.Obj
            [
              ("trial", Tiling_obs.Json.Int m.Tiling_fuzz.Driver.trial);
              ( "raw",
                Tiling_obs.Json.String
                  (Tiling_fuzz.Case.to_string m.Tiling_fuzz.Driver.raw) );
              ( "shrunk",
                Tiling_obs.Json.String
                  (Tiling_fuzz.Case.to_string m.Tiling_fuzz.Driver.shrunk) );
              ( "shrink_checks",
                Tiling_obs.Json.Int m.Tiling_fuzz.Driver.shrink_checks );
            ]
        in
        if obs.json then begin
          human Fmt.stderr;
          let obj =
            [
              ("command", Tiling_obs.Json.String "fuzz");
              ("seed", Tiling_obs.Json.Int seed);
              ("trials", Tiling_obs.Json.Int o.Tiling_fuzz.Driver.trials_run);
              ("agreed", Tiling_obs.Json.Int o.Tiling_fuzz.Driver.agreed);
              ( "inconclusive",
                Tiling_obs.Json.Int o.Tiling_fuzz.Driver.inconclusive );
              ( "fallback_trials",
                Tiling_obs.Json.Int o.Tiling_fuzz.Driver.fallback_trials );
              ("accesses", Tiling_obs.Json.Int o.Tiling_fuzz.Driver.accesses);
              ("wall_s", Tiling_obs.Json.Float o.Tiling_fuzz.Driver.wall_s);
              ( "mismatches",
                Tiling_obs.Json.List
                  (List.map mismatch_json o.Tiling_fuzz.Driver.mismatches) );
            ]
            @
            if obs.metrics then
              [ ("metrics", Tiling_obs.Metrics.snapshot ()) ]
            else []
          in
          print_endline (Tiling_obs.Json.to_string (Tiling_obs.Json.Obj obj))
        end
        else begin
          human Fmt.stdout;
          if obs.metrics then
            Fmt.pr "metrics: %a@." Tiling_obs.Json.pp
              (Tiling_obs.Metrics.snapshot ())
        end;
        if o.Tiling_fuzz.Driver.mismatches <> [] then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: exact CME classification vs the trace-driven \
          simulator on random kernels and geometries")
    Term.(
      ret
        (const run $ trials_arg $ time_budget_arg $ spec_arg $ seed_arg
       $ domains_arg $ obs_term))

let oracle_cmd =
  let kernels_arg =
    let doc =
      "Kernels to check (default: the whole rotation, paper table plus \
       extras)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"KERNEL" ~doc)
  in
  let oracle_size_arg =
    let doc =
      "Problem size N for every kernel (small: the oracle visits every \
       iteration point)."
    in
    Arg.(value & opt int 12 & info [ "n"; "size" ] ~docv:"N" ~doc)
  in
  let run kernels size csize line assoc =
    match build_cache csize line assoc with
    | Error (`Msg m) -> `Error (false, m)
    | Ok cache ->
        let specs =
          match kernels with
          | [] -> Ok Tiling_kernels.Kernels.rotation
          | names -> (
              try
                Ok
                  (List.map
                     (fun n ->
                       match Tiling_kernels.Kernels.find n with
                       | s -> s
                       | exception Not_found -> raise (Failure n))
                     names)
              with Failure n ->
                Error (Printf.sprintf "unknown kernel %S (try `tiler list')" n))
        in
        (match specs with
        | Error m -> `Error (false, m)
        | Ok specs ->
            let failed = ref false in
            List.iter
              (fun (spec : Tiling_kernels.Kernels.spec) ->
                let nest = spec.build size in
                (* Untiled, then a canonical tiling: the tiled variant drives
                   the Tile_ctrl/Tile_elem solver paths (including the affine
                   ones) that the untiled nest never reaches. *)
                let variants =
                  let spans = Tiling_ir.Transform.tile_spans nest in
                  [
                    ("untiled", nest);
                    ( "tiled",
                      Tiling_ir.Transform.tile nest
                        (Array.map (fun s -> min 4 s) spans) );
                  ]
                in
                List.iter
                  (fun (label, nest) ->
                    let r = Tiling_fuzz.Oracle.check nest cache in
                    let verdict =
                      match r.Tiling_fuzz.Oracle.verdict with
                      | Tiling_fuzz.Oracle.Agree -> "agree"
                      | Tiling_fuzz.Oracle.Inconclusive _ ->
                          "inconclusive (fallback-masked)"
                      | Tiling_fuzz.Oracle.Mismatch _ ->
                          failed := true;
                          "MISMATCH"
                    in
                    Fmt.pr "%-9s n=%-4d %-8s %s (%d accesses, %d fallbacks)@."
                      spec.name size label verdict
                      r.Tiling_fuzz.Oracle.accesses
                      r.Tiling_fuzz.Oracle.fallbacks;
                    match r.Tiling_fuzz.Oracle.verdict with
                    | Tiling_fuzz.Oracle.Mismatch _ ->
                        Fmt.pr "%a@." Tiling_fuzz.Oracle.pp_result r
                    | _ -> ())
                  variants)
              specs;
            if !failed then begin
              Fmt.pr "oracle: CME solver disagrees with the simulator@.";
              exit 1
            end;
            Fmt.pr "oracle: solver and simulator agree on every kernel@.";
            `Ok ())
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Exhaustive CME-vs-simulator check over the kernel suite (exit 1 on \
          any fallback-free disagreement); the CI acceptance gate")
    Term.(
      ret
        (const run $ kernels_arg $ oracle_size_arg $ cache_size_arg $ line_arg
       $ assoc_arg))

let baselines_cmd =
  let run name size csize line assoc seed obs =
    with_setup name size csize line assoc (fun _ n nest cache ->
        obs_run obs ~command:"baselines" ~kernel:name ~n ~cache (fun () ->
            let sample = Tiling_core.Sample.create ~seed nest in
            let eval tiles = Tiling_core.Tiler.objective_on sample nest cache tiles in
            let rows = ref [] in
            let note label tiles obj = rows := (label, tiles, obj) :: !rows in
            let opts = { Tiling_core.Tiler.default_opts with seed } in
            let ga = Tiling_core.Tiler.optimize ~opts nest cache in
            note "GA (paper)" ga.Tiling_core.Tiler.tiles
              ga.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective;
            let r = Tiling_baselines.Search.random ~evals:450 ~seed sample nest cache in
            note "random-450" r.Tiling_baselines.Search.tiles
              r.Tiling_baselines.Search.objective;
            let h = Tiling_baselines.Search.hill_climb ~evals:450 ~seed sample nest cache in
            note "hill-climb-450" h.Tiling_baselines.Search.tiles
              h.Tiling_baselines.Search.objective;
            let lrw = Tiling_baselines.Analytic.lrw nest cache in
            note "LRW (ESS)" lrw (eval lrw);
            let cm = Tiling_baselines.Analytic.coleman_mckinley nest cache in
            note "Coleman-McKinley" cm (eval cm);
            let sm = Tiling_baselines.Analytic.sarkar_megiddo nest cache in
            note "Sarkar-Megiddo" sm (eval sm);
            let co = Tiling_baselines.Oblivious.tile_vector nest cache in
            note "cache-oblivious" co (eval co);
            let untiled = Tiling_ir.Transform.tile_spans nest in
            note "untiled" untiled (eval untiled);
            let rows = List.rev !rows in
            let human ppf =
              Fmt.pf ppf
                "%s n=%d on %a (objective: replacement misses in the sample)@."
                name n Tiling_cache.Config.pp cache;
              List.iter
                (fun (label, tiles, obj) ->
                  Fmt.pf ppf "%-18s tiles=[%a] objective=%g@." label
                    Fmt.(array ~sep:(any ",") int)
                    tiles obj)
                rows
            in
            let json_rows =
              Tiling_obs.Json.List
                (List.map
                   (fun (label, tiles, obj) ->
                     Tiling_obs.Json.Obj
                       [
                         ("label", Tiling_obs.Json.String label);
                         ( "tiles",
                           Tiling_obs.Json.List
                             (Array.to_list
                                (Array.map
                                   (fun t -> Tiling_obs.Json.Int t)
                                   tiles)) );
                         ("objective", Tiling_obs.Json.Float obj);
                       ])
                   rows)
            in
            (human, [ ("result", json_rows) ])))
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Compare tile-selection baselines on a kernel")
    Term.(
      ret
        (const run $ kernel_arg $ size_arg $ cache_size_arg $ line_arg
       $ assoc_arg $ seed_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* Daemon: serve and request (docs/SERVER.md)                           *)

let socket_arg =
  let doc =
    "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT) or $(b,HOST:PORT) \
     (defaults to the $(b,TILING_SOCKET) environment variable, else \
     $(b,unix:tiler.sock))."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"ADDR" ~doc)

let resolve_addr socket =
  let spec =
    match socket with
    | Some s -> Some s
    | None -> (
        match Sys.getenv_opt "TILING_SOCKET" with
        | Some s when String.trim s <> "" -> Some s
        | _ -> None)
  in
  match spec with
  | None -> Ok Tiling_server.Server.default_config.Tiling_server.Server.addr
  | Some s -> Tiling_util.Netio.addr_of_string s

let serve_cmd =
  let workers_arg =
    let doc = "Request-scheduler worker threads (each request still \
               parallelises internally over $(b,--domains))." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Admission-queue capacity; requests beyond it are rejected \
               with $(b,overloaded) and a retry hint." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let store_arg =
    let doc = "Persistent result-store log (defaults to the \
               $(b,TILING_STORE) environment variable; unset = no \
               persistence)." in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-request deadline in seconds, for requests that \
               carry no $(b,deadline_s) of their own." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)
  in
  let max_line_arg =
    let doc = "Request-line byte cap ($(b,payload_too_large) beyond)." in
    Arg.(value & opt int (1 lsl 20) & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let metrics_addr_arg =
    let doc =
      "Also serve $(b,GET /metrics) (OpenMetrics text, for Prometheus) on \
       this address: $(b,tcp:HOST:PORT) or $(b,unix:PATH)."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-addr" ] ~docv:"ADDR" ~doc)
  in
  let events_out_arg =
    let doc =
      "Append every telemetry event (GA generations, search restarts, ...) \
       to $(docv) as NDJSON (see docs/OBSERVABILITY.md)."
    in
    Arg.(
      value & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)
  in
  let run socket workers queue store deadline max_line metrics_addr events_out
      domains obs =
    match resolve_addr socket with
    | Error m -> `Error (false, m)
    | Ok addr -> (
        match
          match metrics_addr with
          | None -> Ok None
          | Some s -> Result.map Option.some (Tiling_util.Netio.addr_of_string s)
        with
        | Error m -> `Error (false, m)
        | Ok metrics_addr -> (
            (* A daemon with logging fully off is a black box; default to the
               App level so the serving/draining lifecycle lines show. *)
            Tiling_obs.Logging.setup
              (match obs.log_level with None -> Some Logs.App | l -> l);
            (* The daemon's telemetry surfaces (stats, metrics, --trace,
               progress streaming) are only as good as what is recorded, so
               serving always records — the registries cost a few atomics
               per event and nothing else. *)
            Tiling_obs.Metrics.set_enabled true;
            Tiling_obs.Events.set_enabled true;
            if obs.trace_out <> None then Tiling_obs.Span.set_enabled true;
            (match events_out with
            | None -> ()
            | Some file -> (
                match Tiling_obs.Events.open_sink file with
                | Ok () -> ()
                | Error m ->
                    Fmt.epr "tiler: cannot open events sink: %s@." m));
            let store_path =
              match store with
              | Some _ -> store
              | None -> (
                  match Sys.getenv_opt "TILING_STORE" with
                  | Some s when String.trim s <> "" -> Some s
                  | _ -> None)
            in
            let r =
              Tiling_server.Server.run
                {
                  Tiling_server.Server.addr;
                  workers;
                  capacity = queue;
                  store_path;
                  default_deadline_s = deadline;
                  domains;
                  max_line_bytes = max_line;
                  metrics_addr;
                }
            in
            Tiling_obs.Events.close_sink ();
            Option.iter
              (fun file ->
                try Tiling_obs.Span.write_chrome file
                with Sys_error m -> Fmt.epr "tiler: cannot write trace: %s@." m)
              obs.trace_out;
            if obs.metrics then
              Fmt.epr "metrics: %a@." Tiling_obs.Json.pp
                (Tiling_obs.Metrics.snapshot ());
            match r with Ok () -> `Ok () | Error m -> `Error (false, m)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tiling daemon: newline-delimited JSON requests over a \
          Unix or TCP socket, with admission control and a persistent \
          result store (see docs/SERVER.md)")
    Term.(
      ret
        (const run $ socket_arg $ workers_arg $ queue_arg $ store_arg
       $ deadline_arg $ max_line_arg $ metrics_addr_arg $ events_out_arg
       $ domains_arg $ obs_term))

(* --- `request --trace` flame summary ------------------------------- *)

(* The daemon's trace tree ({"trace_id","dropped","spans","total_us"},
   node = {"name","ts_us","dur_us","attrs"?,"children"?}) aggregated by
   span name at each level: counts, summed duration, share of the
   request's wall clock. *)
let print_flame ppf trace =
  let module J = Tiling_obs.Json in
  let num j = Option.value (Option.bind j J.to_float) ~default:0. in
  let str j = match j with Some (J.String s) -> s | _ -> "?" in
  let ilist j = match j with Some (J.List l) -> l | _ -> [] in
  let total_us = num (J.member "total_us" trace) in
  let spans = ilist (J.member "spans" trace) in
  let dropped =
    match J.member "dropped" trace with Some (J.Int d) -> d | _ -> 0
  in
  let children node = ilist (J.member "children" node) in
  (* Group sibling spans by name, keeping first-seen order. *)
  let group nodes =
    let order = ref [] and tbl = Hashtbl.create 8 in
    List.iter
      (fun node ->
        let name = str (J.member "name" node) in
        let entry =
          match Hashtbl.find_opt tbl name with
          | Some e -> e
          | None ->
              let e = ref (0, 0., []) in
              Hashtbl.add tbl name e;
              order := name :: !order;
              e
        in
        let count, dur, kids = !entry in
        entry :=
          ( count + 1,
            dur +. num (J.member "dur_us" node),
            List.rev_append (children node) kids ))
      nodes;
    List.rev_map (fun name -> (name, !(Hashtbl.find tbl name))) !order
  in
  let rec walk depth groups =
    List.iter
      (fun (name, (count, dur_us, kids)) ->
        let pct = if total_us > 0. then 100. *. dur_us /. total_us else 0. in
        Fmt.pf ppf "  %s%-*s %5dx %10.2f ms %5.1f%%@."
          (String.make (2 * depth) ' ')
          (max 1 (30 - 2 * depth))
          name count (dur_us /. 1000.) pct;
        walk (depth + 1) (group (List.rev kids)))
      groups
  in
  Fmt.pf ppf "trace %.0f: %.2f ms wall clock%s@."
    (num (J.member "trace_id" trace))
    (total_us /. 1000.)
    (if dropped > 0 then Printf.sprintf " (%d spans dropped)" dropped else "");
  walk 0 (group spans);
  (* Memo effectiveness, from the request.eval.stats instants. *)
  let hits = ref 0 and fresh = ref 0 in
  let rec scan node =
    (if str (J.member "name" node) = "request.eval.stats" then
       match J.member "attrs" node with
       | Some attrs ->
           hits := !hits + int_of_float (num (J.member "memo_hits" attrs));
           fresh := !fresh + int_of_float (num (J.member "fresh" attrs))
       | None -> ());
    List.iter scan (children node)
  in
  List.iter scan spans;
  if !hits + !fresh > 0 then
    Fmt.pf ppf "  memo: %d hits, %d fresh (%.1f%% hit rate)@." !hits !fresh
      (100. *. float_of_int !hits /. float_of_int (!hits + !fresh))

let print_progress_event ev =
  let module J = Tiling_obs.Json in
  let kind =
    match J.member "kind" ev with Some (J.String s) -> s | _ -> "?"
  in
  let attrs =
    match J.member "attrs" ev with
    | Some a -> " " ^ J.to_string a
    | None -> ""
  in
  Fmt.epr "progress: %s%s@." kind attrs

let request_cmd =
  let meth_arg =
    let doc =
      "Request method: analyze, tile, pad-tile, fuzz-case, stats or \
       shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METHOD" ~doc)
  in
  let opt_int names docv doc =
    Arg.(value & opt (some int) None & info names ~docv ~doc)
  in
  let kernel_opt_arg =
    let doc = "Kernel name (see $(b,tiler list))." in
    Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"KERNEL" ~doc)
  in
  let backend_opt_arg =
    let doc = "Candidate cost backend name (validated by the daemon)." in
    Arg.(value & opt (some string) None & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let case_arg =
    let doc = "Fuzz case repro line (for $(b,fuzz-case))." in
    Arg.(value & opt (some string) None & info [ "case" ] ~docv:"LINE" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in seconds." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)
  in
  let trace_arg =
    let doc =
      "Ask the daemon for the request's span tree (returned under \
       $(b,result.trace)) and print a flame summary — queue wait, \
       evaluation time, memo hit rate — to stderr."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let progress_arg =
    let doc =
      "Stream the search's per-generation progress events to stderr while \
       the request runs."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let retries_arg =
    let doc =
      "Retry up to $(docv) times when the daemon answers $(b,overloaded), \
       sleeping the server's $(b,retry_after_s) hint (with jitter) between \
       attempts; transport failures reconnect and retry the same way.  \
       Default 0: fail on the first reject."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let run socket meth kernel n csize line assoc seed backend tiles exact case
      deadline trace progress retries =
    match resolve_addr socket with
    | Error m -> `Error (false, m)
    | Ok addr -> (
        let params =
          List.filter_map Fun.id
            [
              Option.map (fun k -> ("kernel", Tiling_obs.Json.String k)) kernel;
              Option.map (fun v -> ("n", Tiling_obs.Json.Int v)) n;
              Option.map (fun v -> ("cache_size", Tiling_obs.Json.Int v)) csize;
              Option.map (fun v -> ("line", Tiling_obs.Json.Int v)) line;
              Option.map (fun v -> ("assoc", Tiling_obs.Json.Int v)) assoc;
              Option.map (fun v -> ("seed", Tiling_obs.Json.Int v)) seed;
              Option.map (fun b -> ("backend", Tiling_obs.Json.String b)) backend;
              Option.map
                (fun ts ->
                  ( "tiles",
                    Tiling_obs.Json.List
                      (List.map (fun t -> Tiling_obs.Json.Int t) ts) ))
                tiles;
              (if exact then Some ("exact", Tiling_obs.Json.Bool true) else None);
              Option.map (fun c -> ("case", Tiling_obs.Json.String c)) case;
              Option.map (fun d -> ("deadline_s", Tiling_obs.Json.Float d)) deadline;
              (if trace then Some ("trace", Tiling_obs.Json.Bool true) else None);
              (if progress then Some ("progress", Tiling_obs.Json.Bool true)
               else None);
            ]
        in
        let on_progress =
          if progress then Some print_progress_event else None
        in
        let backoff = Tiling_server.Backoff.create () in
        let connect () =
          match Tiling_server.Client.connect addr with
          | Error m ->
              Fmt.epr "tiler: cannot connect to %s: %s@."
                (Tiling_util.Netio.addr_to_string addr)
                m;
              exit 1
          | Ok client -> client
        in
        let sleep_before_retry ?hint ~why used =
          let delay = Tiling_server.Backoff.next ?hint backoff in
          Fmt.epr "tiler: %s; retrying in %.1fs (%d/%d)@." why delay used
            retries;
          Unix.sleepf delay
        in
        let finish envelope =
          print_endline (Tiling_obs.Json.to_string envelope);
          match Tiling_server.Client.result_of_response envelope with
          | Ok result ->
              if trace then
                Option.iter
                  (fun t -> print_flame Fmt.stderr t)
                  (Tiling_obs.Json.member "trace" result);
              `Ok ()
          | Error _ -> exit 1
        in
        let rec attempt client left =
          let resp =
            Tiling_server.Client.call ?on_progress client ~meth ~params
          in
          match resp with
          | Error m when left > 0 ->
              (* Transport trouble (daemon restarting, connection torn):
                 reconnect on a fresh socket for the next try. *)
              Tiling_server.Client.close client;
              sleep_before_retry ~why:m (retries - left + 1);
              attempt (connect ()) (left - 1)
          | Error m ->
              Tiling_server.Client.close client;
              Fmt.epr "tiler: %s@." m;
              exit 1
          | Ok envelope -> (
              match Tiling_server.Client.result_of_response envelope with
              | Error { Tiling_server.Protocol.code = Tiling_server.Protocol.Overloaded;
                        retry_after_s; _ }
                when left > 0 ->
                  sleep_before_retry ?hint:retry_after_s ~why:"overloaded"
                    (retries - left + 1);
                  attempt client (left - 1)
              | _ ->
                  Tiling_server.Client.close client;
                  finish envelope)
        in
        attempt (connect ()) (max 0 retries))
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running tiling daemon and print the JSON \
          response (exit 0 on $(b,status=ok), 1 on a server-side error)")
    Term.(
      ret
        (const run $ socket_arg $ meth_arg $ kernel_opt_arg
       $ opt_int [ "n"; "size" ] "N" "Problem size N."
       $ opt_int [ "cache" ] "BYTES" "Cache size in bytes."
       $ opt_int [ "line" ] "BYTES" "Line size in bytes."
       $ opt_int [ "assoc" ] "WAYS" "Associativity."
       $ opt_int [ "seed" ] "SEED" "Random seed."
       $ backend_opt_arg $ tiles_arg
       $ Arg.(value & flag & info [ "exact" ] ~doc:"Exact CME enumeration.")
       $ case_arg $ deadline_arg $ trace_arg $ progress_arg $ retries_arg))

(* One call against a running daemon, with the connection/error plumbing
   shared by `tiler metrics` and `tiler top`. *)
let daemon_call addr ~meth ~params =
  match Tiling_server.Client.connect addr with
  | Error m ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Tiling_util.Netio.addr_to_string addr)
           m)
  | Ok client -> (
      let resp = Tiling_server.Client.call client ~meth ~params in
      Tiling_server.Client.close client;
      match resp with
      | Error m -> Error m
      | Ok envelope -> (
          match Tiling_server.Client.result_of_response envelope with
          | Ok result -> Ok result
          | Error e -> Error e.Tiling_server.Protocol.message))

let metrics_cmd =
  let json_arg =
    let doc =
      "Print the raw registry snapshot as JSON instead of OpenMetrics text."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run socket json =
    match resolve_addr socket with
    | Error m -> `Error (false, m)
    | Ok addr -> (
        let fmt = if json then "json" else "openmetrics" in
        match
          daemon_call addr ~meth:"metrics"
            ~params:[ ("format", Tiling_obs.Json.String fmt) ]
        with
        | Error m ->
            Fmt.epr "tiler: %s@." m;
            exit 1
        | Ok result ->
            (if json then
               match Tiling_obs.Json.member "snapshot" result with
               | Some snap -> print_endline (Tiling_obs.Json.to_string snap)
               | None -> print_endline (Tiling_obs.Json.to_string result)
             else
               match Tiling_obs.Json.member "body" result with
               | Some (Tiling_obs.Json.String body) -> print_string body
               | _ -> print_endline (Tiling_obs.Json.to_string result));
            `Ok ())
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon's metrics once — OpenMetrics text by \
          default, the JSON registry snapshot with $(b,--json)")
    Term.(ret (const run $ socket_arg $ json_arg))

(* --- `tiler top`: a live text view of the daemon ------------------- *)

let render_top ppf stats metrics =
  let module J = Tiling_obs.Json in
  let num path j =
    let rec go path j =
      match path with
      | [] -> J.to_float j
      | k :: rest -> Option.bind (J.member k j) (go rest)
    in
    Option.value (go path j) ~default:0.
  in
  let int_ path j = int_of_float (num path j) in
  let uptime = num [ "uptime_s" ] stats in
  Fmt.pf ppf "tiler top — pid %d, up %.0fs, %d connections@."
    (int_ [ "pid" ] stats) uptime
    (int_ [ "connections" ] stats);
  Fmt.pf ppf "queue     %d/%d slots, %d workers@."
    (int_ [ "queue"; "depth" ] stats)
    (int_ [ "queue"; "capacity" ] stats)
    (int_ [ "queue"; "workers" ] stats);
  Fmt.pf ppf "requests  %d completed, %d rejected, %d timeouts@."
    (int_ [ "requests"; "completed" ] stats)
    (int_ [ "requests"; "rejected" ] stats)
    (int_ [ "requests"; "timeouts" ] stats);
  Fmt.pf ppf "latency   p50 %.1f ms, p95 %.1f ms (%d samples)@."
    (num [ "latency_ms"; "p50" ] stats)
    (num [ "latency_ms"; "p95" ] stats)
    (int_ [ "latency_ms"; "samples" ] stats);
  (match J.member "store" stats with
  | Some (J.Obj _ as store) ->
      let hits = num [ "hits" ] store and misses = num [ "misses" ] store in
      let rate =
        if hits +. misses > 0. then 100. *. hits /. (hits +. misses) else 0.
      in
      Fmt.pf ppf "store     %d entries, %.0f hits / %.0f misses (%.1f%%)@."
        (int_ [ "entries" ] store) hits misses rate
  | _ -> Fmt.pf ppf "store     (none)@.");
  (match metrics with
  | None -> ()
  | Some m ->
      let workers = num [ "gauges"; "pool.workers" ] m in
      let tasks = num [ "counters"; "pool.tasks" ] m in
      let chunks = num [ "counters"; "pool.chunks" ] m in
      if workers > 0. || tasks > 0. then
        Fmt.pf ppf "pool      %.0f domains, %.0f jobs, %.0f chunks@." workers
          tasks chunks);
  (match J.member "inflight" stats with
  | Some (J.List (_ :: _ as jobs)) ->
      Fmt.pf ppf "in flight:@.";
      List.iter
        (fun job ->
          Fmt.pf ppf "  %-10s queued %6.2fs  running %6.2fs@."
            (match J.member "method" job with
            | Some (J.String s) -> s
            | _ -> "?")
            (num [ "queued_s" ] job)
            (num [ "running_s" ] job))
        jobs
  | _ -> Fmt.pf ppf "in flight: (idle)@.");
  match J.member "events" stats with
  | Some (J.List (_ :: _ as evs)) ->
      Fmt.pf ppf "recent events:@.";
      List.iter
        (fun ev ->
          Fmt.pf ppf "  [%d] %s%s@."
            (int_ [ "seq" ] ev)
            (match J.member "kind" ev with
            | Some (J.String s) -> s
            | _ -> "?")
            (match J.member "attrs" ev with
            | Some a -> " " ^ J.to_string a
            | None -> ""))
        evs
  | _ -> ()

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SEC" ~doc)
  in
  let iterations_arg =
    let doc = "Refresh this many times then exit (0 = run until ^C)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let events_arg =
    let doc = "Recent telemetry events to show per refresh." in
    Arg.(value & opt int 8 & info [ "events" ] ~docv:"N" ~doc)
  in
  let run socket interval iterations events =
    match resolve_addr socket with
    | Error m -> `Error (false, m)
    | Ok addr ->
        let interval = Float.max 0.1 interval in
        let live = iterations <> 1 in
        let rec loop i =
          let stats =
            daemon_call addr ~meth:"stats"
              ~params:[ ("events", Tiling_obs.Json.Int events) ]
          in
          (match stats with
          | Error m ->
              Fmt.epr "tiler: %s@." m;
              exit 1
          | Ok stats ->
              let metrics =
                match
                  daemon_call addr ~meth:"metrics"
                    ~params:[ ("format", Tiling_obs.Json.String "json") ]
                with
                | Ok r -> Tiling_obs.Json.member "snapshot" r
                | Error _ -> None
              in
              (* Clear the screen between refreshes only when looping. *)
              if live then Fmt.pr "\027[2J\027[H";
              render_top Fmt.stdout stats metrics;
              Fmt.pr "%!");
          if iterations = 0 || i < iterations then begin
            Unix.sleepf interval;
            loop (i + 1)
          end
        in
        loop 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running daemon: queue depth, in-flight \
          requests, latency, pool and store effectiveness, recent search \
          events")
    Term.(ret (const run $ socket_arg $ interval_arg $ iterations_arg $ events_arg))

let () =
  let doc = "near-optimal loop tiling by cache miss equations and a GA" in
  let info = Cmd.info "tiler" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        list_cmd; show_cmd; simulate_cmd; analyze_cmd; equations_cmd;
        tile_cmd; pad_cmd; pad_tile_cmd; joint_cmd; order_cmd;
        codegen_cmd; trace_cmd; baselines_cmd; fuzz_cmd; oracle_cmd;
        serve_cmd; request_cmd; metrics_cmd; top_cmd;
      ]
  in
  (* Exit-code contract (docs/SERVER.md): 0 success, 1 runtime failure
     (fuzz mismatches, server-side request errors), 2 argument or
     validation errors, 125 unexpected exceptions. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok ()) | Ok `Version | Ok `Help -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
