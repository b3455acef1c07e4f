(* Benchmark worker: runs one workload for one seed and prints its raw
   result as one JSON line.  perfbench/run.py builds and drives it.

     bench.exe tile  --backend NAME --domains N --seed S --seconds X --trace 0|1 [--setup-only]
     bench.exe serve --tiler PATH --dir DIR --seed S --seconds X --trace 0|1 *)

let () =
  let args = Array.to_list Sys.argv in
  let mode = match args with _ :: m :: _ -> m | _ -> "" in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with
    | Some v -> v
    | None ->
        prerr_endline ("bench: missing " ^ name);
        exit 2
  in
  let seed = int_of_string (req "--seed")
  and seconds = float_of_string (req "--seconds")
  and traced = req "--trace" = "1" in
  if traced then Tiling_obs.Metrics.set_enabled true;
  (* Exit through [at_exit] on a signal, so no daemon child outlives us. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let r =
    match mode with
    | "tile" ->
        let backend =
          match Tiling_search.Backend.of_string (req "--backend") with
          | Ok b -> b
          | Error m ->
              prerr_endline m;
              exit 2
        in
        if List.mem "--setup-only" args then begin
          ignore (Tile_run.prepare ~seed);
          Tile_run.ready ();
          exit 0
        end;
        Tile_run.run ~backend ~domains:(int_of_string (req "--domains")) ~seed ~seconds
          ~traced
    | "serve" -> Serve_run.run ~tiler:(req "--tiler") ~dir:(req "--dir") ~seed ~seconds ~traced
    | m ->
        prerr_endline ("bench: unknown mode " ^ m);
        exit 2
  in
  print_endline (Tiling_obs.Json.to_string (Probe.to_json r))
