(* Measurement helpers shared by the workloads: clocks, percentiles,
   metrics-registry deltas, answer checks against the simulator and the
   result record every workload fills in. *)

module Json = Tiling_obs.Json

let now () = Unix.gettimeofday ()

(* CPU seconds of this process over all its domains, user plus system.
   The kernel leaves out the time the hypervisor steals, so on a shared
   host this is far steadier than wall time, though a busy neighbour on
   the same core still slows it. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of another process (all its threads), from fields 14 and
   15 of /proc/PID/stat, counted in ticks of 1/100 s. *)
let proc_cpu pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  in
  (* The command name may hold spaces; the fields after it do not. *)
  let start = String.rindex line ')' + 2 in
  let f =
    Array.of_list (String.split_on_char ' ' (String.sub line start (String.length line - start)))
  in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* CPU seconds of another process's live threads, to the nanosecond,
   from /proc/PID/task/*/schedstat.  Threads that have ended are left
   out, so this suits a process that has only just started. *)
let proc_cpu_live pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text
          (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | line -> acc +. (float_of_string (List.hd (String.split_on_char ' ' line)) /. 1e9)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Nearest-rank percentile; a failed operation enters as [infinity], so it
   sits above every percentile the successes could give. *)
let percentile p xs =
  match xs with
  | [] -> infinity
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile 50. xs

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of a process, from the kernel's high-water mark. *)
let peak_mem_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Metrics registry snapshots, flattened to [name -> value]: counters
   under their own name, histograms as [name.count] and [name.sum]. *)

type snapshot = (string, float) Hashtbl.t

let flatten (snap : Json.t) : snapshot =
  let tbl = Hashtbl.create 64 in
  let section name f =
    match Json.member name snap with
    | Some (Json.Obj kvs) -> List.iter (fun (k, v) -> f k v) kvs
    | _ -> ()
  in
  section "counters" (fun k v ->
      Option.iter (Hashtbl.replace tbl k) (Json.to_float v));
  section "histograms" (fun k v ->
      let field f =
        Option.iter (Hashtbl.replace tbl (k ^ "." ^ f))
          (Option.bind (Json.member f v) Json.to_float)
      in
      field "count";
      field "sum");
  tbl

let get (s : snapshot) name = Option.value (Hashtbl.find_opt s name) ~default:0.

(* [delta ~before ~after] as a snapshot; [sum] adds snapshots. *)
let delta ~before ~after : snapshot =
  let tbl = Hashtbl.copy after in
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (get tbl k -. v)) before;
  tbl

let sum (a : snapshot) (b : snapshot) : snapshot =
  let tbl = Hashtbl.copy a in
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (get tbl k +. v)) b;
  tbl

(* The per-layer figures that come from the library's own registry; the
   closed-form ones are in {!closed_form_layers}. *)
let registry_layers (d : snapshot) =
  let hit_ratio prefix =
    let h = get d (prefix ^ ".hit") and m = get d (prefix ^ ".miss") in
    ratio h (h +. m)
  in
  [
    ("ga.generations", get d "ga.generations", "count");
    ("ga.evaluations", get d "ga.evaluations", "count");
    ("cme.engines_created", get d "cme.engines.created", "count");
    ( "cme.classify",
      get d "cme.classify.hit" +. get d "cme.classify.compulsory"
      +. get d "cme.classify.replacement",
      "count" );
    ("cme.fallbacks", get d "cme.fallbacks", "count");
    ("cme.residues_shared_hit_ratio", hit_ratio "cme.residues.shared", "ratio");
    ("cme.residues_memo_hit_ratio", hit_ratio "cme.residues.memo", "ratio");
    ("pool.tasks", get d "pool.tasks", "count");
    ("pool.chunks", get d "pool.chunks", "count");
    ("pool.busy_s", get d "pool.worker.busy_ns.sum" /. 1e9, "s");
  ]

let closed_form_layers (d : snapshot) =
  [
    ("closed_form.rows", get d "symbolic.rows", "count");
    ("closed_form.rows_probed", get d "symbolic.rows.probed", "count");
    ("closed_form.rows_extrapolated", get d "symbolic.rows.extrapolated", "count");
    ("closed_form.points_classified", get d "symbolic.points.classified", "count");
    ("symbolic.fallbacks", get d "symbolic.fallbacks", "count");
  ]

(* Total duration of the named spans in a span tree (as returned by
   {!Tiling_obs.Span.finish_trace} or on the daemon wire), in µs. *)
let rec span_us names (tree : Json.t) =
  let children =
    match Json.member "spans" tree with
    | Some (Json.List l) -> l
    | _ -> (
        match Json.member "children" tree with Some (Json.List l) -> l | _ -> [])
  in
  let own =
    match (Json.member "name" tree, Json.member "dur_us" tree) with
    | Some (Json.String n), Some d when List.mem n names ->
        Option.value (Json.to_float d) ~default:0.
    | _ -> 0.
  in
  List.fold_left (fun acc c -> acc +. span_us names c) own children

(* ------------------------------------------------------------------ *)
(* Answer checks.  The simulator is ground truth: a tiling is judged by
   the replacement misses it really suffers. *)

let cache = Tiling_cache.Config.dm8k

let replacement_misses nest =
  let r = Tiling_trace.Run.simulate nest cache in
  (Tiling_cache.Sim.replacement r.total, Tiling_cache.Sim.replacement_ratio r.total)

(* Untiled references, simulated once per kernel and size. *)
let untiled_refs : (string * int, int) Hashtbl.t = Hashtbl.create 8

let untiled_repl (spec : Tiling_kernels.Kernels.spec) n =
  match Hashtbl.find_opt untiled_refs (spec.name, n) with
  | Some r -> r
  | None ->
      let r, _ = replacement_misses (spec.build n) in
      Hashtbl.replace untiled_refs (spec.name, n) r;
      r

let tiles_in_bounds nest tiles =
  let uppers = Tiling_ir.Transform.tile_spans nest in
  Array.length tiles = Array.length uppers
  && Array.for_all2 (fun t u -> t >= 1 && t <= u) tiles uppers

type quality = { repl_ratio : float; err_pp : float }

(* [judge spec n tiles ~reported] simulates the chosen tiling and returns
   the headline ratio against the untiled nest and the distance between
   the reported and the simulated replacement ratio. *)
let tiled_sims : (string * int * int array, int * float) Hashtbl.t = Hashtbl.create 16

let judge (spec : Tiling_kernels.Kernels.spec) n tiles ~reported =
  let tiled, sim_ratio =
    match Hashtbl.find_opt tiled_sims (spec.name, n, tiles) with
    | Some r -> r
    | None ->
        let r = replacement_misses (Tiling_ir.Transform.tile (spec.build n) tiles) in
        Hashtbl.replace tiled_sims (spec.name, n, tiles) r;
        r
  in
  {
    repl_ratio =
      float_of_int (tiled + 1) /. float_of_int (untiled_repl spec n + 1);
    err_pp = 100. *. Float.abs (reported -. sim_ratio);
  }

(* The headline quality figure: the geometric mean per kernel of each
   answer's repl_ratio, then across kernels, so each kernel weighs the
   same however many seeds it was searched with. *)
let answer_ratio (answers : (string * quality) list) =
  List.sort_uniq compare (List.map fst answers)
  |> List.map (fun k ->
         geomean
           (List.filter_map
              (fun (k', q) -> if k = k' then Some q.repl_ratio else None)
              answers))
  |> geomean

(* ------------------------------------------------------------------ *)
(* The record a workload hands back to run.py. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable e2e : (string * float * string * int) list;
      (** name, value, unit, sample count *)
  mutable layers : (string * float * string) list;
  mutable main_timing : float;
}

let tally () =
  { attempted = 0; failed = 0; errors = []; e2e = []; layers = []; main_timing = nan }

let lock = Mutex.create ()

let attempt r = Mutex.protect lock (fun () -> r.attempted <- r.attempted + 1)

let fail r msg =
  Mutex.protect lock (fun () ->
      r.failed <- r.failed + 1;
      if List.length r.errors < 20 then r.errors <- msg :: r.errors)

let e2e r name value unit samples = r.e2e <- r.e2e @ [ (name, value, unit, samples) ]
let layer r name value unit = r.layers <- r.layers @ [ (name, value, unit) ]

let finite x = if Float.is_finite x then Json.Float x else Json.Null

let to_json r =
  Json.Obj
    [
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("errors", Json.List (List.rev_map (fun e -> Json.String e) r.errors));
      ( "e2e",
        Json.Obj
          (List.map
             (fun (n, v, u, k) ->
               (n, Json.Obj [ ("value", finite v); ("unit", Json.String u); ("samples", Json.Int k) ]))
             r.e2e) );
      ( "layers",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", finite v); ("unit", Json.String u) ]))
             r.layers) );
      ("main_timing", finite r.main_timing);
      ("ocaml_version", Json.String Sys.ocaml_version);
    ]
