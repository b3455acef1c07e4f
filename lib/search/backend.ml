type t = {
  name : string;
  cost :
    Tiling_cache.Config.t -> Tiling_ir.Nest.t -> points:int array array -> float;
}

let cme_sample =
  {
    name = "cme-sample";
    cost =
      (fun cache nest ~points ->
        let engine = Tiling_cme.Engine.create nest cache in
        let report = Tiling_cme.Estimator.sample_at engine points in
        float_of_int (Tiling_cme.Estimator.replacement report));
  }

let cme_exact =
  {
    name = "cme-exact";
    cost =
      (fun cache nest ~points:_ ->
        let engine = Tiling_cme.Engine.create nest cache in
        let report = Tiling_cme.Estimator.exact engine in
        float_of_int (Tiling_cme.Estimator.replacement report));
  }

let sim =
  {
    name = "sim";
    cost =
      (fun cache nest ~points:_ ->
        let report = Tiling_trace.Run.simulate nest cache in
        float_of_int (Tiling_cache.Sim.replacement report.Tiling_trace.Run.total));
  }

let symbolic = { cme_sample with name = "symbolic" }
let default = cme_sample
let all = [ cme_sample; cme_exact; sim ]
let names = List.map (fun b -> b.name) all

let of_string s =
  match List.find_opt (fun b -> String.equal b.name s) all with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected one of %s)" s
           (String.concat ", " names))
