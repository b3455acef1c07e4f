type ref_delta = {
  ref_id : int;
  cme : int * int * int;
  sim : int * int * int;
}

type verdict =
  | Agree
  | Mismatch of ref_delta list
  | Inconclusive of ref_delta list

type result = {
  verdict : verdict;
  fallbacks : int;
  points : int;
  accesses : int;
}

let check nest cache =
  Tiling_obs.Span.with_ "fuzz.oracle.check"
    ~attrs:[ ("nest", Tiling_obs.Json.String nest.Tiling_ir.Nest.name) ]
    (fun () ->
      let est = Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache) in
      let sim = Tiling_trace.Run.simulate nest cache in
      let deltas = ref [] in
      Array.iteri
        (fun i (c : Tiling_cme.Estimator.ref_counts) ->
          let s = sim.Tiling_trace.Run.per_ref.(i) in
          let cme =
            ( c.Tiling_cme.Estimator.r_accesses,
              c.Tiling_cme.Estimator.r_misses,
              c.Tiling_cme.Estimator.r_compulsory )
          in
          let sm =
            ( s.Tiling_cache.Sim.accesses,
              s.Tiling_cache.Sim.misses,
              s.Tiling_cache.Sim.compulsory )
          in
          if cme <> sm then deltas := { ref_id = i; cme; sim = sm } :: !deltas)
        est.Tiling_cme.Estimator.per_ref;
      let fallbacks = est.Tiling_cme.Estimator.fallbacks in
      let verdict =
        match List.rev !deltas with
        | [] -> Agree
        | ds -> if fallbacks > 0 then Inconclusive ds else Mismatch ds
      in
      {
        verdict;
        fallbacks;
        points = est.Tiling_cme.Estimator.points;
        accesses = est.Tiling_cme.Estimator.accesses;
      })

let check_case case = check (Case.nest case) (Case.cache case)

let pp_delta ppf d =
  let pr (a, m, c) = Printf.sprintf "acc=%d miss=%d comp=%d" a m c in
  Fmt.pf ppf "ref %d: cme{%s} sim{%s}" d.ref_id (pr d.cme) (pr d.sim)

let pp_result ppf r =
  match r.verdict with
  | Agree ->
      Fmt.pf ppf "agree (%d points, %d accesses, %d fallbacks)" r.points
        r.accesses r.fallbacks
  | Mismatch ds ->
      Fmt.pf ppf "MISMATCH (%d points, fallback-free):@.%a" r.points
        Fmt.(list ~sep:(any "@.") pp_delta)
        ds
  | Inconclusive ds ->
      Fmt.pf ppf "inconclusive (%d fallbacks):@.%a" r.fallbacks
        Fmt.(list ~sep:(any "@.") pp_delta)
        ds
