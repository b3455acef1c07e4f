open Tiling_kernels

let m_steps = Tiling_obs.Metrics.counter "fuzz.shrink.steps"

let still_fails case =
  match (Oracle.check_case case).Oracle.verdict with
  | Oracle.Mismatch _ -> true
  | Oracle.Agree | Oracle.Inconclusive _ -> false

(* Candidate reductions of one case, most aggressive first.  Geometry
   halving keeps the array alignment glued to the line size so the reduced
   case stays inside the fuzzer's domain (arrays never share a line). *)
let candidates (c : Case.t) =
  let s = c.spec in
  let with_spec spec = { c with Case.spec } in
  let out = ref [] in
  let add cand = out := cand :: !out in
  (* Geometry: halve sets, associativity, line (line floor 8 keeps one
     8-byte element per line at most). *)
  if c.line > 8 then begin
    let line = c.line / 2 in
    add
      {
        c with
        Case.line;
        spec = { s with Random_kernel.align = min s.Random_kernel.align line };
      }
  end;
  if c.assoc > 1 then add { c with Case.assoc = c.assoc / 2 };
  if c.sets > 1 then add { c with Case.sets = c.sets / 2 };
  (* Drop references and arrays. *)
  let nrefs = s.Random_kernel.nrefs in
  if nrefs > 2 then add (with_spec { s with Random_kernel.nrefs = nrefs / 2 });
  if nrefs > 1 then add (with_spec { s with Random_kernel.nrefs = nrefs - 1 });
  let narrays = s.Random_kernel.narrays in
  if narrays > 1 then
    add (with_spec { s with Random_kernel.narrays = narrays - 1 });
  (* Drop the innermost loop dimension. *)
  let depth = s.Random_kernel.depth in
  if depth > 1 then begin
    let chop a = Array.sub a 0 (depth - 1) in
    add
      (with_spec
         {
           s with
           Random_kernel.depth = depth - 1;
           extents = chop s.Random_kernel.extents;
           steps = chop s.Random_kernel.steps;
         })
  end;
  (* Shrink extents (halve, then decrement) and flatten steps. *)
  Array.iteri
    (fun d e ->
      let set v =
        let extents = Array.copy s.Random_kernel.extents in
        extents.(d) <- v;
        add (with_spec { s with Random_kernel.extents })
      in
      if e > 3 then set (e / 2);
      if e > 1 then set (e - 1))
    s.Random_kernel.extents;
  Array.iteri
    (fun d st ->
      if st > 1 then begin
        let steps = Array.copy s.Random_kernel.steps in
        steps.(d) <- 1;
        add (with_spec { s with Random_kernel.steps })
      end)
    s.Random_kernel.steps;
  (* Simplify subscripts and the access mix. *)
  if s.Random_kernel.max_coeff > 1 then
    add
      (with_spec
         { s with Random_kernel.max_coeff = s.Random_kernel.max_coeff - 1 });
  if s.Random_kernel.max_offset > 0 then
    add
      (with_spec
         { s with Random_kernel.max_offset = s.Random_kernel.max_offset - 1 });
  if s.Random_kernel.write_ratio <> 0. then
    add (with_spec { s with Random_kernel.write_ratio = 0. });
  (* Straighten triangular bounds back to rectangles. *)
  if s.Random_kernel.tri_ratio <> 0. then
    add (with_spec { s with Random_kernel.tri_ratio = 0. });
  List.rev !out

let minimize ?(max_checks = 400) case =
  Tiling_obs.Span.with_ "fuzz.shrink" (fun () ->
      let checks = ref 0 in
      let run c =
        incr checks;
        Tiling_obs.Metrics.incr m_steps;
        still_fails c
      in
      if not (run case) then (case, !checks)
      else begin
        let current = ref case in
        let progress = ref true in
        while !progress && !checks < max_checks do
          progress := false;
          let rec try_cands = function
            | [] -> ()
            | cand :: rest ->
                if !checks >= max_checks then ()
                else if run cand then begin
                  current := cand;
                  progress := true
                end
                else try_cands rest
          in
          try_cands (candidates !current)
        done;
        (!current, !checks)
      end)
