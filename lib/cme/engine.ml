open Tiling_ir
open Tiling_util

let log_src = Logs.Src.create "tiling.cme" ~doc:"CME point solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Tiling_obs.Metrics

let m_hit = Metrics.counter "cme.classify.hit"
let m_replacement = Metrics.counter "cme.classify.replacement"
let m_compulsory = Metrics.counter "cme.classify.compulsory"
let m_fallbacks = Metrics.counter "cme.fallbacks"
let m_memo_hit = Metrics.counter "cme.residues.memo.hit"
let m_memo_miss = Metrics.counter "cme.residues.memo.miss"
let m_engines = Metrics.counter "cme.engines.created"

(* ------------------------------------------------------------------ *)
(* Cross-engine residue cache.

   Residue images are keyed by canonical generator signatures, and those
   signatures recur massively across the hundreds of engines a GA run
   creates: the modulus is fixed by the cache configuration, and nearby
   tile vectors produce overlapping generator sets.  Each engine keeps its
   private (lock-free) table as an L1, but misses consult this shared,
   sharded, bounded cache before recomputing.  Entries are immutable
   [Residue_set.t] values, so sharing them across domains is safe; the
   shards are mutex-protected and evict in FIFO insertion order, which
   keeps long fuzz runs (thousands of distinct moduli and signatures) from
   growing without bound.  Eviction only ever costs a recompute. *)

module Shared_residues = struct
  type key = int * (int * int) list (* modulus, canonical generators *)

  type shard = {
    lock : Mutex.t;
    table : (key, Residue_set.t) Hashtbl.t;
    order : key Queue.t; (* insertion order, for FIFO eviction *)
  }

  let shard_count = 16 (* power of two; low-bit mask below *)
  let default_capacity = 4096
  let capacity = Atomic.make default_capacity

  let shards =
    Array.init shard_count (fun _ ->
        {
          lock = Mutex.create ();
          table = Hashtbl.create 64;
          order = Queue.create ();
        })

  let m_hit = Metrics.counter "cme.residues.shared.hit"
  let m_miss = Metrics.counter "cme.residues.shared.miss"
  let m_evict = Metrics.counter "cme.residues.shared.evictions"

  let shard_of key = shards.(Hashtbl.hash key land (shard_count - 1))

  let per_shard_cap () = max 1 (Atomic.get capacity / shard_count)

  let find key =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some _ as r ->
            Metrics.incr m_hit;
            r
        | None ->
            Metrics.incr m_miss;
            None)

  let evict_to s cap =
    while Hashtbl.length s.table > cap do
      let victim = Queue.pop s.order in
      Hashtbl.remove s.table victim;
      Metrics.incr m_evict
    done

  let add key value =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        if not (Hashtbl.mem s.table key) then begin
          Hashtbl.replace s.table key value;
          Queue.push key s.order;
          evict_to s (per_shard_cap ())
        end)

  let set_capacity n =
    if n < 0 then invalid_arg "Shared_residues.set_capacity";
    Atomic.set capacity n;
    let cap = per_shard_cap () in
    Array.iter
      (fun s -> Mutex.protect s.lock (fun () -> evict_to s cap))
      shards

  let clear () =
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            Hashtbl.reset s.table;
            Queue.clear s.order))
      shards

  let length () =
    Array.fold_left
      (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.table))
      0 shards
end

let set_shared_residue_capacity = Shared_residues.set_capacity
let clear_shared_residues = Shared_residues.clear
let shared_residue_size = Shared_residues.length

type outcome = Hit | Compulsory_miss | Replacement_miss

type t = {
  nest : Nest.t;
  cache : Tiling_cache.Config.t;
  forms : Affine.t array;
  reuse : Tiling_reuse.Vectors.t list array;
  modulus : int;  (* sets * line: addresses congruent mod this share a set *)
  tile_pairs : (int * int * int * int) array;
      (* (elem dim, ctrl dim, lower bound, tile) for every tiled loop pair *)
  affine : bool;
      (* any affine-bounded loop: reuse sources come from the exact
         latest-source search; rectangular nests keep the vector path *)
  memo : ((int * int) list, Residue_set.t) Hashtbl.t;
  window_cap : int;
  mutable fallbacks : int;
}

let tile_pairs_of nest =
  let pairs = ref [] in
  Array.iteri
    (fun e (loop : Nest.loop) ->
      match loop.Nest.shape with
      | Nest.Tile_elem { ctrl; tile; _ } | Nest.Tile_elem_affine { ctrl; tile; _ }
        ->
          (match nest.Nest.loops.(ctrl).Nest.shape with
          | Nest.Tile_ctrl { lo; _ } -> pairs := (e, ctrl, lo, tile) :: !pairs
          | _ -> assert false)
      | Nest.Range _ | Nest.Range_affine _ | Nest.Tile_ctrl _ -> ())
    nest.Nest.loops;
  Array.of_list !pairs

let create ?(window_cap = 512) nest cache =
  Tiling_obs.Span.with_ "cme.engine.create"
    ~attrs:
      [
        ("nest", Tiling_obs.Json.String nest.Nest.name);
        ("refs", Tiling_obs.Json.Int (Array.length nest.Nest.refs));
      ]
    (fun () ->
      Metrics.incr m_engines;
      let line = cache.Tiling_cache.Config.line in
      {
        nest;
        cache;
        forms = Array.map (fun r -> Nest.address_form nest r) nest.Nest.refs;
        reuse = Tiling_reuse.Vectors.of_nest nest ~line;
        modulus = cache.Tiling_cache.Config.sets * line;
        tile_pairs = tile_pairs_of nest;
        affine = Nest.has_affine nest;
        memo = Hashtbl.create 256;
        window_cap;
        fallbacks = 0;
      })

let nest t = t.nest
let cache t = t.cache
let reuse_vectors t = t.reuse
let fallback_count t = t.fallbacks
let memo_size t = Hashtbl.length t.memo

(* ------------------------------------------------------------------ *)
(* Residue images, memoised by generator signature.                    *)

let canonical_gens t gens =
  let m = t.modulus in
  let norm =
    List.filter_map
      (fun (step, count) ->
        let s = Intmath.pos_mod step m in
        if s = 0 then None
        else
          let period = m / Intmath.gcd s m in
          Some (s, min count period))
      gens
  in
  List.sort compare norm

let residues t gens =
  let key = canonical_gens t gens in
  match Hashtbl.find_opt t.memo key with
  | Some r ->
      Metrics.incr m_memo_hit;
      r
  | None ->
      Metrics.incr m_memo_miss;
      let skey = (t.modulus, key) in
      let r =
        match Shared_residues.find skey with
        | Some r -> r
        | None ->
            let r =
              List.fold_left
                (fun acc (step, count) ->
                  Residue_set.sum_progression acc ~step ~count)
                (Residue_set.singleton t.modulus 0)
                key
            in
            Shared_residues.add skey r;
            r
      in
      Hashtbl.replace t.memo key r;
      r

(* ------------------------------------------------------------------ *)
(* Denseness analysis: when the image of the generators is every value
   congruent to the constant modulo [g] within [min, max], window queries
   are O(1).  Sufficient conditions, adding a step-[s] count-[count]
   progression to a set dense modulo [g] over a span: with [g' =
   gcd(g, s)] and [period = g / g'], the translates' residue classes
   modulo [g] repeat with [period], so (a) at least [period] translates
   are needed to reach every class at all ([count >= period] — e.g.
   {48 x 3} + {112 x 2} refines the gcd to 16 on paper yet only reaches
   residues {0, 16} mod 48), and (b) same-class translates sit
   [period * s] apart, so their spans must chain contiguously
   ([period * s <= span + g] — e.g. {216 x 5} + {936 x 4} covers every
   class but each one only inside its own disjoint window).  Rejecting a
   dense set costs only the exact fallback query, never correctness.    *)

let dense_and_gcd gens =
  let sorted = List.sort (fun (a, _) (b, _) -> compare (abs a) (abs b)) gens in
  List.fold_left
    (fun (dense, g, span) (step, count) ->
      let s = abs step in
      let g' = Intmath.gcd g s in
      let ok =
        g = 0
        ||
        let period = g / g' in
        count >= period && period * s <= span + g
      in
      ((dense && ok), g', span + (s * (count - 1))))
    (true, 0, 0) sorted

(* Does a value congruent to [c] modulo [g] exist in [a, b]?  [g = 0]
   degenerates to the single value [c]. *)
let lattice_hits ~c ~g a b =
  if b < a then false
  else if g = 0 then a <= c && c <= b
  else Intmath.multiples_in ~lo:(a - c) ~hi:(b - c) g > 0

(* Exact query: does the image of [const + generators] intersect [a, b]?
   [fuel] bounds the recursion; on exhaustion we answer with the dense
   approximation (and the caller counts a fallback via the return flag). *)
let rec hits_interval ~fuel const gens a b =
  let mn, mx = Box.value_range const gens in
  if mx < a || mn > b then (false, true)
  else if mn >= a && mx <= b then (true, true)
  else
    let dense, g, _ = dense_and_gcd gens in
    if dense then (lattice_hits ~c:const ~g (max a mn) (min b mx), true)
    else if !fuel <= 0 then (lattice_hits ~c:const ~g (max a mn) (min b mx), false)
    else begin
      decr fuel;
      (* Branch on the coarsest generator; only the steps whose translate of
         the remaining sub-image can reach [a, b] are explored. *)
      let (step, count), rest =
        match
          List.stable_sort (fun (x, _) (y, _) -> compare (abs y) (abs x)) gens
        with
        | [] -> assert false
        | hd :: tl -> (hd, tl)
      in
      let rmn, rmx = Box.value_range const rest in
      (* Need step * k in [a - rmx, b - rmn]. *)
      let lo_n = a - rmx and hi_n = b - rmn in
      let k_lo, k_hi =
        if step > 0 then (Intmath.ceil_div lo_n step, Intmath.floor_div hi_n step)
        else (Intmath.ceil_div hi_n step, Intmath.floor_div lo_n step)
      in
      let k_lo = max k_lo 0 and k_hi = min k_hi (count - 1) in
      let result = ref false and exact = ref true in
      let k = ref k_lo in
      while (not !result) && !k <= k_hi do
        let hit, ex = hits_interval ~fuel (const + (step * !k)) rest a b in
        if hit then result := true;
        if not ex then exact := false;
        incr k
      done;
      (!result, !result || !exact)
    end

(* ------------------------------------------------------------------ *)
(* Interference counting.                                               *)

(* A segment is the image of one reference over one path box (or a single
   endpoint access): a constant plus generators. *)
type segment = { const : int; gens : (int * int) list }

(* Count distinct memory lines, different from [line_a], mapping to cache
   set [set], touched by the segments; counting stops at [cap].  Lines in
   set [set] are exactly [set + m * sets] for integer [m]; a value [v]
   belongs to that line's window iff [v in [set*L + m*M, set*L + m*M + L)]
   with [M = sets * L]. *)
let count_interfering t ~set ~line_a ~cap segments =
  let cfg = t.cache in
  let l_bytes = cfg.Tiling_cache.Config.line in
  let sets = cfg.Tiling_cache.Config.sets in
  let m_big = t.modulus in
  let m0 = (line_a - set) / sets in (* line_a's own window index *)
  let found : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let base = set * l_bytes in
  let consider seg =
    if Hashtbl.length found >= cap then ()
    else begin
      match seg.gens with
      | [] ->
          (* Single access. *)
          let v = seg.const in
          if Intmath.pos_mod (v - base) m_big < l_bytes then begin
            let m = Intmath.floor_div (v - base) m_big in
            if m <> m0 then Hashtbl.replace found m ()
          end
      | gens ->
          let rs = residues t gens in
          (* The image residues are those of the generators shifted by
             const; probe the set window accordingly. *)
          if Residue_set.hits_window rs ~lo:(base - seg.const) ~len:l_bytes then begin
            let mn, mx = Box.value_range seg.const gens in
            let m_lo = Intmath.floor_div (mn - base) m_big in
            let m_hi = Intmath.floor_div (mx - base) m_big in
            let dense, g, _ = dense_and_gcd gens in
            if dense then begin
              (* O(1) per window. *)
              let m = ref m_lo in
              while Hashtbl.length found < cap && !m <= m_hi do
                if !m <> m0 then begin
                  let a = base + (!m * m_big) and b = base + (!m * m_big) + l_bytes - 1 in
                  if lattice_hits ~c:seg.const ~g (max a mn) (min b mx) then
                    Hashtbl.replace found !m ()
                end;
                incr m
              done
            end
            else if m_hi - m_lo + 1 > t.window_cap then begin
              (* Too many windows for exact enumeration of a non-dense
                 image: conservatively saturate. *)
              t.fallbacks <- t.fallbacks + 1;
              Metrics.incr m_fallbacks;
              if t.fallbacks = 1 then
                Log.debug (fun m ->
                    m "window enumeration saturated (%d windows > cap %d); \
                       counting conservatively"
                      (m_hi - m_lo + 1) t.window_cap);
              for m = m_lo to m_lo + cap do
                if m <> m0 then Hashtbl.replace found m ()
              done
            end
            else begin
              let fuel = ref 4096 in
              let m = ref m_lo in
              while Hashtbl.length found < cap && !m <= m_hi do
                if !m <> m0 then begin
                  let a = base + (!m * m_big) in
                  let hit, exact = hits_interval ~fuel seg.const gens a (a + l_bytes - 1) in
                  if not exact then begin
                    t.fallbacks <- t.fallbacks + 1;
                    Metrics.incr m_fallbacks
                  end;
                  if hit then Hashtbl.replace found !m ()
                end;
                incr m
              done
            end
          end
    end
  in
  List.iter consider segments;
  Hashtbl.length found

(* ------------------------------------------------------------------ *)
(* Path segments for one reuse edge.                                    *)

let segments_for_path t ~src ~src_ref ~dst ~dst_ref =
  let nrefs = Array.length t.forms in
  let boxes = Path.between t.nest ~src ~dst in
  let segs = ref [] in
  (* All references over the strictly-between boxes. *)
  List.iter
    (fun box ->
      for b = 0 to nrefs - 1 do
        let const, gens = Box.eval_form t.forms.(b) box in
        segs := { const; gens } :: !segs
      done)
    boxes;
  (* References after [src_ref] at the source point. *)
  let same_point = Nest.lex_compare src dst = 0 in
  let upto = if same_point then dst_ref else nrefs in
  for b = src_ref + 1 to upto - 1 do
    segs := { const = Affine.eval t.forms.(b) src; gens = [] } :: !segs
  done;
  (* References before [dst_ref] at the destination point. *)
  if not same_point then
    for b = 0 to dst_ref - 1 do
      segs := { const = Affine.eval t.forms.(b) dst; gens = [] } :: !segs
    done;
  !segs

(* ------------------------------------------------------------------ *)
(* Source normalisation.  A reuse vector only hints at *a* previous access
   of the line; the realised reuse is from the *latest* one, which shortens
   the interference path.  Starting from [src = point - delta] (already
   checked to be in space and on the same line), we push the source as late
   as possible without leaving the line or overtaking the destination:

   - loop variables the source reference's address does not depend on are
     raised to their upper bound (a tile-control variable whose element
     variable is address-relevant is instead pinned to the element's tile);
   - the innermost variable with a sub-line stride slides forward within
     the memory line.

   Only dimensions after the vector's leading component move, so the
   source stays lexicographically before the destination. *)

let normalise_source t ~src_form ~line_a src ~dest ~first_nz =
  let nest = t.nest in
  let d = Nest.depth nest in
  let l_bytes = t.cache.Tiling_cache.Config.line in
  let coeff q = Affine.coeff src_form q in
  for q = first_nz + 1 to d - 1 do
    if coeff q = 0 then begin
      match nest.Nest.loops.(q).shape with
      | Nest.Tile_ctrl { lo; hi = _; tile } ->
          (* Find the element dim; if its value is pinned by the address,
             the control variable must stay on that element's tile. *)
          let elem = ref (-1) in
          Array.iteri
            (fun e (loop : Nest.loop) ->
              match loop.shape with
              | Nest.Tile_elem te when te.ctrl = q -> elem := e
              | _ -> ())
            nest.Nest.loops;
          let e = !elem in
          if e >= 0 && coeff e <> 0 then
            src.(q) <- lo + ((src.(e) - lo) / tile * tile)
          else begin
            let lo', hi', step = Nest.bounds_at nest src q in
            src.(q) <- lo' + ((hi' - lo') / step * step)
          end
      | Nest.Range _ | Nest.Tile_elem _ ->
          let lo', hi', step = Nest.bounds_at nest src q in
          src.(q) <- lo' + ((hi' - lo') / step * step)
      | Nest.Range_affine _ | Nest.Tile_elem_affine _ ->
          assert false (* affine nests take the latest-source search *)
    end
  done;
  (* Slide the innermost sub-line-stride dimension within the line.  When
     that dimension is the vector's leading one, cap the slide so the source
     stays strictly before the destination. *)
  let rec find_slide q =
    if q < first_nz then None
    else
      let c = coeff q in
      if c <> 0 && abs c < l_bytes then Some (q, c) else find_slide (q - 1)
  in
  (match find_slide (d - 1) with
  | None -> ()
  | Some (q, c) ->
      let addr = Affine.eval src_form src in
      let line_end = ((line_a + 1) * l_bytes) - 1 in
      let line_start = line_a * l_bytes in
      let dv =
        if c > 0 then (line_end - addr) / c else (addr - line_start) / -c
      in
      let _, hi, step = Nest.bounds_at t.nest src q in
      let hi = if q = first_nz then min hi (dest.(q) - 1) else hi in
      (* Slide along the loop's own lattice only: whole steps forward,
         never past the loop bound nor (for the leading dimension) the
         destination — an off-lattice source would fabricate a phantom
         iteration and corrupt the interference path. *)
      let target =
        min
          (src.(q) + (dv / step * step))
          (src.(q) + (Intmath.floor_div (hi - src.(q)) step * step))
      in
      if target > src.(q) then src.(q) <- target)

(* Lexicographic (execution-order) predecessor of a point, or [None] at
   the very first iteration: decrement the deepest decrementable loop and
   reset everything deeper to its upper bound under the new prefix.  Under
   affine bounds a new prefix can leave an inner range empty; filling then
   fails and the decrement continues (backtracking outward as needed). *)
let exec_pred nest point =
  let d = Nest.depth nest in
  let p = Array.copy point in
  let fill q0 =
    let ok = ref true in
    let q = ref q0 in
    while !ok && !q < d do
      let lo, hi, step = Nest.bounds_at nest p !q in
      if hi < lo then ok := false
      else begin
        p.(!q) <- lo + ((hi - lo) / step * step);
        incr q
      end
    done;
    !ok
  in
  let rec try_dim l =
    if l < 0 then None
    else begin
      let lo, _, step = Nest.bounds_at nest p l in
      if p.(l) - step >= lo then begin
        p.(l) <- p.(l) - step;
        if fill (l + 1) then Some p else try_dim l
      end
      else try_dim (l - 1)
    end
  in
  try_dim (d - 1)

(* ------------------------------------------------------------------ *)
(* Exact latest-source search for affine nests.

   Triangular kernels reuse the same array through references that are not
   uniformly generated — LU touches [a] both as [a(i,k)] and [a(i,j)] — so
   no constant reuse vector reaches the cross-iteration source.  For affine
   nests the static vector machinery is replaced by an exact per-point
   search: candidate source points are enumerated in descending execution
   order (outermost dimension first, each walking its dynamic lattice
   downward), pruning any partial assignment whose address image cannot
   reach the destination's memory line for any reference.  The first
   complete point found carries the latest previous access to the line —
   exactly the reuse source the CMEs want.  Any previous same-line access
   makes the Hit test sound (LRU residency is measured from the access
   itself); the latest one makes it exact.

   Dimensions that influence neither any address nor any deeper bound are
   collapsed to one representative value per subtree, since all their
   values are equivalent.  The search is budgeted; exhaustion counts a
   fallback and conservatively reports no source. *)

exception Found_src of int array * int
exception Budget

let latest_source t ~dst ~line_a =
  let nest = t.nest in
  let d = Nest.depth nest in
  let l_bytes = t.cache.Tiling_cache.Config.line in
  let lo_addr = line_a * l_bytes in
  let hi_addr = lo_addr + l_bytes - 1 in
  let nrefs = Array.length t.forms in
  let slo, shi = Nest.static_bounds nest in
  let deps = Nest.affine_deps nest in
  let influences =
    (* value changes some deeper bound: affine dependence or tile window *)
    Array.init d (fun l ->
        deps.(l)
        ||
        match nest.Nest.loops.(l).Nest.shape with
        | Nest.Tile_ctrl _ -> true
        | _ -> false)
  in
  let addr_relevant =
    Array.init d (fun l -> Array.exists (fun f -> Affine.coeff f l <> 0) t.forms)
  in
  (* Extreme contribution of dims [>= l] to each form over the static hull,
     for pruning partial assignments. *)
  let rem_lo = Array.make_matrix nrefs (d + 1) 0 in
  let rem_hi = Array.make_matrix nrefs (d + 1) 0 in
  for b = 0 to nrefs - 1 do
    for l = d - 1 downto 0 do
      let c = Affine.coeff t.forms.(b) l in
      let x = c * slo.(l) and y = c * shi.(l) in
      rem_lo.(b).(l) <- rem_lo.(b).(l + 1) + min x y;
      rem_hi.(b).(l) <- rem_hi.(b).(l + 1) + max x y
    done
  done;
  let partial = Array.init nrefs (fun b -> t.forms.(b).Affine.const) in
  let feasible l =
    let ok = ref false in
    for b = 0 to nrefs - 1 do
      if
        (not !ok)
        && partial.(b) + rem_lo.(b).(l) <= hi_addr
        && partial.(b) + rem_hi.(b).(l) >= lo_addr
      then ok := true
    done;
    !ok
  in
  let src = Array.make d 0 in
  let budget = ref 200_000 in
  let rec go l tight =
    decr budget;
    if !budget <= 0 then raise Budget;
    if l = d then begin
      (* A tight leaf is [dst] itself; same-point earlier references are
         covered by the predecessor probe in [reuse_sources]. *)
      if not tight then
        for b = nrefs - 1 downto 0 do
          if partial.(b) >= lo_addr && partial.(b) <= hi_addr then
            raise (Found_src (Array.copy src, b))
        done
    end
    else begin
      let lo, hi, step = Nest.bounds_at nest src l in
      if hi >= lo then begin
        let top = lo + ((hi - lo) / step * step) in
        let start = if tight then min top dst.(l) else top in
        let collapse = (not influences.(l)) && not addr_relevant.(l) in
        let v = ref start in
        let continue_ = ref true in
        while !continue_ && !v >= lo do
          src.(l) <- !v;
          for b = 0 to nrefs - 1 do
            partial.(b) <- partial.(b) + (Affine.coeff t.forms.(b) l * !v)
          done;
          let tight' = tight && !v = dst.(l) in
          if feasible (l + 1) then go (l + 1) tight';
          for b = 0 to nrefs - 1 do
            partial.(b) <- partial.(b) - (Affine.coeff t.forms.(b) l * !v)
          done;
          (* A collapsed dimension needs at most one tight and one
             non-tight representative. *)
          if collapse && not tight' then continue_ := false else v := !v - step
        done
      end
    end
  in
  match go 0 true with
  | () -> None
  | exception Found_src (p, b) -> Some (p, b)
  | exception Budget ->
      t.fallbacks <- t.fallbacks + 1;
      Metrics.incr m_fallbacks;
      None

let reuse_sources t point ref_id =
  let cfg = t.cache in
  let l_bytes = cfg.Tiling_cache.Config.line in
  let addr = Affine.eval t.forms.(ref_id) point in
  let line_a = Intmath.floor_div addr l_bytes in
  let d = Nest.depth t.nest in
  (* Universal nearest candidates: every reference at the execution
     predecessor (and, for later references of the same iteration, at the
     point itself).  This catches same-line reuse that no static vector
     expresses, e.g. a streaming sweep whose line wraps across several
     layout dimensions at once. *)
  let pred_sources =
    let at_point p limit =
      List.filter_map
        (fun b ->
          if Intmath.floor_div (Affine.eval t.forms.(b) p) l_bytes = line_a
          then Some (Array.copy p, b)
          else None)
        (List.init limit Fun.id)
    in
    at_point point ref_id
    @ (match exec_pred t.nest point with
      | Some p -> at_point p (Array.length t.forms)
      | None -> [])
  in
  if t.affine then
    pred_sources
    @ (match latest_source t ~dst:point ~line_a with
      | Some (p, b) -> [ (p, b) ]
      | None -> [])
  else
  let src = Array.make d 0 in
  pred_sources
  @ List.filter_map
    (fun (v : Tiling_reuse.Vectors.t) ->
      for l = 0 to d - 1 do
        src.(l) <- point.(l) - v.delta.(l)
      done;
      (* Tile-control coordinates follow from the element coordinates. *)
      Array.iter
        (fun (e, ctrl, lo, tile) ->
          src.(ctrl) <- lo + (Intmath.floor_div (src.(e) - lo) tile * tile))
        t.tile_pairs;
      let zero_delta = Array.for_all (fun k -> k = 0) v.delta in
      if not (Nest.mem_point t.nest src) then None
      else if (not zero_delta) && Nest.lex_compare src point >= 0 then None
      else begin
        let src_ref = match v.leader with Some b -> b | None -> ref_id in
        let src_addr = Affine.eval t.forms.(src_ref) src in
        if Intmath.floor_div src_addr l_bytes <> line_a then None
        else begin
          let first_diff =
            let rec go l = if l = d || src.(l) <> point.(l) then l else go (l + 1) in
            go 0
          in
          if first_diff < d then
            normalise_source t ~src_form:t.forms.(src_ref) ~line_a src
              ~dest:point ~first_nz:first_diff;
          Some (Array.copy src, src_ref)
        end
      end)
    t.reuse.(ref_id)

let classify t point ref_id =
  let cfg = t.cache in
  let l_bytes = cfg.Tiling_cache.Config.line in
  let sets = cfg.Tiling_cache.Config.sets in
  let assoc = cfg.Tiling_cache.Config.assoc in
  let addr = Affine.eval t.forms.(ref_id) point in
  let line_a = Intmath.floor_div addr l_bytes in
  let set = Intmath.pos_mod line_a sets in
  let sources = reuse_sources t point ref_id in
  let outcome =
    if sources = [] then Compulsory_miss
    else if
      List.exists
        (fun (src, src_ref) ->
          let segments =
            segments_for_path t ~src ~src_ref ~dst:point ~dst_ref:ref_id
          in
          count_interfering t ~set ~line_a ~cap:assoc segments < assoc)
        sources
    then Hit
    else Replacement_miss
  in
  (match outcome with
  | Hit -> Metrics.incr m_hit
  | Compulsory_miss -> Metrics.incr m_compulsory
  | Replacement_miss -> Metrics.incr m_replacement);
  outcome
