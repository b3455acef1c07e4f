type t = { size : int; line : int; assoc : int; sets : int }

let make ~size ~line ?(assoc = 1) () =
  if not (Tiling_util.Intmath.is_pow2 size) then invalid_arg "cache size must be a power of two";
  if not (Tiling_util.Intmath.is_pow2 line) then invalid_arg "line size must be a power of two";
  if line > size then invalid_arg "line larger than cache";
  if assoc < 1 then invalid_arg "associativity must be >= 1";
  if size mod (line * assoc) <> 0 then invalid_arg "size not divisible by line * assoc";
  { size; line; assoc; sets = size / (line * assoc) }

let dm8k = make ~size:8192 ~line:32 ()
let dm32k = make ~size:32768 ~line:32 ()

let line_of t addr = Tiling_util.Intmath.floor_div addr t.line
let set_of_line t l = Tiling_util.Intmath.pos_mod l t.sets
let set_of t addr = set_of_line t (line_of t addr)

let pp ppf t =
  Fmt.pf ppf "%dKB %s, %dB lines"
    (t.size / 1024)
    (if t.assoc = 1 then "direct-mapped" else Printf.sprintf "%d-way" t.assoc)
    t.line
