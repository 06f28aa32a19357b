(* Set-associative cache timing model with LRU replacement.

   The model tracks tags only: data always lives in the functional memory;
   the cache answers "hit or miss" and evictions.  Addresses are in words;
   the line size groups adjacent words.

   Line state is stored flat, one slot per (set, way) at
   [set * assoc + way]: tag and LRU stamp in int arrays, the valid and
   dirty bits in a byte array.  A default 8 MB L2 then costs three
   unboxed arrays instead of 131072 line records, and [access] walks a
   set without allocating. *)

let valid_bit = 1
let dirty_bit = 2

type t = {
  cfg : Mach_config.cache_config;
  assoc : int;
  tags : int array;      (* line address (addr / line_words) *)
  lru : int array;       (* larger = more recently used *)
  flags : Bytes.t;       (* valid_bit lor dirty_bit *)
  n_sets : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create (cfg : Mach_config.cache_config) =
  let n_sets = max 1 (cfg.size_words / (cfg.assoc * cfg.line_words)) in
  let slots = n_sets * cfg.assoc in
  {
    cfg;
    assoc = cfg.assoc;
    tags = Array.make slots (-1);
    lru = Array.make slots 0;
    flags = Bytes.make slots '\000';
    n_sets;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let line_of t addr = addr / t.cfg.line_words
let set_of t laddr = laddr mod t.n_sets

let flag t i = Char.code (Bytes.get t.flags i)
let set_flag t i f = Bytes.set t.flags i (Char.unsafe_chr f)
let valid t i = flag t i land valid_bit <> 0

type outcome =
  | Hit
  | Miss of { evicted_dirty_line : int option } (* line address written back *)

let miss_clean = Miss { evicted_dirty_line = None }

(* Slot in [first, stop) holding line [laddr], or -1. *)
let rec find_slot t laddr i stop =
  if i >= stop then -1
  else if valid t i && t.tags.(i) = laddr then i
  else find_slot t laddr (i + 1) stop

(* Victim slot: the last invalid way if any, else the least recently used
   one (first on ties). *)
let rec victim_slot t best i stop =
  if i >= stop then best
  else
    let best =
      if not (valid t i) then i
      else if valid t best && t.lru.(i) < t.lru.(best) then i
      else best
    in
    victim_slot t best (i + 1) stop

(* Access a word; allocate on miss.  Runs on every simulated memory
   access, so it allocates nothing but a dirty eviction's outcome. *)
let access t ~(write : bool) (addr : int) : outcome =
  t.clock <- t.clock + 1;
  let laddr = line_of t addr in
  let first = set_of t laddr * t.assoc in
  let stop = first + t.assoc in
  let i = find_slot t laddr first stop in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    t.lru.(i) <- t.clock;
    if write then set_flag t i (flag t i lor dirty_bit);
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* choose victim: invalid first, else LRU *)
    let v = victim_slot t first first stop in
    let f = flag t v in
    let outcome =
      if f = valid_bit lor dirty_bit then
        Miss { evicted_dirty_line = Some t.tags.(v) }
      else miss_clean
    in
    if f land valid_bit <> 0 then t.evictions <- t.evictions + 1;
    t.tags.(v) <- laddr;
    set_flag t v (if write then valid_bit lor dirty_bit else valid_bit);
    t.lru.(v) <- t.clock;
    outcome
  end

(* Probe without side effects. *)
let contains t addr =
  let laddr = line_of t addr in
  let first = set_of t laddr * t.assoc in
  find_slot t laddr first (first + t.assoc) >= 0

let invalidate t addr =
  let laddr = line_of t addr in
  let first = set_of t laddr * t.assoc in
  for i = first to first + t.assoc - 1 do
    if valid t i && t.tags.(i) = laddr then
      set_flag t i (flag t i land lnot valid_bit)
  done

let flush_all t =
  for i = 0 to Bytes.length t.flags - 1 do
    set_flag t i (flag t i land lnot valid_bit)
  done

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
