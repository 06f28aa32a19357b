(* Per-node cache array.

   Set-associative with LRU replacement and a one-word line (Section 5.1:
   "the line size of this cache array is kept at one machine word",
   guaranteeing no false sharing).  A configurable multi-word line is also
   supported for the false-sharing ablation bench.  An unbounded variant
   backs the "unlimited resources" configurations of Figure 11d. *)

type entry = {
  mutable tag : int;      (* line address *)
  mutable values : int array; (* one slot per word in the line *)
  mutable valid : bool;
  mutable lru : int;
}

type t =
  | Bounded of {
      sets : entry array array;
      n_sets : int;
      line_words : int;
      mutable clock : int;
      mutable hits : int;
      mutable misses : int;
      mutable evictions : int;
    }
  | Unbounded of {
      tbl : (int, int) Hashtbl.t;
      mutable hits : int;
      mutable misses : int;
    }

let create ?(line_words = 1) ~size_words ~assoc () =
  if size_words = max_int then
    Unbounded { tbl = Hashtbl.create 1024; hits = 0; misses = 0 }
  else
    let n_sets = max 1 (size_words / (assoc * line_words)) in
    Bounded
      {
        sets =
          Array.init n_sets (fun _ ->
              Array.init assoc (fun _ ->
                  {
                    tag = -1;
                    values = Array.make line_words 0;
                    valid = false;
                    lru = 0;
                  }));
        n_sets;
        line_words;
        clock = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
      }

(* Way of [set] holding line [tag], or -1.  This and [victim_way] are
   closure-free: every ring hop inserts into a node array. *)
let rec find_way set tag w =
  if w >= Array.length set then -1
  else
    let e = set.(w) in
    if e.valid && e.tag = tag then w else find_way set tag (w + 1)

(* The last invalid way if any, else the least recently used one (first
   on ties). *)
let rec victim_way set best w =
  if w >= Array.length set then best
  else
    let e = set.(w) and b = set.(best) in
    let best =
      if not e.valid then w else if b.valid && e.lru < b.lru then w else best
    in
    victim_way set best (w + 1)

(* [lookup t addr] returns the cached value if present. *)
let lookup t addr =
  match t with
  | Unbounded u -> begin
      match Hashtbl.find_opt u.tbl addr with
      | Some v ->
          u.hits <- u.hits + 1;
          Some v
      | None ->
          u.misses <- u.misses + 1;
          None
    end
  | Bounded b ->
      let tag = addr / b.line_words in
      let set = b.sets.(tag mod b.n_sets) in
      let w = find_way set tag 0 in
      if w >= 0 then begin
        let e = set.(w) in
        b.hits <- b.hits + 1;
        b.clock <- b.clock + 1;
        e.lru <- b.clock;
        Some e.values.(addr mod b.line_words)
      end
      else begin
        b.misses <- b.misses + 1;
        None
      end

(* [insert t addr value] writes a word, allocating its line; returns the
   evicted line [(line_addr, values)] if a valid line was displaced. *)
let insert t addr value =
  match t with
  | Unbounded u ->
      Hashtbl.replace u.tbl addr value;
      None
  | Bounded b ->
      let tag = addr / b.line_words in
      let set = b.sets.(tag mod b.n_sets) in
      let w = find_way set tag 0 in
      b.clock <- b.clock + 1;
      if w >= 0 then begin
        let e = set.(w) in
        e.values.(addr mod b.line_words) <- value;
        e.lru <- b.clock;
        None
      end
      else begin
        let v = set.(victim_way set 0 0) in
        let evicted =
          if v.valid then begin
            b.evictions <- b.evictions + 1;
            Some (v.tag * b.line_words, Array.copy v.values)
          end
          else None
        in
        v.tag <- tag;
        Array.fill v.values 0 (Array.length v.values) 0;
        v.values.(addr mod b.line_words) <- value;
        v.valid <- true;
        v.lru <- b.clock;
        evicted
      end

let invalidate t addr =
  match t with
  | Unbounded u -> Hashtbl.remove u.tbl addr
  | Bounded b ->
      let tag = addr / b.line_words in
      Array.iter
        (fun e -> if e.valid && e.tag = tag then e.valid <- false)
        b.sets.(tag mod b.n_sets)

let clear t =
  match t with
  | Unbounded u -> Hashtbl.reset u.tbl
  | Bounded b ->
      Array.iter (fun set -> Array.iter (fun e -> e.valid <- false) set) b.sets

let hits t = match t with Unbounded u -> u.hits | Bounded b -> b.hits
let misses t = match t with Unbounded u -> u.misses | Bounded b -> b.misses

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)
