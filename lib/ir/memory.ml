(* Flat, word-addressed memory shared by the reference interpreter and the
   cycle-stepped simulator.  Uninitialized words read as zero.

   Storage is paged: the non-negative address range up to [paged_limit]
   lives in lazily allocated int-array pages reached through a growable
   directory, so loads and stores on the simulator's hot path neither
   hash nor allocate.  Negative and far addresses fall back to a small
   table.  A zero word is indistinguishable from an absent one: a page
   cell holding 0 is "unbound", and the table never keeps a zero.

   Workloads allocate named regions statically through [Layout]; the
   region table doubles as the ground truth for allocation sites and for
   the ring cache's owner-node address hashing. *)

let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Directory capacity: addresses [0, paged_limit) are paged. *)
let max_pages = 1 lsl 18
let paged_limit = max_pages * page_words

(* The absent page ([Array.length = 0]). *)
let no_page : int array = [||]

type t = {
  mutable pages : int array array;   (* page number -> page or [no_page] *)
  far : (int, int) Hashtbl.t;        (* addresses outside the paged range *)
  mutable writes : int; (* total stores, for statistics *)
}

let create () = { pages = [||]; far = Hashtbl.create 16; writes = 0 }

let paged a = a >= 0 && a < paged_limit

let load m a =
  if paged a then begin
    let p = a lsr page_bits in
    if p < Array.length m.pages then begin
      let pg = Array.unsafe_get m.pages p in
      if Array.length pg = 0 then 0 else Array.unsafe_get pg (a land page_mask)
    end
    else 0
  end
  else match Hashtbl.find m.far a with v -> v | exception Not_found -> 0

let grow_directory m p =
  let len = Array.length m.pages in
  let len' = min max_pages (max (p + 1) (2 * len)) in
  let pages = Array.make len' no_page in
  Array.blit m.pages 0 pages 0 len;
  m.pages <- pages

let store m a v =
  m.writes <- m.writes + 1;
  if paged a then begin
    let p = a lsr page_bits in
    if p >= Array.length m.pages && v <> 0 then grow_directory m p;
    if p < Array.length m.pages then begin
      let pg = Array.unsafe_get m.pages p in
      if Array.length pg > 0 then Array.unsafe_set pg (a land page_mask) v
      else if v <> 0 then begin
        let pg = Array.make page_words 0 in
        pg.(a land page_mask) <- v;
        m.pages.(p) <- pg
      end
    end
  end
  else if v = 0 then Hashtbl.remove m.far a
  else Hashtbl.replace m.far a v

let copy_pages pages =
  Array.map (fun pg -> if Array.length pg = 0 then pg else Array.copy pg) pages

let copy m =
  { pages = copy_pages m.pages; far = Hashtbl.copy m.far; writes = m.writes }

let clear m =
  m.pages <- [||];
  Hashtbl.reset m.far;
  m.writes <- 0

(* Roll [m] back to the image captured in [from] (itself untouched).  The
   executor's fallback path checkpoints memory at parallel-loop entry and
   restores it here before re-executing the invocation sequentially. *)
let restore m ~from =
  m.pages <- copy_pages from.pages;
  Hashtbl.reset m.far;
  Hashtbl.iter (fun a v -> Hashtbl.replace m.far a v) from.far;
  m.writes <- m.writes + 1

(* [f a v] for every non-zero word, paged words in address order first. *)
let iter_nonzero f m =
  Array.iteri
    (fun p pg ->
      let base = p lsl page_bits in
      for i = 0 to Array.length pg - 1 do
        let v = Array.unsafe_get pg i in
        if v <> 0 then f (base + i) v
      done)
    m.pages;
  Hashtbl.iter f m.far

(* Content hash, independent of insertion order; used as the oracle that a
   parallel execution produced exactly the sequential memory image. *)
let hash m =
  let acc = ref 0 in
  iter_nonzero
    (fun a v -> acc := !acc lxor (Hashtbl.hash (a, v) * 0x9e3779b1))
    m;
  !acc

let equal m1 m2 =
  let page m p =
    if p < Array.length m.pages then m.pages.(p) else no_page
  in
  let same_page p1 p2 =
    if p1 == p2 then true
    else if Array.length p1 = 0 then Array.for_all (fun v -> v = 0) p2
    else if Array.length p2 = 0 then Array.for_all (fun v -> v = 0) p1
    else p1 = p2
  in
  let n = max (Array.length m1.pages) (Array.length m2.pages) in
  let rec pages_equal p =
    p >= n || (same_page (page m1 p) (page m2 p) && pages_equal (p + 1))
  in
  pages_equal 0
  && Hashtbl.length m1.far = Hashtbl.length m2.far
  && Hashtbl.fold
       (fun a v ok ->
         ok && match Hashtbl.find m2.far a with
               | v' -> v = v'
               | exception Not_found -> false)
       m1.far true

let nonzero_bindings m =
  let acc = ref [] in
  iter_nonzero (fun a v -> acc := (a, v) :: !acc) m;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Static layout of named regions                                      *)
(* ------------------------------------------------------------------ *)

module Layout = struct
  type region = { name : string; site : int; base : int; size : int }

  type t = {
    mutable regions : region list; (* newest first *)
    mutable next_base : int;
    mutable next_site : int;
  }

  let create () = { regions = []; next_base = 0x1000; next_site = 0 }

  (* Allocate [size] words for region [name]; returns the region.  Regions
     are padded to a multiple of 64 words so that distinct sites never
     share a cache line in any simulated cache. *)
  let alloc t name size =
    let site = t.next_site in
    t.next_site <- site + 1;
    let base = t.next_base in
    let padded = ((max 1 size + 63) / 64) * 64 in
    t.next_base <- base + padded;
    let r = { name; site; base; size } in
    t.regions <- r :: t.regions;
    r

  let find t name =
    match List.find_opt (fun r -> r.name = name) t.regions with
    | Some r -> r
    | None -> invalid_arg ("Memory.Layout.find: unknown region " ^ name)

  let region_of_addr t a =
    List.find_opt (fun r -> a >= r.base && a < r.base + r.size) t.regions

  let site_of_addr t a =
    match region_of_addr t a with Some r -> r.site | None -> -1

  let regions t = List.rev t.regions
end
