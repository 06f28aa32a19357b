(* Array-backed binary min-heap keyed on cycle.  Two parallel arrays
   avoid packing the id into the key, so there is no limit on either the
   cycle range or the number of components. *)

type t = {
  mutable cycles : int array;
  mutable ids : int array;
  mutable size : int;
  mutable n_pushes : int;
}

let create () =
  { cycles = Array.make 64 0; ids = Array.make 64 0; size = 0; n_pushes = 0 }

let clear t = t.size <- 0
let size t = t.size

let grow t =
  let cap = Array.length t.cycles in
  let cycles = Array.make (cap * 2) 0 in
  let ids = Array.make (cap * 2) 0 in
  Array.blit t.cycles 0 cycles 0 cap;
  Array.blit t.ids 0 ids 0 cap;
  t.cycles <- cycles;
  t.ids <- ids

let push t ~cycle ~id =
  if t.size = Array.length t.cycles then grow t;
  (* sift up *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.n_pushes <- t.n_pushes + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.cycles.(parent) > cycle then begin
      t.cycles.(!i) <- t.cycles.(parent);
      t.ids.(!i) <- t.ids.(parent);
      i := parent
    end
    else continue_ := false
  done;
  t.cycles.(!i) <- cycle;
  t.ids.(!i) <- id

let top_cycle t = if t.size = 0 then max_int else t.cycles.(0)
let top_id t = if t.size = 0 then -1 else t.ids.(0)
let peek t = if t.size = 0 then None else Some (t.cycles.(0), t.ids.(0))

let drop t =
  if t.size > 0 then begin
    t.size <- t.size - 1;
    let n = t.size in
    if n > 0 then begin
      let cycle = t.cycles.(n) and id = t.ids.(n) in
      (* sift down from the root *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 in
        if l >= n then continue_ := false
        else begin
          let c =
            if l + 1 < n && t.cycles.(l + 1) < t.cycles.(l) then l + 1 else l
          in
          if t.cycles.(c) < cycle then begin
            t.cycles.(!i) <- t.cycles.(c);
            t.ids.(!i) <- t.ids.(c);
            i := c
          end
          else continue_ := false
        end
      done;
      t.cycles.(!i) <- cycle;
      t.ids.(!i) <- id
    end
  end

let pushes t = t.n_pushes
