(* Register scoreboard: the cycle at which each register token's value
   is ready.  Tokens are small non-negative ints ([Uop]), so a dense
   array indexed by token replaces a hash table; it grows on write, and
   a token never written reads 0 (ready since the start). *)

type t = { mutable ready : int array }

let create () = { ready = Array.make 64 0 }

let get t r = if r < Array.length t.ready then t.ready.(r) else 0

let set t r c =
  let n = Array.length t.ready in
  if r >= n then begin
    let ready = Array.make (max (r + 1) (2 * n)) 0 in
    Array.blit t.ready 0 ready 0 n;
    t.ready <- ready
  end;
  t.ready.(r) <- c
