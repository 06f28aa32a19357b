(* Per-node signal buffer.

   Stores, for every (sequential segment, origin core) pair, the number of
   signals received.  Counters are monotone; the consumer-side wait logic
   compares them against the iteration-derived threshold.  The paper's
   "past/future" two-slot design corresponds to the compiler-guaranteed
   invariant that at most two signals per segment from a given core are
   ever un-consumed; [max_outstanding] lets the runtime assert it.

   The counters are dense: one row per segment id, holding for each
   origin the received count at [2 * origin] and the consumed threshold
   at [2 * origin + 1].  Rows grow on [record]; queries never allocate,
   since a polled wait consults them every cycle. *)

type t = {
  mutable rows : int array array; (* segment -> interleaved counters *)
  mutable max_outstanding : int;
}

let create () = { rows = [||]; max_outstanding = 0 }

(* Counter slot of (seg, origin) in [t.rows.(seg)], or -1 if never grown. *)
let slot t ~seg ~origin =
  if seg >= 0 && seg < Array.length t.rows && origin >= 0
     && (2 * origin) + 1 < Array.length t.rows.(seg)
  then 2 * origin
  else -1

let received t ~seg ~origin =
  let s = slot t ~seg ~origin in
  if s < 0 then 0 else t.rows.(seg).(s)

let grow t ~seg ~origin =
  if seg < 0 || origin < 0 then
    invalid_arg "Signal_buffer.record: negative segment or origin";
  if seg >= Array.length t.rows then begin
    let rows = Array.make (max (seg + 1) (2 * Array.length t.rows)) [||] in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  let row = t.rows.(seg) in
  if (2 * origin) + 1 >= Array.length row then begin
    let row' = Array.make (max ((2 * origin) + 2) (2 * Array.length row)) 0 in
    Array.blit row 0 row' 0 (Array.length row);
    t.rows.(seg) <- row'
  end

let record t ~seg ~origin =
  if slot t ~seg ~origin < 0 then grow t ~seg ~origin;
  let row = t.rows.(seg) and s = 2 * origin in
  let c = row.(s) + 1 in
  row.(s) <- c;
  t.max_outstanding <- max t.max_outstanding (c - row.(s + 1))

(* [satisfied t ~seg ~origin ~threshold] checks whether at least
   [threshold] signals have arrived, marking them consumed for the
   outstanding-signal accounting. *)
let satisfied t ~seg ~origin ~threshold =
  let ok = received t ~seg ~origin >= threshold in
  (* a positive threshold can only be met by a grown slot *)
  if ok && threshold > 0 then begin
    let row = t.rows.(seg) and s = (2 * origin) + 1 in
    if threshold > row.(s) then row.(s) <- threshold
  end;
  ok

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.rows;
  t.max_outstanding <- 0

let max_outstanding t = t.max_outstanding

(* Pairs that received at least one signal, in (segment, origin) order. *)
let entries t =
  let acc = ref [] in
  for seg = Array.length t.rows - 1 downto 0 do
    let row = t.rows.(seg) in
    for origin = (Array.length row / 2) - 1 downto 0 do
      let c = row.(2 * origin) in
      if c > 0 then acc := ((seg, origin), c, row.((2 * origin) + 1)) :: !acc
    done
  done;
  !acc

let dump t =
  List.fold_left
    (fun acc ((seg, origin), c, _) ->
      acc ^ Printf.sprintf " (seg%d,from%d)=%d" seg origin c)
    "" (entries t)
