type kind = Legacy | Event | Heap

let kind_of_string = function
  | "legacy" -> Some Legacy
  | "event" -> Some Event
  | "heap" -> Some Heap
  | _ -> None

let kind_to_string = function
  | Legacy -> "legacy"
  | Event -> "event"
  | Heap -> "heap"

type component = {
  cp_name : string;
  cp_tick : cycle:int -> unit;
  cp_next_event : now:int -> int option;
  cp_skip : now:int -> cycles:int -> unit;
  cp_changed : unit -> bool;
}

let passive name =
  {
    cp_name = name;
    cp_tick = (fun ~cycle:_ -> ());
    cp_next_event = (fun ~now:_ -> None);
    cp_skip = (fun ~now:_ ~cycles:_ -> ());
    cp_changed = (fun () -> false);
  }

(* Cached promise sentinel for reactive components (no self wake-up). *)
let reactive = max_int

type t = {
  knd : kind;
  clock : int ref;
  mutable components : component array;
  mutable scan_start : int;
  mutable n_steps : int;
  mutable n_ff : int;
  mutable n_skipped : int;
  (* Heap mode state.  [wake.(i)] caches component [i]'s last promise
     ([reactive] when it has none); [hot.(i)] forces a re-poll of [i]
     after the next tick round.  Invariant: a non-hot component with a
     finite cached promise always has a matching live heap entry, so the
     heap minimum over valid entries is the earliest wake-up of any
     quiescent component. *)
  heap : Wake_heap.t;
  mutable wake : int array;
  mutable hot : bool array;
  mutable batch_id : int;
  mutable batch : (now:int -> limit:int -> int) option;
  mutable n_batched : int;
  mutable n_batches : int;
}

let create ~kind ~clock () =
  {
    knd = kind;
    clock;
    components = [||];
    scan_start = 0;
    n_steps = 0;
    n_ff = 0;
    n_skipped = 0;
    heap = Wake_heap.create ();
    wake = [||];
    hot = [||];
    batch_id = -1;
    batch = None;
    n_batched = 0;
    n_batches = 0;
  }

let register t c =
  let id = Array.length t.components in
  t.components <- Array.append t.components [| c |];
  t.wake <- Array.append t.wake [| reactive |];
  (* every component starts hot so the first round polls everyone *)
  t.hot <- Array.append t.hot [| true |];
  id

let set_batch t ~id hook =
  t.batch_id <- id;
  t.batch <- Some hook

let wake t ~id ~at =
  if t.knd = Heap then begin
    if at <= !(t.clock) then t.hot.(id) <- true
    else if at < t.wake.(id) then begin
      t.wake.(id) <- at;
      Wake_heap.push t.heap ~cycle:at ~id
    end
  end

exception Active

(* Smallest heap entry that still matches its component's cached
   promise.  Entries for promises that have since moved are dropped;
   entries that have come due without the component turning active mark
   the component hot (it must be re-polled before the window can be
   trusted) and clamp the result to [now]. *)
let rec min_valid_wake t ~now =
  if Wake_heap.size t.heap = 0 then reactive
  else begin
    let c = Wake_heap.top_cycle t.heap and i = Wake_heap.top_id t.heap in
    if t.wake.(i) = c then
      if c > now then c
      else begin
        (* due but not observed active: force a re-poll next round *)
        t.hot.(i) <- true;
        Wake_heap.drop t.heap;
        now
      end
    else begin
      Wake_heap.drop t.heap;
      min_valid_wake t ~now
    end
  end

(* Poll component [i]'s promise and update the cache.  Returns true when
   the component is active at [now] (it then stays hot); quiescent
   components are demoted and their wake-up mirrored into the heap. *)
let poll t comps ~now i =
  match comps.(i).cp_next_event ~now with
  | Some e when e <= now ->
      t.wake.(i) <- now;
      true
  | Some e ->
      t.hot.(i) <- false;
      if t.wake.(i) <> e then begin
        t.wake.(i) <- e;
        Wake_heap.push t.heap ~cycle:e ~id:i
      end;
      false
  | None ->
      t.hot.(i) <- false;
      t.wake.(i) <- reactive;
      false

let step_heap t comps ~now =
  let n = Array.length comps in
  (* Only components that were active last round (hot) or whose tick
     just changed state can have moved their earliest event earlier;
     everyone else's cached promise stands. *)
  for i = 0 to n - 1 do
    if (not t.hot.(i)) && comps.(i).cp_changed () then t.hot.(i) <- true
  done;
  (* Lazy sticky re-poll: probe hot components until one is active --
     the window cannot skip then, so the remaining hot components keep
     their flag and are simply polled in a later round.  Activity is
     sticky, so busy phases usually cost a single probe. *)
  let active = ref (-1) in
  let j = ref 0 in
  while !active < 0 && !j < n do
    let i =
      let i = t.scan_start + !j in
      if i >= n then i - n else i
    in
    if t.hot.(i) && poll t comps ~now i then begin
      active := i;
      t.scan_start <- i
    end;
    incr j
  done;
  if !active < 0 then begin
    (* every hot component was polled and demoted: all quiescent *)
    let w = min_valid_wake t ~now in
    if w > now && w < reactive then begin
      let k = w - now in
      for i = 0 to n - 1 do
        comps.(i).cp_skip ~now ~cycles:k
      done;
      t.clock := w;
      t.n_ff <- t.n_ff + 1;
      t.n_skipped <- t.n_skipped + k;
      (* components due at [w] act on their next tick; make sure they
         are re-polled afterwards even if that tick is a no-op *)
      for i = 0 to n - 1 do
        if t.wake.(i) <= w then t.hot.(i) <- true
      done
    end
  end
  else if !active = t.batch_id && t.batch <> None then begin
    (* Serial-phase interpret-ahead candidate: the batch owner is
       active.  Poll the remaining hot components; if the owner turns
       out to be the only active one, hand it the dead window to burn
       inline, bounded by the earliest quiescent wake-up. *)
    let others_active = ref false in
    let i = ref 0 in
    while (not !others_active) && !i < n do
      if !i <> t.batch_id && t.hot.(!i) && poll t comps ~now !i then
        others_active := true;
      incr i
    done;
    if not !others_active then begin
      match t.batch with
      | None -> ()
      | Some hook ->
          let limit_cycle = min_valid_wake t ~now in
          if limit_cycle > now then begin
            let k = hook ~now ~limit:(limit_cycle - now) in
            if k > 0 then begin
              t.clock := now + k;
              t.n_batched <- t.n_batched + k;
              t.n_batches <- t.n_batches + 1;
              (* the hook ran foreign ticks; re-poll everyone *)
              for i = 0 to n - 1 do
                t.hot.(i) <- true
              done
            end
          end
    end
  end

let step t =
  let cycle = !(t.clock) in
  let comps = t.components in
  for i = 0 to Array.length comps - 1 do
    comps.(i).cp_tick ~cycle
  done;
  t.n_steps <- t.n_steps + 1;
  incr t.clock;
  match t.knd with
  | Legacy -> ()
  | Heap -> step_heap t comps ~now:!(t.clock)
  | Event -> (
      let now = !(t.clock) in
      (* Find the earliest cycle any component could act on its own.
         Early-exit as soon as someone is active at [now], and start the
         scan at the component that was active last time: activity is
         sticky, so busy phases usually cost a single probe. *)
      let n = Array.length comps in
      let wake = ref max_int in
      try
        for j = 0 to n - 1 do
          let i =
            let i = t.scan_start + j in
            if i >= n then i - n else i
          in
          match comps.(i).cp_next_event ~now with
          | None -> ()
          | Some e ->
              let e = if e < now then now else e in
              if e = now then begin
                t.scan_start <- i;
                raise Active
              end;
              if e < !wake then wake := e
        done;
        if !wake > now && !wake < max_int then begin
          let k = !wake - now in
          for i = 0 to Array.length comps - 1 do
            comps.(i).cp_skip ~now ~cycles:k
          done;
          t.clock := !wake;
          t.n_ff <- t.n_ff + 1;
          t.n_skipped <- t.n_skipped + k
        end
      with Active -> ())

let kind t = t.knd
let steps t = t.n_steps
let fast_forwards t = t.n_ff
let skipped_cycles t = t.n_skipped
let batched_cycles t = t.n_batched
let batches t = t.n_batches
let heap_pushes t = Wake_heap.pushes t.heap
