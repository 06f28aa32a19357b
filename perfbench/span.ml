(* Host-side spans recorded by the benchmark around its calls into the
   simulator's layers.  A span carries its wall interval and the minor
   words allocated inside it; both are inclusive of child spans, and
   [self] subtracts the part the children cover.  Spans stay in memory
   until the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int option;
  workload : string;
  model : string;
  start_ns : int64;
  stop_ns : int64;
  words : float;  (** minor words allocated inside the span, inclusive *)
}

type recorder = {
  workload : string;
  mutable enabled : bool;
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable spans : t list;  (** closed spans, most recent first *)
}

let now_ns () = Monotonic_clock.now ()

let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

let create ~workload =
  { workload; enabled = false; next_id = 0; stack = []; spans = [] }

let with_span r ?(model = "") name f =
  if not r.enabled then f ()
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with p :: _ -> Some p | [] -> None in
    r.stack <- id :: r.stack;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        r.stack <- List.tl r.stack;
        r.spans <-
          { id; name; parent; workload = r.workload; model; start_ns = t0;
            stop_ns = t1; words = w1 -. w0 }
          :: r.spans)
  end

let spans r = List.rev r.spans

let duration_s s = seconds_between s.start_ns s.stop_ns

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

type self = { span : t; self_s : float; self_words : float }

(* Self time: the span's duration minus the part of its interval its
   direct children cover.  Self words: its words minus its children's
   (minor-word counts are exact, so this never goes negative). *)
let self_times (spans : t list) : self list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let cov =
        covered ~lo:s.start_ns ~hi:s.stop_ns
          (List.map (fun k -> (k.start_ns, k.stop_ns)) kids)
      in
      let self_ns = Int64.sub (Int64.sub s.stop_ns s.start_ns) cov in
      { span = s; self_s = Int64.to_float self_ns *. 1e-9;
        self_words = s.words -. List.fold_left (fun acc k -> acc +. k.words) 0.0 kids })
    spans

let to_json (s : t) : Helix_obs.Json.t =
  let open Helix_obs.Json in
  Obj
    [ ("id", Int s.id); ("name", String s.name);
      ("parent", match s.parent with Some p -> Int p | None -> Null);
      ("workload", String s.workload); ("model", String s.model);
      ("start_ns", String (Int64.to_string s.start_ns));
      ("end_ns", String (Int64.to_string s.stop_ns));
      ("words", Float s.words) ]
