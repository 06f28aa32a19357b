(* Metric names: the benchmark reports under names made of
   [A-Za-z0-9_.-] that start with a letter or digit, at most 64 long.
   The simulator's own registry ([Executor.result.r_metrics]) uses other
   characters ("cores.bucket.wait/signal") and a "cores." prefix for the
   all-core roll-up; [of_sim] maps those names into the benchmark's. *)

let max_len = 64

let valid_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
  | _ -> false

let valid name =
  let n = String.length name in
  n > 0 && n <= max_len && is_alnum name.[0] && String.for_all valid_char name

let sanitize name = String.map (fun c -> if valid_char c then c else '_') name

(* "cores.X" is the machine-wide sum over cores: the [machine] layer. *)
let of_sim name =
  let prefix = "cores." in
  let p = String.length prefix in
  let name =
    if String.length name > p && String.sub name 0 p = prefix then
      "machine." ^ String.sub name p (String.length name - p)
    else name
  in
  sanitize name

(* Per-core and per-cache entries ("core.3.retired", "hier.l1.3.hit_rate")
   are not summed: the roll-ups carry the same counts. *)
let per_unit name =
  let starts p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  starts "core." || starts "hier.l1."
