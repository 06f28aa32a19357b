(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload on one domain for about S seconds of timed passes
   and prints, as its last stdout line, one JSON object with [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  A traced run
   also prints the per-layer summary and writes its spans as JSONL under
   [_perfbench/]. *)

open Perfbench

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Harness.name) Harness.workloads)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := Some n | None -> die "bad --seed %s" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> seconds := n
        | _ -> die "bad --seconds %s" v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %s\n%s" a usage
  in
  go (List.tl (Array.to_list Sys.argv));
  let w =
    match Harness.find_workload !workload with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  let seed = match !seed with Some s -> s | None -> die "missing --seed\n%s" usage in
  if !seconds = 0 then die "missing --seconds\n%s" usage;
  if !trace < 0 then die "missing --trace\n%s" usage;
  (w, seed, !seconds, !trace = 1)

let json_metrics ms =
  let open Helix_obs.Json in
  Obj
    (List.map
       (fun (name, unit_, v) ->
         if not (Names.valid name) then die "invalid metric name %s" name;
         (name, Obj [ ("value", Float v); ("unit", String unit_) ]))
       ms)

let write_spans (o : Harness.outcome) =
  let dir = "_perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf "%s/%s-seed%d.spans.jsonl" dir o.Harness.workload.Harness.name o.Harness.seed in
  let oc = open_out file in
  List.iter
    (fun s -> output_string oc (Helix_obs.Json.to_string (Span.to_json s)); output_char oc '\n')
    o.Harness.spans;
  close_out oc;
  Printf.printf "spans: %d written to %s\n" (List.length o.Harness.spans) file

let print_layer_summary (o : Harness.outcome) =
  List.iter
    (fun (phase, total, rows) ->
      Printf.printf "\n%s (traced, per repetition: %.4f s)\n" phase total;
      Printf.printf "  %-10s %10s %7s %14s %8s\n" "layer" "self_s" "share" "words" "calls";
      List.iter
        (fun (layer, s, w, calls) ->
          Printf.printf "  %-10s %10.4f %6.1f%% %14.0f %8.1f\n" layer s
            (if total > 0.0 then 100.0 *. s /. total else 0.0) w calls)
        rows)
    (Harness.layer_summary o)

let () =
  let w, seed, seconds, trace = parse_args () in
  (match Harness.env_knobs_set () with
  | [] -> ()
  | vs -> die "refusing to run with %s set: it changes what is measured" (String.concat ", " vs));
  let o = Harness.run ~trace ~seconds ~seed w in
  Printf.printf "workload %s  seed %d  models %s  jobs/model %s\n" w.Harness.name seed
    (String.concat "," (List.map Harness.short w.Harness.models))
    (String.concat "+" (List.map Harness.job_name w.Harness.pass));
  Printf.printf "set-up repetitions %d; passes %d (%d traced); runs attempted %d, failed %d\n"
    (List.length o.Harness.setups) (List.length o.Harness.passes)
    (List.length (Harness.traced_passes o)) o.Harness.attempted
    (List.length o.Harness.failures);
  Printf.printf "set-up seconds (kernel seconds): %s\n"
    (String.concat " "
       (List.map (fun (s, r) -> Printf.sprintf "%.3f (%.4f)" s r) o.Harness.setups));
  Printf.printf "pass seconds: %s\n"
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "%.3f%s" p.Harness.p_secs (if p.Harness.p_traced then "t" else ""))
          o.Harness.passes));
  List.iter
    (fun p ->
      Printf.printf "  runs%s:%s\n"
        (if p.Harness.p_traced then " (traced)" else "")
        (String.concat ""
           (List.map
              (fun r ->
                Printf.sprintf " %s/%s %.3f (%.4f)" r.Harness.r_model
                  (Harness.job_name r.Harness.r_job) r.Harness.secs r.Harness.ref_s)
              p.Harness.p_runs)))
    o.Harness.passes;
  List.iter
    (fun (m, j, why) -> Printf.printf "FAILED %s %s: %s\n" m j why)
    o.Harness.failures;
  let metrics = if trace then Harness.per_layer o else Harness.end_to_end o in
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %16.6g %s\n" n v u) metrics;
  if trace then begin
    print_layer_summary o;
    write_spans o
  end;
  let failed = List.length o.Harness.failures in
  let result =
    Helix_obs.Json.Obj
      [ ("correct", Helix_obs.Json.Bool (failed = 0));
        ("attempted", Helix_obs.Json.Int o.Harness.attempted);
        ("failed", Helix_obs.Json.Int failed);
        ("metrics", json_metrics metrics) ]
  in
  print_endline (Helix_obs.Json.to_string result)
