(* The benchmark's own tests: metric names, span self-time arithmetic,
   the pass-time estimate, failure accounting against a tampered
   reference, and refusal of the simulator's env knobs. *)

open Perfbench

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Names.valid n))
    [ "wall_s"; "machine.bucket.dependence-waiting"; "core.run_par.gzip.words";
      "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Names.valid n))
    [ ""; "_x"; ".x"; "-x"; "cores.bucket.wait/signal"; "a b"; "é";
      String.make 65 'a' ];
  Alcotest.(check string) "wait/signal" "machine.bucket.wait_signal"
    (Names.of_sim "cores.bucket.wait/signal");
  Alcotest.(check string) "ring names kept" "ring.hit_rate"
    (Names.of_sim "ring.hit_rate");
  Alcotest.(check bool) "per-core skipped" true (Names.per_unit "core.3.retired");
  Alcotest.(check bool) "roll-up kept" false (Names.per_unit "cores.retired")

let span ?parent id name a b words =
  { Span.id; name; parent; workload = "w"; model = ""; start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b; words }

let self_times () =
  (* root [0,100] with overlapping children [10,40] and [30,60], one
     child poking out of its parent ([90,120]), and a grandchild [15,20] *)
  let spans =
    [ span 0 "root" 0 100 1000.0;
      span ~parent:0 1 "a" 10 40 300.0;
      span ~parent:0 2 "b" 30 60 200.0;
      span ~parent:0 3 "c" 90 120 50.0;
      span ~parent:1 4 "d" 15 20 100.0 ]
  in
  let self name =
    let s = List.find (fun s -> s.Span.span.Span.name = name) (Span.self_times spans) in
    (s.Span.self_s *. 1e9, s.Span.self_words)
  in
  let check name (ns, words) =
    let got_ns, got_words = self name in
    Alcotest.(check (float 1e-6)) (name ^ " self ns") ns got_ns;
    Alcotest.(check (float 1e-6)) (name ^ " self words") words got_words
  in
  (* covered: [10,60] + [90,100] = 60 *)
  check "root" (40.0, 450.0);
  check "a" (25.0, 200.0);
  check "b" (30.0, 200.0);
  check "d" (5.0, 100.0)

(* pass_s is each run's median over the passes of its calibrated
   seconds, summed: a pass slowed throughout by a burst of contention
   does not move it, and a run on a host where the kernel is twice as
   slow counts half its seconds. *)
let pass_wall () =
  let pass ?(ref_s = Calib.nominal_s) secs =
    let runs =
      List.mapi
        (fun i secs ->
          { Harness.r_model = string_of_int i; r_job = Harness.Seq;
            outcome = Error "unused"; secs; ref_s; words = 0.0 })
        secs
    in
    { Harness.p_traced = false; p_secs = List.fold_left ( +. ) 0.0 secs;
      p_words = 0.0; p_runs = runs }
  in
  let passes = [ pass [ 1.0; 2.0 ]; pass [ 9.0; 9.0 ]; pass [ 1.2; 2.4 ] ] in
  Alcotest.(check (float 1e-9)) "sum of medians" 3.6 (Harness.pass_wall passes);
  Alcotest.(check (float 1e-9)) "one pass" 3.0 (Harness.pass_wall [ List.hd passes ]);
  Alcotest.(check (float 0.0)) "no pass" 0.0 (Harness.pass_wall []);
  let slow = pass ~ref_s:(2.0 *. Calib.nominal_s) [ 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "calibrated" 3.0 (Harness.pass_wall [ slow ]);
  Alcotest.(check (float 1e-9)) "raw" 6.0
    (Harness.pass_wall ~secs:(fun r -> r.Harness.secs) [ slow ])

let one_model pass =
  { Harness.name = "test"; models = [ "164.gzip" ]; pass; baseline = false }

let metric name ms =
  match List.find_opt (fun (n, _, _) -> n = name) ms with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "metric %s missing" name

let tampered_golden () =
  let w = one_model [ Harness.Seq ] in
  let rc = Span.create ~workload:w.Harness.name in
  let models, secs = Harness.setup rc w in
  let tamper (m : Harness.model) =
    let mem = Helix_ir.Memory.copy m.Harness.golden.Helix_core.Helix.g_mem in
    (match Helix_ir.Memory.nonzero_bindings mem with
    | (addr, v) :: _ -> Helix_ir.Memory.store mem addr (v + 1)
    | [] -> Helix_ir.Memory.store mem 0 1);
    { m with Harness.golden = { m.Harness.golden with Helix_core.Helix.g_mem = mem } }
  in
  let o = Harness.measure rc ~seconds:1 ~seed:1 w (List.map tamper models, secs) in
  Alcotest.(check bool) "ran" true (o.Harness.attempted >= 1);
  Alcotest.(check int) "every run counted failed" o.Harness.attempted
    (List.length o.Harness.failures);
  Alcotest.(check (float 0.0)) "failed_frac" 1.0 (metric "failed_frac" (Harness.per_layer o));
  let clean = Harness.measure rc ~seconds:1 ~seed:1 w (models, secs) in
  Alcotest.(check int) "untampered passes" 0 (List.length clean.Harness.failures);
  List.iter
    (fun (n, _, _) -> Alcotest.(check bool) ("valid " ^ n) true (Names.valid n))
    (Harness.end_to_end clean @ Harness.per_layer clean)

let env_knobs () =
  Unix.putenv "HELIX_TRACE_INV" "1";
  Alcotest.(check (list string)) "refused" [ "HELIX_TRACE_INV" ]
    (Harness.env_knobs_set ())

let () =
  Alcotest.run "perfbench"
    [ ("names", [ Alcotest.test_case "validation and mapping" `Quick names ]);
      ("spans", [ Alcotest.test_case "self-time arithmetic" `Quick self_times ]);
      ("pass_s", [ Alcotest.test_case "calibrated per-run medians" `Quick pass_wall ]);
      ("harness",
       [ Alcotest.test_case "tampered golden counts as failed" `Quick tampered_golden;
         Alcotest.test_case "env knobs refused" `Quick env_knobs ]) ]
