(* The full benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Sections 2 and 6), walking [Figures.all], and prints the rows the
   paper reports.  Absolute numbers come from our simulator, so the claim
   against the paper is the *shape*: who wins, by roughly what factor,
   and where the crossovers fall.  Against itself the simulator is
   bit-exact: the quick sweep's tables are committed under
   bench/expected-quick/, and CI diffs a fresh sweep under both engines
   against them cell for cell.

   Part 2 runs Bechamel micro-benchmarks of the substrate itself
   (interpreter, compiler, ring network, caches, core models) so
   performance regressions in the simulator are visible.

   Set HELIX_BENCH_QUICK=1 to restrict part 1 to the CINT models.
   Set HELIX_BENCH_METRICS_DIR=<dir> to also dump each table as
   <dir>/<name>.json, named by [Figures.files].
   Set HELIX_BENCH_SECTIONS to a comma list of figures,micro to run a
   subset (default: both).
   Set HELIX_BENCH_JOBS=<n> to evaluate figure points on n domains; the
   tables do not depend on it.

   After a change that moves a figure on purpose, regenerate the golden
   tables from the repository root with

     rm -rf bench/expected-quick && mkdir bench/expected-quick && HELIX_BENCH_QUICK=1 HELIX_BENCH_SECTIONS=figures HELIX_BENCH_METRICS_DIR=bench/expected-quick dune exec bench/main.exe
*)

open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads
open Helix_experiments

let quick = Sys.getenv_opt "HELIX_BENCH_QUICK" <> None

let workloads = if quick then Registry.integer else Registry.all

let metrics_dir = Sys.getenv_opt "HELIX_BENCH_METRICS_DIR"

let sections =
  match Sys.getenv_opt "HELIX_BENCH_SECTIONS" with
  | None -> [ "figures"; "micro" ]
  | Some s -> String.split_on_char ',' (String.trim s)

let wants s = List.mem s sections

(* Print a figure's table and, when HELIX_BENCH_METRICS_DIR is set, dump
   it as <dir>/<name>.json too. *)
let emit name report =
  Report.print report;
  match metrics_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".json") in
      let oc = open_out path in
      output_string oc (Helix_obs.Json.to_string (Report.to_json report));
      output_char oc '\n';
      close_out oc

(* ---- part 1: the paper's tables and figures -------------------------- *)

let part1 () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "HELIX-RC evaluation reproduction (%s workload set)@."
    (if quick then "CINT" else "full");
  Fmt.pr "==================================================================@.";
  (* warm the compile/baseline memo tables across the pool so the
     figures below start from cache hits instead of serial compiles *)
  Exp_common.precompile workloads;
  List.iter
    (fun (name, reports) ->
      List.iter
        (fun (file, r) -> emit file r)
        (Figures.files name (reports workloads)))
    Figures.all

(* ---- part 2: substrate micro-benchmarks ------------------------------- *)

let quickstart_prog () =
  let wl = Registry.find "164.gzip" in
  let s = wl.Workload.build () in
  (s.Workload.prog, s.Workload.layout, s.Workload.init Workload.Train)

(* Stall-heavy workload for the engine fast-forward benches, compiled
   once so only the run loop is measured. *)
let mcf_prepared =
  lazy
    (let wl = Registry.find "181.mcf" in
     let s = wl.Workload.build () in
     let c =
       Hcc.compile
         (Hcc_config.v3 ())
         s.Workload.prog s.Workload.layout
         ~train_mem:(s.Workload.init Workload.Train)
     in
     (c, fun () -> s.Workload.init Workload.Ref))

let run_mcf engine =
  let c, fresh_mem = Lazy.force mcf_prepared in
  let cfg = Exp_common.helix_cfg ~engine () in
  ignore (Executor.run ~compiled:c cfg c.Hcc.cp_prog (fresh_mem ()))

(* Serial-heavy workload: long single-core phases between loops. *)
let vpr_prepared =
  lazy
    (let wl = Registry.find "175.vpr" in
     let s = wl.Workload.build () in
     let c =
       Hcc.compile
         (Hcc_config.v3 ())
         s.Workload.prog s.Workload.layout
         ~train_mem:(s.Workload.init Workload.Train)
     in
     (c, fun () -> s.Workload.init Workload.Ref))

let run_vpr engine =
  let c, fresh_mem = Lazy.force vpr_prepared in
  let cfg = Exp_common.helix_cfg ~engine () in
  ignore (Executor.run ~compiled:c cfg c.Hcc.cp_prog (fresh_mem ()))

let bench_tests =
  let open Bechamel in
  [
    Test.make ~name:"interp: gzip train input"
      (Staged.stage (fun () ->
           let prog, _, mem = quickstart_prog () in
           ignore (Interp.run prog mem)));
    Test.make ~name:"hcc: compile gzip with HCCv3"
      (Staged.stage (fun () ->
           let prog, layout, mem = quickstart_prog () in
           ignore (Hcc.compile (Hcc_config.v3 ()) prog layout ~train_mem:mem)));
    Test.make ~name:"executor: sequential gzip train"
      (Staged.stage (fun () ->
           let prog, _, mem = quickstart_prog () in
           ignore (Helix.run_sequential Mach_config.default prog mem)));
    Test.make ~name:"ring: 10k ticks with traffic"
      (Staged.stage (fun () ->
           let backing = Hashtbl.create 16 in
           let r =
             Helix_ring.Ring.create
               (Helix_ring.Ring.default_config ~n_nodes:16)
               {
                 Helix_ring.Ring.backing_load =
                   (fun a -> try Hashtbl.find backing a with Not_found -> 0);
                 backing_store = (fun a v -> Hashtbl.replace backing a v);
                 owner_l1_latency =
                   (fun ~core:_ ~cycle:_ ~write:_ ~addr:_ -> 3);
               }
           in
           for c = 0 to 9_999 do
             if c land 7 = 0 then
               ignore
                 (Helix_ring.Ring.try_store r ~node:(c land 15)
                    ~addr:(64 + (c land 63))
                    ~value:c ~cycle:c);
             Helix_ring.Ring.tick r ~cycle:c
           done));
    Test.make ~name:"ring: 10k jittered ticks with traffic"
      (Staged.stage (fun () ->
           (* same traffic as above under seeded perturbation: the cost
              of the fault-injection hash on the hot path *)
           let backing = Hashtbl.create 16 in
           let r =
             Helix_ring.Ring.create
               {
                 (Helix_ring.Ring.default_config ~n_nodes:16) with
                 Helix_ring.Ring.perturb =
                   Some (Helix_ring.Ring.perturbed ~seed:42 ());
               }
               {
                 Helix_ring.Ring.backing_load =
                   (fun a -> try Hashtbl.find backing a with Not_found -> 0);
                 backing_store = (fun a v -> Hashtbl.replace backing a v);
                 owner_l1_latency =
                   (fun ~core:_ ~cycle:_ ~write:_ ~addr:_ -> 3);
               }
           in
           for c = 0 to 9_999 do
             if c land 7 = 0 then
               ignore
                 (Helix_ring.Ring.try_store r ~node:(c land 15)
                    ~addr:(64 + (c land 63))
                    ~value:c ~cycle:c);
             Helix_ring.Ring.tick r ~cycle:c
           done));
    Test.make ~name:"ring: 10k faulty ticks with traffic"
      (Staged.stage (fun () ->
           (* same traffic again under a lossy fault plan: hot-path cost
              of per-send fault rolls, hop/checksum validation and the
              retransmission timer upkeep *)
           let backing = Hashtbl.create 16 in
           let r =
             Helix_ring.Ring.create
               {
                 (Helix_ring.Ring.default_config ~n_nodes:16) with
                 Helix_ring.Ring.faults =
                   Some
                     (Helix_ring.Ring.faulty ~drop:20 ~dup:10 ~reorder:10
                        ~corrupt:10 ~seed:42 ());
               }
               {
                 Helix_ring.Ring.backing_load =
                   (fun a -> try Hashtbl.find backing a with Not_found -> 0);
                 backing_store = (fun a v -> Hashtbl.replace backing a v);
                 owner_l1_latency =
                   (fun ~core:_ ~cycle:_ ~write:_ ~addr:_ -> 3);
               }
           in
           for c = 0 to 9_999 do
             if c land 7 = 0 then
               ignore
                 (Helix_ring.Ring.try_store r ~node:(c land 15)
                    ~addr:(64 + (c land 63))
                    ~value:c ~cycle:c);
             Helix_ring.Ring.tick r ~cycle:c
           done));
    Test.make ~name:"depcheck: 100k recorded accesses"
      (Staged.stage (fun () ->
           let d = Depcheck.create () in
           for i = 0 to 99_999 do
             Depcheck.record d ~core:(i land 15) ~iter:(i lsr 4)
               ~seg:(if i land 3 = 0 then Some (i land 7) else None)
               ~addr:((i * 13) land 4095)
               ~write:(i land 3 = 0)
           done;
           ignore (Depcheck.violations d)));
    Test.make ~name:"executor: gzip invocation with oracle+sanitizer"
      (Staged.stage (fun () ->
           let wl = Registry.find "164.gzip" in
           let s = wl.Workload.build () in
           let compiled =
             Hcc.compile
               (Hcc_config.v3 ())
               s.Workload.prog s.Workload.layout
               ~train_mem:(s.Workload.init Workload.Train)
           in
           ignore
             (Executor.run ~compiled
                (Executor.default_config ~ring:true
                   ~comm:Executor.fully_decoupled ~robust:Executor.checked
                   Mach_config.default)
                compiled.Hcc.cp_prog
                (s.Workload.init Workload.Ref))));
    Test.make ~name:"cache: 100k L1 accesses"
      (Staged.stage (fun () ->
           let c = Helix_machine.Cache.create Mach_config.default_l1 in
           for i = 0 to 99_999 do
             ignore
               (Helix_machine.Cache.access c ~write:(i land 3 = 0)
                  ((i * 17) land 16383))
           done));
    Test.make ~name:"analysis: loops+liveness+deps on gzip main"
      (Staged.stage (fun () ->
           let prog, _, _ = quickstart_prog () in
           let f = Ir.main_func prog in
           let cfg = Cfg.of_func f in
           let lt = Helix_analysis.Loops.compute cfg in
           ignore (Helix_analysis.Liveness.compute cfg);
           List.iter
             (fun lp ->
               ignore
                 (Helix_analysis.Depend.compute Helix_analysis.Alias.best prog
                    f lp))
             (Helix_analysis.Loops.loops lt)));
    Test.make ~name:"engine: legacy per-cycle, mcf (stall-heavy)"
      (Staged.stage (fun () -> run_mcf Helix_engine.Engine.Legacy));
    Test.make ~name:"engine: event fast-forward, mcf (stall-heavy)"
      (Staged.stage (fun () -> run_mcf Helix_engine.Engine.Event));
    Test.make ~name:"engine: event fast-forward, vpr (serial-heavy)"
      (Staged.stage (fun () -> run_vpr Helix_engine.Engine.Event));
    Test.make ~name:"pool: 4 interp runs, 1 job"
      (Staged.stage (fun () ->
           Exp_common.Pool.set_jobs 1;
           let prog, _, mem = quickstart_prog () in
           ignore
             (Exp_common.Pool.map
                (fun _ -> Interp.run prog (Helix_ir.Memory.copy mem))
                [ 0; 1; 2; 3 ])));
    Test.make ~name:"pool: 4 interp runs, 2 jobs"
      (Staged.stage (fun () ->
           Exp_common.Pool.set_jobs 2;
           Fun.protect
             ~finally:(fun () -> Exp_common.Pool.set_jobs 1)
             (fun () ->
               let prog, _, mem = quickstart_prog () in
               ignore
                 (Exp_common.Pool.map
                    (fun _ -> Interp.run prog (Helix_ir.Memory.copy mem))
                    [ 0; 1; 2; 3 ]))));
  ]

let part2 () =
  let open Bechamel in
  Fmt.pr "@.== substrate micro-benchmarks (bechamel) ==@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"helix-rc" ~fmt:"%s %s" bench_tests)
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] ->
          Fmt.pr "  %-44s %12.0f ns/run@." name est
      | _ -> Fmt.pr "  %-44s (no estimate)@." name)
    results

let () =
  if wants "figures" then part1 ();
  if wants "micro" then part2 ();
  Fmt.pr "@.done.@."
