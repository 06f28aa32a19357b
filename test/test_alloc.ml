(* Allocation budget of the simulator's hot path.

   The cycle-level simulation must not allocate per simulated instruction
   or per simulated cycle beyond the uop it hands to the core model (see
   DESIGN.md, "Simulator hot path").  A closure or option that slips back
   into a per-cycle path multiplies the words allocated per retired
   instruction long before it shows as wall time, so the budget is
   checked here, on every test run, rather than only by the benchmark.

   Each case runs 164.gzip on its Train input on the default 16-core
   machine with the default engine: sequentially, under HELIX-RC (ring,
   fully decoupled) and on the conventional machine (no ring, fully
   coupled).  The cycle counts are pinned -- the hot path must stay
   bit-identical -- and [Gc.minor_words] over the [Executor.run] window,
   divided by retired instructions, must stay under a ceiling set about
   10% above the measured value.  Minor words are an exact, repeatable
   count, unlike host time.

   The engine's step count ([engine.steps]: cycles the engine ticked
   rather than fast-forwarded) must stay at or below its committed
   ceiling, so a change that loses idle-cycle skipping fails here.  The
   ceilings are the measured counts; the per-cycle legacy engine, which
   skips nothing, steps once per simulated cycle and exceeds them. *)

open Helix_ir
open Helix_hcc
open Helix_machine
open Helix_core
open Helix_workloads

let gzip =
  lazy
    (let spec = (Registry.find "164.gzip").Workload.build () in
     let compiled =
       Helix.compile (Hcc_config.v3 ~target_cores:16 ()) spec.Workload.prog
         spec.Workload.layout
         ~train_mem:(spec.Workload.init Workload.Train)
     in
     let golden =
       Helix.golden_run spec.Workload.prog (spec.Workload.init Workload.Train)
     in
     (spec, compiled, golden))

let config ~ring mach =
  let comm = if ring then Executor.fully_decoupled else Executor.fully_coupled in
  Executor.default_config ~ring ~comm mach

type case = {
  name : string;
  cycles : int;          (* pinned simulated cycles *)
  ceiling : float;       (* minor words per retired instruction *)
  max_steps : int;       (* engine steps *)
  run : Workload.spec -> Hcc.compiled -> Memory.t -> Executor.result;
}

let cases =
  [
    {
      name = "sequential";
      cycles = 50053;
      ceiling = 13.2;
      max_steps = 22749;
      run =
        (fun spec _ mem ->
          Executor.run
            (config ~ring:false (Mach_config.with_cores Mach_config.default 1))
            spec.Workload.prog mem);
    };
    {
      name = "helix-rc";
      cycles = 20763;
      ceiling = 34.1;
      max_steps = 17683;
      run =
        (fun _ compiled mem ->
          Executor.run ~compiled
            (config ~ring:true Mach_config.default)
            compiled.Hcc.cp_prog mem);
    };
    {
      name = "conventional";
      cycles = 46716;
      ceiling = 14.7;
      max_steps = 16880;
      run =
        (fun _ compiled mem ->
          Executor.run ~compiled
            (config ~ring:false Mach_config.default)
            compiled.Hcc.cp_prog mem);
    };
  ]

let check_case c () =
  let spec, compiled, golden = Lazy.force gzip in
  let mem = spec.Workload.init Workload.Train in
  let w0 = Gc.minor_words () in
  let r = c.run spec compiled mem in
  let words = Gc.minor_words () -. w0 in
  let v = Helix.verify golden r in
  Alcotest.(check bool) ("result matches the interpreter: " ^ v.Helix.detail)
    true v.Helix.ok;
  Alcotest.(check int) "simulated cycles" c.cycles r.Executor.r_cycles;
  (match Helix_obs.Metrics.find_int r.Executor.r_metrics "engine.steps" with
  | None -> Alcotest.fail "engine.steps missing from the run's metrics"
  | Some steps when steps > c.max_steps ->
      Alcotest.failf
        "%s takes %d engine steps (ceiling %d): idle cycles are no longer \
         skipped"
        c.name steps c.max_steps
  | Some _ -> ());
  let per_instr = words /. float_of_int (max 1 r.Executor.r_retired) in
  if per_instr > c.ceiling then
    Alcotest.failf
      "%s allocates %.2f minor words per retired instruction (budget %.1f): \
       something on the per-instruction or per-cycle path allocates again"
      c.name per_instr c.ceiling

let () =
  Alcotest.run "alloc"
    [
      ( "hot-path-budget",
        List.map
          (fun c -> Alcotest.test_case (c.name ^ " gzip Train") `Quick (check_case c))
          cases );
    ]
