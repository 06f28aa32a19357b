open Helix_machine
open Helix_hcc
open Helix_core
open Helix_workloads

(* The benchmark harness.  It drives the simulator through its public
   API exactly as `helix_rc run` does, but calls Helix/Executor directly
   with fresh reference memory per run: Exp_common's per-process memo
   caches would hand back earlier results instead of simulating again. *)

(* ---- workloads --------------------------------------------------------- *)

type job =
  | Seq  (** the unmodified program on one core *)
  | Ring  (** HELIX-RC: ring cache on, fully decoupled *)
  | Coherent  (** conventional machine: no ring, fully coupled *)

let job_name = function
  | Seq -> "seq"
  | Ring -> "ring"
  | Coherent -> "coherent"

type workload = {
  name : string;
  models : string list;  (** registry names *)
  pass : job list;  (** timed jobs, run per model in this order each pass *)
  baseline : bool;
      (** run [Seq] once per model before the timed passes, for the
          speedup, when the pass itself has no sequential run *)
}

(* A pass should take a few seconds, so that a run holds several and
   each simulated run's time can be taken as its median over them.  The
   workloads therefore keep the CINT models that are quick on both
   machines: on the conventional one parser and mcf take 20 s of a 26 s
   pass. *)
let cint = [ "164.gzip"; "175.vpr"; "300.twolf"; "256.bzip2" ]

let workloads =
  [ { name = "cint-ring"; models = cint; pass = [ Seq; Ring ]; baseline = false };
    { name = "cint-coherent"; models = cint; pass = [ Coherent ]; baseline = true } ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* Short model name: "164.gzip" -> "gzip". *)
let short name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let all_models = List.map short cint

let config job =
  let mach = Mach_config.default in
  match job with
  | Seq -> invalid_arg "config: Seq runs through Helix.run_sequential"
  | Ring -> Executor.default_config ~ring:true ~comm:Executor.fully_decoupled mach
  | Coherent ->
      Executor.default_config ~ring:false ~comm:Executor.fully_coupled mach

(* Environment knobs that change what the simulator does or how the
   experiments library schedules work; the benchmark refuses to run under
   any of them. *)
let forbidden_env =
  [ "HELIX_ENGINE"; "HELIX_INTERPRET_AHEAD"; "HELIX_BENCH_JOBS";
    "HELIX_BENCH_QUICK"; "HELIX_TRACE_CORE"; "HELIX_TRACE_WIN";
    "HELIX_TRACE_INV" ]

let env_knobs_set () =
  List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env

(* ---- set-up ------------------------------------------------------------- *)

type model = {
  short_name : string;
  spec : Workload.spec;
  compiled : Hcc.compiled;
  golden : Helix.golden;
}

(* Build, initialise, compile (HCCv3, 16 cores) and run the reference
   interpreter for one model. *)
let prepare rc (wl : Workload.t) : model =
  let short_name = short wl.Workload.name in
  let sp name f = Span.with_span rc ~model:short_name name f in
  let spec = sp "workloads.build" wl.Workload.build in
  let train = sp "workloads.init" (fun () -> spec.Workload.init Workload.Train) in
  let compiled =
    sp "hcc.compile" (fun () ->
        Helix.compile (Hcc_config.v3 ~target_cores:16 ()) spec.Workload.prog
          spec.Workload.layout ~train_mem:train)
  in
  let ref_mem = sp "workloads.init" (fun () -> spec.Workload.init Workload.Ref) in
  let golden = sp "ir.interp" (fun () -> Helix.golden_run spec.Workload.prog ref_mem) in
  { short_name; spec; compiled; golden }

(* ---- one simulated run ------------------------------------------------- *)

(* What a run keeps of its result: the memory image is dropped once
   verified, so earlier passes do not hold memory while later ones run. *)
type sim = { cycles : int; retired : int; metrics : Helix_obs.Metrics.t }

type run = {
  r_model : string;
  r_job : job;
  outcome : (sim, string) result;
      (** [Error] names the failure: "mismatch: ..." or a stuck reason *)
  secs : float;  (** host seconds of the simulation and its verification *)
  ref_s : float;  (** {!Calib.kernel} seconds around that window *)
  words : float;  (** minor words allocated in that window *)
}

let run_job rc (m : model) job : run =
  let model = m.short_name in
  let mem =
    Span.with_span rc ~model "workloads.init" (fun () ->
        m.spec.Workload.init Workload.Ref)
  in
  let simulate () =
    match
      Span.with_span rc ~model
        (if job = Seq then "core.run_seq" else "core.run_par")
        (fun () ->
          match job with
          | Seq -> Helix.run_sequential Mach_config.default m.spec.Workload.prog mem
          | _ ->
              Executor.run ~compiled:m.compiled (config job)
                m.compiled.Hcc.cp_prog mem)
    with
    | exception Executor.Stuck (reason, _) ->
        Error (Executor.stuck_reason_name reason)
    | r ->
        let v = Span.with_span rc ~model "core.verify" (fun () -> Helix.verify m.golden r) in
        if v.Helix.ok then
          Ok { cycles = r.Executor.r_cycles; retired = r.Executor.r_retired;
               metrics = r.Executor.r_metrics }
        else Error ("mismatch: " ^ v.Helix.detail)
  in
  let (outcome, words), secs, ref_s =
    Calib.timed (fun () ->
        let w0 = Gc.minor_words () in
        let outcome = simulate () in
        (outcome, Gc.minor_words () -. w0))
  in
  { r_model = model; r_job = job; outcome; secs; ref_s; words }

(* What must repeat exactly between passes: cycles and every integer
   counter the run published. *)
let fingerprint (r : sim) =
  let m = r.metrics in
  ( r.cycles,
    List.filter_map
      (fun n ->
        match Helix_obs.Metrics.find m n with
        | Some (Helix_obs.Metrics.Int v) -> Some (n, v)
        | _ -> None)
      (Helix_obs.Metrics.names m) )

(* ---- a whole benchmark run --------------------------------------------- *)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0


type pass = {
  p_traced : bool;
  p_secs : float;  (** sum of the runs' [secs]: memory init excluded *)
  p_words : float;
  p_runs : run list;
}

type outcome = {
  workload : workload;
  seed : int;
      (** recorded only: the models build their inputs from fixed
          internal seeds *)
  setups : (float * float) list;
      (** per set-up repetition: its seconds and the {!Calib.kernel}
          seconds around it *)
  baselines : run list;
  passes : pass list;  (** in execution order *)
  failures : (string * string * string) list;  (** model, job, reason *)
  rss_mb : float;
      (** peak RSS after the first pass: set-up plus one pass, as in
          `helix_rc run`; later passes would raise it by fragmentation *)
  attempted : int;
  spans : Span.t list;
}

let pass_runs rc models w =
  List.concat_map (fun m -> List.map (fun j -> run_job rc m j) w.pass) models

(* Set-up repetitions; set-up time is reported as their median.  The
   count is fixed, so the heap the timed passes start from, and with it
   [rss_mb], does not depend on host speed. *)
let setup_reps = 9

(* Set-up: build, init, compile and interpret every model, repeated;
   returns the models of the last repetition and each repetition's
   seconds and kernel seconds. *)
let setup rc (w : workload) : model list * (float * float) list =
  let wls = List.map Registry.find w.models in
  let rec go acc n =
    let models, secs, ref_s =
      Calib.timed (fun () -> Span.with_span rc "setup" (fun () -> List.map (prepare rc) wls))
    in
    let acc = (secs, ref_s) :: acc in
    if n > 1 then go acc (n - 1) else (models, List.rev acc)
  in
  go [] setup_reps

(* Timed passes over the set-up models for about [seconds]: a pass
   starts only if the mean pass so far fits in the time left, and there
   is always at least one (two, one of each kind, when traced). *)
let measure rc ?(trace = false) ~seconds ~seed (w : workload)
    ((models, setups) : model list * (float * float) list) : outcome =
  let baselines =
    if w.baseline then
      Span.with_span rc "baseline" (fun () ->
          List.map (fun m -> run_job rc m Seq) models)
    else []
  in
  let start = Span.now_ns () in
  let elapsed () = Span.seconds_between start (Span.now_ns ()) in
  let rss_mb = ref 0.0 in
  let rec loop acc n_traced n_plain =
    (* untraced and traced passes alternate in a traced run, so both see
       the same host conditions *)
    let traced = trace && n_plain > n_traced in
    Gc.full_major ();
    rc.Span.enabled <- traced;
    let runs = Span.with_span rc "pass" (fun () -> pass_runs rc models w) in
    rc.Span.enabled <- false;
    let p =
      { p_traced = traced;
        p_secs = List.fold_left (fun a r -> a +. r.secs) 0.0 runs;
        p_words = List.fold_left (fun a r -> a +. r.words) 0.0 runs;
        p_runs = runs }
    in
    if acc = [] then rss_mb := peak_rss_mb ();
    let acc = p :: acc in
    let n_traced, n_plain =
      if traced then (n_traced + 1, n_plain) else (n_traced, n_plain + 1)
    in
    let per_pass = elapsed () /. float_of_int (n_traced + n_plain) in
    let need_more = trace && n_traced = 0 in
    if need_more || elapsed () +. per_pass <= float_of_int seconds then
      loop acc n_traced n_plain
    else List.rev acc
  in
  let passes = loop [] 0 0 in
  (* failures: a run that got stuck or disagreed with the reference, and
     any run whose cycles or counters differ from the first pass's *)
  let failures = ref [] in
  let fail (r : run) why = failures := (r.r_model, job_name r.r_job, why) :: !failures in
  List.iter (fun r -> match r.outcome with Error e -> fail r e | Ok _ -> ()) baselines;
  let first = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          match r.outcome with
          | Error e -> fail r e
          | Ok res -> (
              let key = (r.r_model, r.r_job) in
              match Hashtbl.find_opt first key with
              | None -> Hashtbl.replace first key (fingerprint res)
              | Some fp ->
                  if fp <> fingerprint res then fail r "nondeterministic: differs from the first pass"))
        p.p_runs)
    passes;
  let attempted =
    List.length baselines
    + List.fold_left (fun a p -> a + List.length p.p_runs) 0 passes
  in
  { workload = w; seed; setups; baselines; passes;
    failures = List.rev !failures; attempted; rss_mb = !rss_mb;
    spans = Span.spans rc }

let run ?(trace = false) ~seconds ~seed (w : workload) : outcome =
  let rc = Span.create ~workload:w.name in
  rc.Span.enabled <- trace;
  measure rc ~trace ~seconds ~seed w (setup rc w)

(* ---- metrics ------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ok_results runs =
  List.filter_map (fun r -> match r.outcome with Ok res -> Some (r, res) | Error _ -> None) runs

let retired runs =
  List.fold_left (fun a (_, res) -> a + res.retired) 0 (ok_results runs)

let cycles runs =
  List.fold_left (fun a (_, res) -> a + res.cycles) 0 (ok_results runs)

let first_pass o = match o.passes with p :: _ -> p | [] -> invalid_arg "no pass"

let plain_passes o = List.filter (fun p -> not p.p_traced) o.passes
let traced_passes o = List.filter (fun p -> p.p_traced) o.passes

let calibrated r = Calib.calibrated ~secs:r.secs ~ref_s:r.ref_s

(* Seconds of one pass: each run's median over [passes] of [secs] (by
   default its calibrated seconds), summed over the pass's runs.  Every
   pass holds the same runs in the same order.  A burst of host
   contention then moves the figure only if it slows the same run in
   half the passes. *)
let pass_wall ?(secs = calibrated) passes =
  match passes with
  | [] -> 0.0
  | p :: _ ->
      List.mapi
        (fun i _ -> median (List.map (fun p -> secs (List.nth p.p_runs i)) passes))
        p.p_runs
      |> List.fold_left ( +. ) 0.0

(* Simulated speedup per model: sequential cycles over the pass's
   parallel cycles. *)
let speedup_geomean o =
  let runs = ok_results (o.baselines @ (first_pass o).p_runs) in
  let result model job =
    List.find_map (fun (r, res) -> if r.r_model = model && r.r_job = job then Some res else None) runs
  in
  match List.find_opt (fun j -> j <> Seq) o.workload.pass with
  | None -> 0.0
  | Some par ->
      List.filter_map
        (fun m ->
          match (result (short m) Seq, result (short m) par) with
          | Some seq, Some par when par.cycles > 0 ->
              Some (float_of_int seq.cycles /. float_of_int par.cycles)
          | _ -> None)
        o.workload.models
      |> Helix.geomean

let failed_frac o =
  float_of_int (List.length o.failures) /. float_of_int (max 1 o.attempted)

(* End-to-end metrics, as the user of `helix_rc run` sees them: (name,
   unit, value). *)
let end_to_end o =
  let plain = plain_passes o in
  let p0 = first_pass o in
  let instrs = float_of_int (retired p0.p_runs) in
  let pass_s = pass_wall plain in
  [ ("setup_s", "s",
     median (List.map (fun (secs, ref_s) -> Calib.calibrated ~secs ~ref_s) o.setups));
    ("pass_s", "s", pass_s);
    ("sim_mips", "MIPS", instrs /. pass_s /. 1e6);
    ("alloc_words_per_instr", "words/instr",
     median (List.map (fun p -> p.p_words /. instrs) plain));
    ("peak_rss_mb", "MB", o.rss_mb);
    ("sim_cycles", "cycles", float_of_int (cycles p0.p_runs));
    ("speedup_geomean", "x", speedup_geomean o) ]

(* Integer counters of one pass's runs, summed under benchmark names. *)
let summed_counters runs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (_, res) ->
      let m = res.metrics in
      List.iter
        (fun n ->
          if not (Names.per_unit n) then
            match Helix_obs.Metrics.find m n with
            | Some (Helix_obs.Metrics.Int v) ->
                let k = Names.of_sim n in
                Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
            | _ -> ())
        (Helix_obs.Metrics.names m))
    (ok_results runs);
  fun k -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* The registry publishes L1 hit rates per cache but no L1 access
   counts, so this is the plain mean over caches and parallel runs. *)
let mean_l1_hit_rate runs =
  let rates =
    List.concat_map
      (fun (r, res) ->
        if r.r_job = Seq then []
        else
          let m = res.metrics in
          List.filter_map
            (fun n ->
              if String.length n > 8 && String.sub n 0 8 = "hier.l1." then
                Helix_obs.Metrics.find_float m n
              else None)
            (Helix_obs.Metrics.names m))
      (ok_results runs)
  in
  match rates with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 rates /. float_of_int (List.length rates)

let buckets =
  [ "busy"; "memory"; "pipeline"; "idle"; "dependence-waiting"; "wait_signal";
    "communication" ]

(* Span self times summed per key.  [key] sees each span together with
   the name of its root, the phase ("setup", "baseline" or "pass") it
   belongs to, and may file it under several keys. *)
type agg = { a_self : float; a_words : float; a_calls : int }

let group (spans : Span.t list) (key : phase:string -> Span.t -> 'k list) :
    ('k, agg) Hashtbl.t =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec root s =
    match Option.bind s.Span.parent (Hashtbl.find_opt by_id) with
    | Some p -> root p
    | None -> s.Span.name
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sf : Span.self) ->
      List.iter
        (fun k ->
          let a =
            Option.value ~default:{ a_self = 0.0; a_words = 0.0; a_calls = 0 }
              (Hashtbl.find_opt tbl k)
          in
          Hashtbl.replace tbl k
            { a_self = a.a_self +. sf.Span.self_s;
              a_words = a.a_words +. sf.Span.self_words; a_calls = a.a_calls + 1 })
        (key ~phase:(root sf.Span.span) sf.Span.span))
    (Span.self_times spans);
  tbl

(* Repetitions of a phase: its root spans. *)
let reps o phase =
  List.length (List.filter (fun s -> s.Span.name = phase && s.Span.parent = None) o.spans)

(* Layer of a span name: its first component; the phase roots are the
   harness's own loop. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> "harness"

let per_layer o =
  let tbl =
    group o.spans (fun ~phase s ->
        (phase, s.Span.name, "")
        :: (if s.Span.model = "" then [] else [ (phase, s.Span.name, s.Span.model) ]))
  in
  let per phase ?(model = "") name =
    let n = float_of_int (max 1 (reps o phase)) in
    match Hashtbl.find_opt tbl (phase, name, model) with
    | Some a -> (a.a_self /. n, a.a_words /. n)
    | None -> (0.0, 0.0)
  in
  let setup = per "setup" and pass = per "pass" in
  let p0 = (first_pass o).p_runs in
  let c = summed_counters p0 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let seq_s, seq_w = pass "core.run_seq" and par_s, par_w = pass "core.run_par" in
  let retired = float_of_int (retired p0) in
  let untraced_wall = pass_wall (plain_passes o) in
  let traced_wall = pass_wall (traced_passes o) in
  let per_model =
    List.concat_map
      (fun m ->
        let s, w = pass ~model:m "core.run_par" in
        [ (Printf.sprintf "core.run_par.%s.self_s" m, "s", s);
          (Printf.sprintf "core.run_par.%s.words" m, "words", w) ])
      all_models
  in
  [ ("workloads.build.self_s", "s", fst (setup "workloads.build"));
    ("hcc.compile.self_s", "s", fst (setup "hcc.compile"));
    ("hcc.compile.words", "words", snd (setup "hcc.compile"));
    ("ir.interp.self_s", "s", fst (setup "ir.interp"));
    ("workloads.init.self_s", "s", fst (pass "workloads.init"));
    ("core.run_seq.self_s", "s", seq_s);
    ("core.run_seq.words", "words", seq_w);
    ("core.run_par.self_s", "s", par_s);
    ("core.run_par.words", "words", par_w) ]
  @ per_model
  @ [ ("core.verify.self_s", "s", fst (pass "core.verify"));
      ("harness.self_s", "s", fst (pass "pass"));
      ("host.wall_s", "s", pass_wall ~secs:(fun r -> r.secs) (plain_passes o));
      ("host.setup_s", "s", median (List.map fst o.setups));
      ("host.kernel_s", "s",
       median (List.concat_map (fun p -> List.map (fun r -> r.ref_s) p.p_runs) (plain_passes o)));
      ("machine.ns_per_instr", "ns", ratio ((seq_s +. par_s) *. 1e9) retired);
      ("machine.words_per_instr", "words/instr", ratio (seq_w +. par_w) retired);
      ("machine.retired", "count", c "machine.retired");
      ("machine.ipc", "instr/cycle", ratio (c "machine.retired") (c "machine.cycles")) ]
  @ List.map (fun b -> ("machine.bucket." ^ b, "cycles", c ("machine.bucket." ^ b))) buckets
  @ [ ("hier.l2_accesses", "count", c "hier.l2_accesses");
      ("hier.c2c_transfers", "count", c "hier.c2c_transfers");
      ("hier.l1_hit_rate", "ratio", mean_l1_hit_rate p0);
      ("ring.injected", "count", c "ring.injected");
      ("ring.forwarded", "count", c "ring.forwarded");
      ("ring.hit_rate", "ratio", ratio (c "ring.hits") (c "ring.hits" +. c "ring.misses"));
      ("ring.blocked_injections", "count", c "ring.blocked_injections");
      ("exec.invocations", "count", c "exec.invocations");
      ("engine.steps", "count", c "engine.steps");
      ("engine.skipped_cycles", "cycles", c "engine.skipped_cycles");
      ("engine.skip_ratio", "ratio",
       ratio (c "engine.skipped_cycles" +. c "engine.batched_cycles") (c "exec.cycles"));
      ("engine.batched_cycles", "cycles", c "engine.batched_cycles");
      ("engine.ns_per_step", "ns", ratio ((seq_s +. par_s) *. 1e9) (c "engine.steps"));
      ("trace.overhead_frac", "ratio", ratio traced_wall untraced_wall -. 1.0);
      ("trace.wall_covered_frac", "ratio",
       (* spans are per traced pass on average, so compare with the mean *)
       ratio
         (seq_s +. par_s +. fst (pass "core.verify"))
         (List.fold_left (fun a p -> a +. p.p_secs) 0.0 (traced_passes o)
         /. float_of_int (max 1 (List.length (traced_passes o)))));
      ("failed_frac", "ratio", failed_frac o) ]

(* Per-layer summary of where the host seconds went: per phase, each
   layer's self seconds (per repetition), share of the phase's traced
   time, self words and calls. *)
let layer_summary o =
  let tbl = group o.spans (fun ~phase s -> [ (phase, layer_of s.Span.name) ]) in
  List.map
    (fun phase ->
      let n = float_of_int (max 1 (reps o phase)) in
      let total =
        List.fold_left
          (fun a s -> if s.Span.name = phase && s.Span.parent = None then a +. Span.duration_s s else a)
          0.0 o.spans
        /. n
      in
      let rows =
        Hashtbl.fold
          (fun (ph, l) a acc ->
            if ph = phase then
              (l, a.a_self /. n, a.a_words /. n, float_of_int a.a_calls /. n) :: acc
            else acc)
          tbl []
        |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
      in
      (phase, total, rows))
    [ "setup"; "pass" ]
