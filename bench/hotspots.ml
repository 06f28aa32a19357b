(* Hotspot sampler: where the simulator's host time goes, by OCaml frame.

     dune exec bench/hotspots.exe -- MODEL [ring|coherent] SECONDS

   Compiles MODEL (e.g. 164.gzip) with HCCv3 for the default 16-core
   machine, then repeats its simulated runs for SECONDS under a 1 ms
   ITIMER_PROF sampler and prints the top frames by self samples (the
   innermost frame) and by inclusive samples (any frame on the stack,
   counted once per sample).  [ring] repeats a sequential run and a
   HELIX-RC run (ring cache on, fully decoupled); [coherent] repeats a
   parallel run on the conventional machine (ring off, fully coupled).
   These are the two run shapes of the perfbench workloads; compilation
   and set-up are outside the sampled window.

   Bias: OCaml 5 runs signal handlers at poll points, not at the
   instruction the timer interrupted.  A C call (caml_hash, a memcpy, an
   allocation slow path) and an OCaml leaf that does not poll are
   therefore charged to the OCaml frame that called them, and the
   sample lands at the next allocation or loop back-edge.  Read a high
   self share as "this function or something it calls without polling". *)

open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads

let top_n = 25

let usage () =
  prerr_endline "usage: hotspots.exe MODEL [ring|coherent] SECONDS";
  exit 2

(* ---- the sampler -------------------------------------------------------- *)

let samples : Printexc.raw_backtrace list ref = ref []

let on_sigprof _ = samples := Printexc.get_callstack 64 :: !samples

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let slot_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
      match Printexc.Slot.location slot with
      | Some l ->
          Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
      | None -> "<unknown>")

(* A sample's frames, innermost first, without the handler's own. *)
let frames rb =
  match Printexc.backtrace_slots rb with
  | None -> []
  | Some slots ->
      Array.to_list slots |> List.map slot_name
      |> List.filter (fun name ->
             not (String.ends_with ~suffix:"on_sigprof" name))

let print_top title counts total =
  let rows =
    Hashtbl.fold (fun name n acc -> (n, name) :: acc) counts []
    |> List.sort (fun (a, x) (b, y) ->
           if a <> b then compare b a else compare x y)
  in
  Printf.printf "\n%s (%d samples)\n" title total;
  List.iteri
    (fun i (n, name) ->
      if i < top_n then
        Printf.printf "  %6.2f%%  %7d  %s\n"
          (100.0 *. float_of_int n /. float_of_int (max 1 total))
          n name)
    rows

let report () =
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let bump tbl name =
    Hashtbl.replace tbl name
      (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  let total = List.length !samples in
  List.iter
    (fun rb ->
      match frames rb with
      | [] -> bump self "<no frame>"
      | top :: _ as fs ->
          bump self top;
          List.iter (bump incl) (List.sort_uniq compare fs))
    !samples;
  print_top "self" self total;
  print_top "inclusive" incl total

(* ---- the runs ---------------------------------------------------------- *)

let () =
  let model, shape, seconds =
    match Sys.argv with
    | [| _; m; s; secs |] -> (
        match float_of_string_opt secs with
        | Some t when t > 0.0 && (s = "ring" || s = "coherent") -> (m, s, t)
        | _ -> usage ())
    | _ -> usage ()
  in
  let spec = (Registry.find model).Workload.build () in
  let compiled =
    Helix.compile (Hcc_config.v3 ~target_cores:16 ()) spec.Workload.prog
      spec.Workload.layout
      ~train_mem:(spec.Workload.init Workload.Train)
  in
  let mach = Mach_config.default in
  let run_par config =
    ignore
      (Executor.run ~compiled config compiled.Hcc.cp_prog
         (spec.Workload.init Workload.Ref))
  in
  let pass () =
    if shape = "ring" then begin
      ignore
        (Helix.run_sequential mach spec.Workload.prog
           (spec.Workload.init Workload.Ref));
      run_par
        (Executor.default_config ~ring:true ~comm:Executor.fully_decoupled mach)
    end
    else
      run_par
        (Executor.default_config ~ring:false ~comm:Executor.fully_coupled mach)
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 in
  set_timer 0.001;
  while Unix.gettimeofday () -. t0 < seconds do
    pass ();
    incr passes
  done;
  set_timer 0.0;
  Printf.printf "%s %s: %d passes in %.1f s\n" model shape !passes
    (Unix.gettimeofday () -. t0);
  report ()
