(* Host-speed calibration.  On a shared host the speed of memory-bound
   code swings by 2-3x within minutes, and the simulator's run times
   follow it.  So every timed window is bracketed by a fixed reference
   kernel, and a window of [secs] seconds next to kernel times averaging
   [ref_s] is reported as [secs *. nominal_s /. ref_s]: the seconds it
   would take on a host where the kernel takes [nominal_s].  The kernel
   is the benchmark's own code, so a change to the simulator cannot
   move it.

   The kernel does what the simulator's inner loops do to the memory
   system: dependent loads in random order over a heap larger than a
   core's L2, with a short-lived allocation at each step. *)

(* One random cycle through 2^20 slots (8 MB), made by Sattolo's
   shuffle: [next.{i}] is the slot visited after [i].  It lives outside
   the OCaml heap, so it does not change how much work the GC does for
   the simulator. *)
let next =
  lazy
    (let open Bigarray in
     let n = 1 lsl 20 in
     let next = Array1.init int c_layout n Fun.id in
     let st = Random.State.make [| 1 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = next.{i} in
       next.{i} <- next.{j};
       next.{j} <- t
     done;
     next)

let steps = 400_000

(* Seconds of one run of the kernel. *)
let kernel () =
  let next = Lazy.force next in
  let t0 = Span.now_ns () in
  let i = ref 0 and s = ref 0 in
  for _ = 1 to steps do
    i := next.{!i};
    s := !s + List.length [ !i; !s ]
  done;
  ignore (Sys.opaque_identity !s);
  Span.seconds_between t0 (Span.now_ns ())

(* About the kernel's median seconds on the 2 GHz Xeon host the
   benchmark was written on; calibrated times are seconds at that
   speed.  It is a fixed constant: changing it rescales every calibrated
   figure. *)
let nominal_s = 0.06

(* [f ()] timed, with the mean of the kernel's times just before and
   just after it. *)
let timed f =
  let r0 = kernel () in
  let t0 = Span.now_ns () in
  let x = f () in
  let t1 = Span.now_ns () in
  let r1 = kernel () in
  (x, Span.seconds_between t0 t1, (r0 +. r1) /. 2.0)

let calibrated ~secs ~ref_s = secs *. nominal_s /. ref_s
