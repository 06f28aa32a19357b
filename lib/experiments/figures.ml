(* Every table and figure of the evaluation, in presentation order.

   One entry per CLI experiment command: its name and the reports it
   prints for a workload set.  Entries whose figure fixes its own
   workload set (the studies over the CINT models, the sensitivity
   sweeps) ignore the argument.  [helix_rc all] and the bench harness
   walk this list, and {!files} names each report's JSON table. *)

open Helix_workloads

let one report = fun _ -> [ report () ]

let all : (string * (Workload.t list -> Report.t list)) list =
  [
    ("fig1", fun workloads -> [ Fig1.report (Fig1.run ~workloads ()) ]);
    ("fig2", one (fun () -> Fig2.report (Fig2.run ())));
    ("fig3", one (fun () -> Fig3.report (Fig3.run ())));
    ("fig4", one (fun () -> Fig4.report (Fig4.run ())));
    ("table1", fun workloads -> [ Table1.report (Table1.run ~workloads ()) ]);
    ("fig7", fun workloads -> [ Fig7.report (Fig7.run ~workloads ()) ]);
    ("fig8", one (fun () -> Fig8.report (Fig8.run ())));
    ("fig9", one (fun () -> Fig9.report (Fig9.run ())));
    ("fig10", one (fun () -> Fig10.report (Fig10.run ())));
    ( "fig11",
      fun _ ->
        List.map
          (fun (title, sweep) ->
            Fig11.report ~title (sweep ?workloads:None ()))
          [
            ("Figure 11a: core count", Fig11.core_count);
            ("Figure 11b: link latency", Fig11.link_latency);
            ("Figure 11c: signal bandwidth", Fig11.signal_bandwidth);
            ("Figure 11d: node memory size", Fig11.node_memory);
          ] );
    ("fig12", fun workloads -> [ Fig12.report (Fig12.run ~workloads ()) ]);
    ("tlp", one (fun () -> Tlp_study.report (Tlp_study.run ())));
    ("ablations", one (fun () -> Ablations.report (Ablations.run ())));
  ]

(* File stems for an entry's reports: the entry's name for a single
   report, lettered a, b, ... for several (fig11a..fig11d). *)
let files name = function
  | [ r ] -> [ (name, r) ]
  | rs -> List.mapi (fun i r -> (name ^ String.make 1 (Char.chr (97 + i)), r)) rs
