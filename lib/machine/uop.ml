(* Micro-operations: the interface between the runtime's eager functional
   execution and the core timing models.

   The runtime executes IR eagerly (registers and private memory are
   core-local, so early evaluation is safe) and emits one uop per retired
   instruction.  Shared-world operations (sequential-segment memory
   accesses, wait/signal, flush) cannot execute eagerly -- their semantics
   depend on the cycle at which they execute -- so they are emitted as
   [Shared] uops carrying the request; the core model performs them at
   their timed issue point through the executor's shared callback, and the
   optional [sink] receives the loaded value so the runtime can resume. *)

type shared_op =
  | S_load of int            (* word address *)
  | S_store of int * int     (* word address, value *)
  | S_wait of int            (* sequential segment id *)
  | S_signal of int
  | S_flush

type shared_outcome =
  | Sh_done of { latency : int; value : int }
  | Sh_retry   (* condition not met this cycle; poll again *)

type kind =
  | Alu of int               (* execution latency *)
  | Branch of { taken : bool; static_id : int }
  | Load_priv of int         (* private (non-segment) load, eager value *)
  | Store_priv of int
  | Shared of shared_op

type t = {
  kind : kind;
  srcs : int list;           (* source register tokens *)
  dst : int option;          (* destination register token *)
      (* Register tokens are small non-negative ints: the core models
         index dense arrays with them ([Scoreboard]).  In a simulation,
         [Context.token] is their only producer; a token is at most
         4 * the largest register + 3. *)
  sink : (int -> unit) option; (* receives a shared load's value *)
  mutable meta : int;
      (* runtime tag: the executor stamps each worker uop with the local
         iteration index it belongs to, so shared-op semantics (wait
         thresholds) stay correct even when an out-of-order window still
         holds a previous iteration's tail after the eager context has
         started the next one *)
}

let mk ?(srcs = []) ?dst ?sink kind = { kind; srcs; dst; sink; meta = 0 }

let is_shared u = match u.kind with Shared _ -> true | _ -> false

let is_sync u =
  match u.kind with
  | Shared (S_wait _ | S_signal _ | S_flush) -> true
  | _ -> false

let pp ppf u =
  let k =
    match u.kind with
    | Alu l -> Printf.sprintf "alu/%d" l
    | Branch { taken; _ } -> if taken then "br.t" else "br.nt"
    | Load_priv a -> Printf.sprintf "ld[%d]" a
    | Store_priv a -> Printf.sprintf "st[%d]" a
    | Shared (S_load a) -> Printf.sprintf "ld.sh[%d]" a
    | Shared (S_store (a, _)) -> Printf.sprintf "st.sh[%d]" a
    | Shared (S_wait s) -> Printf.sprintf "wait %d" s
    | Shared (S_signal s) -> Printf.sprintf "signal %d" s
    | Shared S_flush -> "flush"
  in
  Format.fprintf ppf "%s" k
