open Helix_ir
open Helix_machine

(** Per-core functional execution engine: executes IR eagerly (registers
    and private memory are core-local, so early evaluation is safe) and
    yields one timed uop per retired instruction through a pull
    interface.  Shared-world semantics cannot run early: a load inside a
    sequential segment blocks the context until the core model fires its
    sink at the timed issue point.  Segment membership is decided exactly
    as in the paper's hardware: by counting executed wait and signal
    instructions. *)

type parallel_trigger = { p_func : string; p_header : Ir.label }

type status =
  | Running
  | Blocked                       (** awaiting a shared load's sink *)
  | Suspended of parallel_trigger (** serial core at a parallel header *)
  | Finished of int option

type program
(** A decoded program: every function's blocks as instruction arrays with
    their register tokens, static uop kinds, branch ids and resolved
    callees precomputed.  Decode once per simulation and share it between
    all contexts of that run. *)

val token : int -> Ir.reg -> int
(** [token cls r]: the register token of [r] in frame-depth class [cls]
    ([0] to [3], the frame depth modulo 4), as carried by [Uop.srcs] and
    [Uop.dst].  Registers alias modulo 65536.  The only producer of
    tokens. *)

val decode : ?trigger:(string -> Ir.label -> bool) -> Ir.program -> program
(** [trigger f header] marks the blocks at which a serial context
    suspends (the selected parallel-loop headers); default: none. *)

type t

val create : ?serial:bool -> program -> Memory.t -> core_id:int -> t
(** A [serial] context suspends on entering any block [decode]'s
    [trigger] marked (the serial core reached a selected parallel-loop
    header); worker contexts ignore the marks. *)

val start : t -> string -> int list -> unit
(** Begin executing [fname args]; discards any previous call. *)

val status : t -> status
val wait_depth : t -> int

val set_mem_hook :
  t -> (seg:int option -> addr:int -> write:bool -> unit) option -> unit
(** Dependence-sanitizer tap: called for every IR-level [Load]/[Store]
    with the innermost open segment (or [None] outside any wait..signal
    window).  Libcall-internal reads (strcmp/memchr) are not reported —
    they are private-world accesses by construction. *)

val current_segment : t -> int option
(** Innermost open segment of the executing context, if any. *)

val reg_value : t -> Ir.reg -> int
(** Current frame's register, e.g. to evaluate parallel-loop parameters
    at loop entry. *)

val set_reg : t -> Ir.reg -> int -> unit
val operand_value : t -> Ir.operand -> int

val jump_to : t -> Ir.label -> unit
(** Resume the current frame at [block] (the executor finishing a
    parallel loop sends the serial core to the loop exit). *)

val step : t -> Uop.t option
(** Execute at most one instruction; [None] with status [Running] means
    progress without a timed uop (an unconditional jump). *)

val next_uop : t -> Uop.t option
(** Pull the next uop, advancing as needed; [None] when blocked,
    suspended or finished. *)
