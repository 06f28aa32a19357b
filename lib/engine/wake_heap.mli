(** Binary min-heap of (cycle, component-id) wake-up promises.

    The engine uses lazy deletion: entries are never removed when a
    component's promise moves, they are simply skipped at pop time when
    they no longer match the component's cached promise.  The heap
    therefore only needs [push], [peek] of the current minimum and
    [drop] of the top entry. *)

type t

val create : unit -> t
val clear : t -> unit
val size : t -> int

val push : t -> cycle:int -> id:int -> unit

val peek : t -> (int * int) option
(** Smallest [(cycle, id)] entry, by cycle, or [None] when empty. *)

val top_cycle : t -> int
(** [peek]'s cycle without allocating; [max_int] when empty. *)

val top_id : t -> int
(** [peek]'s id without allocating; [-1] when empty. *)

val drop : t -> unit
(** Remove the top entry.  No-op on an empty heap. *)

val pushes : t -> int
(** Total entries ever pushed (for instrumentation). *)
