(** Per-core register scoreboard: the ready cycle of every register
    token, in a dense array indexed by the token.

    Tokens are the small non-negative ints of [Uop.srcs]/[Uop.dst]; the
    array grows to the largest token written. *)

type t

val create : unit -> t

val get : t -> int -> int
(** Ready cycle of a token; [0] for a token never written. *)

val set : t -> int -> int -> unit
(** [set t r c] records that token [r] is ready at cycle [c], growing
    the board if [r] is beyond it; earlier writes are kept. *)
