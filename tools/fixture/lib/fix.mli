val used : int
(** Read by the fixture's executable. *)

val unused : int
(** Referenced by no other unit. *)

val tested : int -> int
(** Called only by the fixture's test, and this comment gives no reason. *)
