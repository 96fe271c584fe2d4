(** Synchronous client connection to one shard: blocking send/receive of
    {!Wire} messages over TCP.  One connection is single-threaded — the
    load generator runs one per shard per sender thread. *)

type t

val connect : host:string -> port:int -> (t, string) result
(** Dial the shard (TCP_NODELAY set).  Errors are connection-level
    (refused, unresolvable host). *)

val send : t -> Wire.req_msg -> (unit, string) result
val recv : t -> (Wire.resp_msg, string) result
(** Blocking receive of the next response frame.  [Error] covers a
    closed connection, a corrupt/mismatched frame and an undecodable
    envelope. *)

val rpc : t -> Wire.req_msg -> (Wire.resp_msg, string) result
(** [send] then [recv]. *)

val fd : t -> Unix.file_descr
val close : t -> unit
(** Idempotent. *)
