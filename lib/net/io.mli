(** Blocking socket I/O helpers shared by the server and the sync client:
    exact-length reads/writes with EINTR retry, and frame-granularity
    send/receive on top of {!Wire}. *)

exception Closed
(** The peer closed the connection (EOF mid-read, or EPIPE/reset on
    write). *)

val quiet_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (idempotent), so a write to a dead
    socket raises instead of killing the process.  Called by every
    transport entry point. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string.  @raise Closed when the peer is gone. *)

val send_frame : Unix.file_descr -> string -> unit
(** Frame a payload with {!Wire.frame} and write it. *)

val recv_frame : Unix.file_descr -> (string, Wire.frame_error) result
(** Read one complete frame (header, then payload) and verify it.
    @raise Closed on EOF at or inside a frame. *)
