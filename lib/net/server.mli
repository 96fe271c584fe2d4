(** TCP front end of one shard node.

    One acceptor thread plus one reader thread per connection feed the
    node's {!Overgen_service.Service} worker pool; responses stream back
    from the worker domains through per-connection write locks.

    {b Request ids are server-assigned.}  Client ids are namespaced
    per-connection: every accepted compile gets a fresh internal id
    before it reaches the node, and the response's id is rewritten back
    just before the write.  Two clients can both use id 0 concurrently
    and each gets its own answer.

    {b Framing discipline.}  A torn, corrupt, mis-versioned or
    undecodable frame closes the connection and increments
    [overgen_net_frames_corrupt_total] — damage is contained, never
    interpreted.  The [net.frame_corrupt] fault point is visited before
    each received frame is parsed (an injection there is treated exactly
    like genuine corruption) and [net.conn_drop] after a compile request
    is read but before any response is written (an injection drops the
    whole connection, so the client must reconnect and retry — the
    cache's coalescing keeps the retried key from compiling twice).

    {b Graceful stop.}  {!stop} quiesces the node (new compiles get
    [Shutting_down]), waits for every in-flight request's response to be
    written, then closes the sockets.  The node itself is left to the
    caller. *)

type t

val listen : ?backlog:int -> port:int -> unit -> (Unix.file_descr * int, string) result
(** Bind a loopback listener ([SO_REUSEADDR]); [port = 0] picks a free
    port.  Returns the socket and the actual port.  Separate from
    {!start} so a multi-shard process can bind every shard's port before
    any node needs the full cluster configuration. *)

val start : ?flight_out:string -> node:Node.t -> fd:Unix.file_descr -> unit -> t
(** Start accepting on a socket from {!listen}.  Takes ownership of
    [fd] and registers the server's instruments in the node's registry
    ({!Node.metrics}): [overgen_net_frames_in/out_total],
    [overgen_net_frames_corrupt_total], [overgen_net_conns_total],
    [overgen_net_conn_drops_total], [overgen_net_redirects_total],
    [overgen_net_requests_total], [overgen_net_requests_failed_total],
    and the
    [overgen_net_request_ms] accept-to-answer latency histogram (fixed
    millisecond buckets).  [flight_out] names a JSONL file the flight recorder is
    dumped to — automatically on the first failed request and again, with
    full history, on graceful {!stop}. *)

val stop : ?drain_timeout_s:float -> t -> unit
(** Graceful stop as described above; [drain_timeout_s] (default 30)
    bounds the in-flight wait.  Idempotent. *)
