(** Fastcall's legacy cross-domain path, kept as a benchmark baseline:
    a server domain draining an allocating MPSC queue, with a fresh
    request record, mutex and condvar per call.  Ablation A5 measures
    the channel path against it. *)

type server_domain

val spawn_server : Runtime.Fastcall.t -> server_domain
(** A domain that serves cross-domain requests from an MPSC queue. *)

val cross_call : server_domain -> ep:int -> int array -> int
(** Enqueue on the server domain and spin, then block, until
    completion.  Allocates a request record, mutex and condvar per
    call.  Returns the RC slot. *)

val shutdown_server : server_domain -> unit
val served : server_domain -> int
