(* Library interface: the PPC design principles on real OCaml 5
   multicore — lock-free per-domain pools, one channel protocol on
   shared-memory segments (in-heap between domains, mmap'd between
   processes), and the crash containment around it.  The comparators
   the benchmarks measure against (the MPSC + condvar legacy path, the
   mutex-guarded registry) live in the benchmark library. *)

module Spsc_ring = Spsc_ring
module Doorbell = Doorbell
module Backoff = Backoff
module Fastcall = Fastcall
module Segment = Segment

(* The Fastcall dispatcher is defined in Control (Fastcall's channel
   path is built on Shm_channel, so Shm_channel cannot depend on
   Fastcall) and exported here under its protocol's name. *)
module Shm_channel = struct
  include Shm_channel

  let fastcall_dispatch = Control.fastcall_dispatch
end

module Shm_session = Shm_session
module Proc_supervisor = Proc_supervisor
module Control = Control
module Striped_counter = Striped_counter
module Treiber_stack = Treiber_stack
