(* The channel call path on a Segment: request cells, SPSC ring
   head/tail/slots, the doorbell word and the lifecycle / heartbeat
   words are all offsets computed from Ipc_intf.Wire_abi — so the
   identical protocol runs over an in-heap word array (Fastcall's queued
   channel path, one segment per (client, shard) pair; tests) and over
   an mmap'd file shared by two OS processes (true cross-protection-
   domain PPC, the paper's call path with the protection boundary
   finally real).

   Roles.  A segment hosts exactly one server and one client, each
   represented by a [t] in its own process (or domain).  The client
   owns the submission ring's tail, the free stack and every cell not
   in flight; the server owns the submission ring's head and the
   reclaim ring's tail.  Each owner's words share lines with nothing
   the other side writes (Wire_abi v3), and the client re-reads the
   server's head only when its cached copy says the ring is full, so a
   warm call moves only the submission slot and tail lines and the
   cell's own lines between the two sides.  Every wait in this module
   — the client's [await] and the serving loop's idle — climbs one ladder
   ([idle_step]): spin, then sched_yield, then naps doubling to a cap
   that bounds both wakeup latency and deadline overshoot.  Processes
   cannot share condvars, so a segment carries no PARKED protocol of
   its own; an in-process server that wants to sleep (a Fastcall shard)
   parks on its own Doorbell and rechecks [pending].

   Crash containment across whole-process death.  Each side bumps its
   heartbeat word continuously; a waiter whose peer's heartbeat stays
   frozen across [probe_window_ns] probes the recorded pid with
   kill(pid, 0) (zombies count as alive — reap your forks).  On a
   confirmed death the survivor sweeps the segment exactly once per
   cell, arbitrated by CAS on the cell state word:

     pending   -CAS-> done + rc := handler_fault   (in-flight call fails)
     abandoned -CAS-> free                          (stranded timed-out cell)

   so every in-flight call observes [Errc.handler_fault], every cell
   returns to the free stack exactly once, and submissions after the
   verdict answer [Errc.peer_dead].  This is the paper's §4.5.6 CD
   reclamation contract, extended from "server shard died" to "the
   entire peer process is gone".

   Session recovery.  Death containment is bidirectional and the
   segment outlives both endpoints.  A server that finds its client
   dead sweeps and then *releases the session* ([release_session]):
   rings, cells and the client words are rebuilt under the generation
   seqlock so a fresh client can attach to the same segment — the
   [serve_sessions] loop does this and keeps serving.  A server that
   dies is replaced by [Proc_supervisor]: the supervisor regenerates
   the whole segment in place ([regenerate], same seqlock, never a
   truncate — shrinking a mapped file would SIGBUS survivors), and a
   surviving client notices the generation it recorded at attach no
   longer matches the live word.  Every client-facing operation fails
   closed with [Errc.stale_generation] on that mismatch; the channel
   value is then defunct and the owner reattaches via [attach_file]
   (Shm_session automates this, retrying the interrupted call under
   Backoff so callers see at most [Errc.retry], never a hang). *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc

type role = Server | Client

type t = {
  seg : Segment.t;
  role : role;
  capacity : int;
  arg_words : int;
  rc_slot : int;
  cell_words : int;
  cells_base : int;
  spin : int;  (* cpu-relax budget before yielding *)
  probe_window_ns : int;
  mutable gen : int;
  (* the segment generation this endpoint attached under; a live value
     that differs means the segment was rebuilt and this [t] is defunct *)
  (* client: free stack of cell indices; unused by the server *)
  free : int array;
  mutable free_len : int;
  mutable head_seen : int;
  (* client: last submission head read from the server's line.  The
     head only grows, so a stale copy can only make the ring look
     fuller than it is; the live word is re-read only then. *)
  mutable hb : int;  (* local heartbeat counter, mirrored to the segment *)
  mutable peer_dead : bool;
  mutable swept : int;  (* in-flight calls this side failed on peer death *)
  mutable timeouts : int;
  mutable submitted : int;
  mutable served : int;
  mutable batches : int;
  (* liveness probe state *)
  mutable peer_hb_seen : int;
  mutable peer_hb_changed_ns : int;
  scratch : int array;  (* server-side argument staging *)
}

(* --- layout helpers -------------------------------------------------------- *)

let cell_state t i = t.cells_base + (i * t.cell_words)
let cell_ep t i = t.cells_base + (i * t.cell_words) + 1
let cell_arg t i j = t.cells_base + (i * t.cell_words) + 2 + j

let my_hb_off t =
  match t.role with
  | Server -> W.off_server_heartbeat
  | Client -> W.off_client_heartbeat

let peer_hb_off t =
  match t.role with
  | Server -> W.off_client_heartbeat
  | Client -> W.off_server_heartbeat

let peer_pid_off t =
  match t.role with Server -> W.off_client_pid | Client -> W.off_server_pid

let my_state_off t =
  match t.role with Server -> W.off_server_state | Client -> W.off_client_state

let peer_state_off t =
  match t.role with Server -> W.off_client_state | Client -> W.off_server_state

let bump_heartbeat t =
  t.hb <- t.hb + 1;
  Segment.set t.seg (my_hb_off t) t.hb

(* --- construction ---------------------------------------------------------- *)

let total_words ~capacity ~arg_words = W.total_words ~capacity ~arg_words

(* Lay a segment out under the generation seqlock.  The creator need
   not be either endpoint — in the forked demo the parent lays the
   segment out before forking the server.  Generations are monotonic
   across rebuilds of the same words: a fresh (zeroed) segment goes
   0 -> 1 -> 2, a regeneration 2 -> 3 -> 4, and a builder that died at
   an odd value is skipped past, so no two builds share a generation
   and an attacher can always order them. *)
let layout ?(capacity = 64) ?(arg_words = 8) seg =
  Spsc_ring.validate_capacity "Shm_channel.layout" capacity;
  if arg_words <= 0 then
    invalid_arg "Shm_channel.layout: arg_words must be > 0";
  let words = total_words ~capacity ~arg_words in
  if Segment.length seg < words then
    invalid_arg
      (Printf.sprintf "Shm_channel.layout: segment holds %d words, need %d"
         (Segment.length seg) words);
  let g = Segment.get seg W.off_generation in
  let building = if g land 1 = 1 then g + 2 else g + 1 in
  Segment.set seg W.off_generation building (* odd: under construction *);
  Segment.set seg W.off_magic W.magic;
  Segment.set seg W.off_version W.abi_version;
  Segment.set seg W.off_total_words words;
  Segment.set seg W.off_capacity capacity;
  Segment.set seg W.off_arg_words arg_words;
  (* pids, both owned header lines and their padding: ring heads and
     tails, heartbeats, states and counters all start from zero *)
  for off = W.off_server_pid to W.header_words - 1 do
    Segment.set seg off 0
  done;
  let cw = W.cell_words ~arg_words in
  let base = W.cells_base ~capacity in
  for i = 0 to capacity - 1 do
    for j = 0 to cw - 1 do
      Segment.set seg (base + (i * cw) + j) 0
    done
  done;
  Segment.set seg W.off_generation (building + 1) (* even: open for attach *)

let create_heap ?(capacity = 64) ?(arg_words = 8) () =
  Spsc_ring.validate_capacity "Shm_channel.create_heap" capacity;
  let seg = Segment.create_heap ~words:(total_words ~capacity ~arg_words) in
  layout ~capacity ~arg_words seg;
  seg

let create_file ~path ?(capacity = 64) ?(arg_words = 8) () =
  let seg =
    Segment.map_file ~path ~words:(total_words ~capacity ~arg_words)
      ~create:true ()
  in
  layout ~capacity ~arg_words seg;
  ignore (Segment.msync seg : int);
  seg

exception Bad_segment of string

let validate seg =
  if Segment.get seg W.off_magic <> W.magic then
    raise (Bad_segment "bad magic (not a PPC segment, or wrong endianness)");
  let v = Segment.get seg W.off_version in
  if v <> W.abi_version then
    raise
      (Bad_segment
         (Printf.sprintf "ABI version %d, this build speaks %d" v W.abi_version));
  let gen = Segment.get seg W.off_generation in
  if gen = 0 || gen land 1 = 1 then
    raise (Bad_segment "segment still under construction (odd generation)")

(* Rebuild an existing segment in place for a fresh lease: same
   geometry (read back from the header), next generation.  The caller
   is a supervisor replacing a dead server.  Deliberately never
   truncates or remaps the file: a surviving client still holds a
   mapping, and shrinking a mapped file turns its loads into SIGBUS —
   instead the survivor reads the bumped generation and fails closed
   with [Errc.stale_generation]. *)
let regenerate seg =
  if Segment.get seg W.off_magic <> W.magic then
    raise (Bad_segment "regenerate: not a PPC segment");
  let capacity = Segment.get seg W.off_capacity in
  let arg_words = Segment.get seg W.off_arg_words in
  layout ~capacity ~arg_words seg

(* Default cpu-relax budget before a waiter starts yielding.  Spinning
   only pays when the peer can make progress on another core; on a
   single-CPU box the whole budget is burned while the peer is
   descheduled, so the fast path there is to hand the core over almost
   immediately (the paper's hand-off discipline, enforced by the
   scheduler). *)
let default_spin =
  if Domain.recommended_domain_count () <= 1 then 16 else 2048

let attach ?(spin = default_spin) ?(probe_window_ns = 50_000_000) ~role seg =
  validate seg;
  let capacity = Segment.get seg W.off_capacity in
  let arg_words = Segment.get seg W.off_arg_words in
  let pid_off =
    match role with Server -> W.off_server_pid | Client -> W.off_client_pid
  in
  (* One endpoint per role per segment: attaching over a live slot
     would add a second writer to single-writer words.  The slot is
     open when its pid word is 0 — fresh build, regeneration, or the
     server released the session — or already ours (same-process
     re-attach; every in-process test and bench runs both roles under
     one pid).  A successor process must wait for the release/rebuild:
     Shm_session retries under its connect deadline. *)
  let holder = Segment.get seg pid_off in
  if holder <> 0 && holder <> Unix.getpid () then
    raise
      (Bad_segment
         (Printf.sprintf "%s slot held by pid %d"
            (match role with Server -> "server" | Client -> "client")
            holder));
  let t =
    {
      seg;
      role;
      capacity;
      arg_words;
      rc_slot = arg_words - 1;
      cell_words = W.cell_words ~arg_words;
      cells_base = W.cells_base ~capacity;
      spin;
      probe_window_ns;
      gen = Segment.get seg W.off_generation;
      free = Array.init capacity (fun i -> capacity - 1 - i);
      free_len = (match role with Client -> capacity | Server -> 0);
      head_seen = Segment.get seg W.off_submit_head;
      hb = 0;
      peer_dead = false;
      swept = 0;
      timeouts = 0;
      submitted = 0;
      served = 0;
      batches = 0;
      peer_hb_seen = 0;
      peer_hb_changed_ns = Doorbell.now_ns ();
      scratch = Array.make arg_words 0;
    }
  in
  Segment.set seg pid_off (Unix.getpid ());
  bump_heartbeat t;
  Segment.set seg (my_state_off t) W.peer_ready;
  t

(* Map an existing segment file: read the header from a minimal mapping
   first (the full extent is in the header), then map the whole thing.
   Spins until the creator's seqlock opens, bounded by [timeout_ns].
   [after_generation] makes a reattach wait out the rebuild: only a
   segment whose (even, open) generation exceeds it is accepted, so a
   client that just observed [Errc.stale_generation] at generation g
   cannot re-latch onto the very mapping it fled. *)
let attach_file ?spin ?probe_window_ns ?(timeout_ns = 5_000_000_000)
    ?(after_generation = 0) ~role path =
  let deadline = Doorbell.now_ns () + timeout_ns in
  let rec header_seg () =
    let ok =
      match Segment.map_file ~path ~words:W.header_words ~create:false () with
      | seg -> (
          match validate seg with
          | () ->
              if Segment.get seg W.off_generation > after_generation then
                Some seg
              else None
          | exception Bad_segment _ -> None)
      | exception Unix.Unix_error _ -> None
    in
    match ok with
    | Some seg -> seg
    | None ->
        if Doorbell.now_ns () > deadline then
          raise (Bad_segment (path ^ ": no valid segment appeared in time"))
        else begin
          Doorbell.nap_ns 200_000;
          header_seg ()
        end
  in
  let hdr = header_seg () in
  let words = Segment.get hdr W.off_total_words in
  let seg = Segment.map_file ~path ~words ~create:false () in
  attach ?spin ?probe_window_ns ~role seg

let segment t = t.seg
let capacity t = t.capacity
let arg_words t = t.arg_words
let generation t = t.gen

(* The segment was rebuilt (regenerated, or the session released) after
   this endpoint attached: every operation on [t] now fails closed. *)
let stale t = Segment.get t.seg W.off_generation <> t.gen

(* --- the wait ladder -------------------------------------------------------- *)

let yield_rounds = 64
let nap_floor_ns = 1_000
let nap_cap_ns = 50_000

(* One rung of the module's only wait ladder, shared by [await] and the
   serving loop: [t.spin] cpu-relax rungs, then [yield_rounds]
   sched_yield rungs (on a single core they hand the CPU to the peer
   that owes the work), then naps doubling from [nap_floor_ns] to
   [nap_cap_ns].  [idle] counts rungs climbed so far; the result is the
   nap for the next rung.  Immediate ints in and out, so a waiter
   climbing it allocates nothing. *)
let idle_step t idle nap =
  if idle < t.spin then begin
    Domain.cpu_relax ();
    nap
  end
  else if idle < t.spin + yield_rounds then begin
    Doorbell.yield ();
    nap
  end
  else begin
    Doorbell.nap_ns nap;
    min (2 * nap) nap_cap_ns
  end

(* --- liveness -------------------------------------------------------------- *)

(* One probe step, called from wait loops.  Cheap path: peer heartbeat
   moved, remember when.  Slow path (heartbeat frozen past the window):
   kill(pid, 0).  Both sides run the same machine. *)
let probe_peer t =
  if not t.peer_dead then begin
    let hb = Segment.get t.seg (peer_hb_off t) in
    let now = Doorbell.now_ns () in
    if hb <> t.peer_hb_seen then begin
      t.peer_hb_seen <- hb;
      t.peer_hb_changed_ns <- now
    end
    else if now - t.peer_hb_changed_ns > t.probe_window_ns then begin
      let pid = Segment.get t.seg (peer_pid_off t) in
      if pid <> 0 && not (Segment.pid_alive pid) then t.peer_dead <- true;
      (* rate-limit the syscall to once per window while the peer is a
         live-but-idle process *)
      t.peer_hb_changed_ns <- now - (t.probe_window_ns / 2)
    end
  end;
  t.peer_dead

let peer_dead t = t.peer_dead

(* Fail/reclaim every cell the dead peer held, exactly once per cell
   (CAS-arbitrated, so calling this twice — or racing a late sweep
   against an await that triggered its own — cannot double-recycle).
   Returns how many cells this invocation swept.  Idempotent. *)
let sweep_dead_peer t =
  let n = ref 0 in
  for i = 0 to t.capacity - 1 do
    let st = cell_state t i in
    if
      Segment.cas t.seg st ~expected:W.state_pending ~desired:W.state_done
    then begin
      (* An in-flight call: complete it locally with handler_fault so
         its awaiter unblocks with the containment verdict.  Single
         writer now (the peer is dead), so the rc store after the state
         flip is observed by this process's own await loop only. *)
      Segment.set t.seg (cell_arg t i t.rc_slot) Errc.handler_fault;
      incr n;
      ignore (Segment.fetch_add t.seg W.off_peer_faults 1 : int)
    end
    else if
      Segment.cas t.seg st ~expected:W.state_abandoned ~desired:W.state_free
    then begin
      (* A cell the client abandoned on deadline whose reclaim the dead
         server still owed: recycle it straight to the free stack. *)
      (match t.role with
      | Client ->
          t.free.(t.free_len) <- i;
          t.free_len <- t.free_len + 1
      | Server -> ());
      incr n;
      ignore (Segment.fetch_add t.seg W.off_reclaimed 1 : int)
    end
  done;
  t.swept <- t.swept + !n;
  !n

(* --- client side ----------------------------------------------------------- *)

(* Drain the server->client reclaim ring into the free stack (the
   §4.5.6 side stack, cold path). *)
let drain_reclaim t =
  let cap = t.capacity in
  let head = ref (Segment.get t.seg W.off_reclaim_head) in
  let tail = Segment.get t.seg W.off_reclaim_tail in
  while !head < tail do
    let idx = Segment.get t.seg (W.reclaim_slot ~capacity:cap !head) in
    t.free.(t.free_len) <- idx;
    t.free_len <- t.free_len + 1;
    incr head;
    Segment.set t.seg W.off_reclaim_head !head
  done

let free_cells t =
  drain_reclaim t;
  t.free_len

let in_flight t = t.capacity - free_cells t

(* Ring space, from the cached head first: the server's head line is
   read only when the cache says the ring is full. *)
let ring_full t tail =
  tail - t.head_seen > t.capacity - 1
  && begin
       t.head_seen <- Segment.get t.seg W.off_submit_head;
       tail - t.head_seen > t.capacity - 1
     end

(* Submit one call: acquire a cell, stage the arguments, publish it
   through the submission ring, ring the doorbell.  Returns the cell
   index (>= 0) to [await] on, or a negative [Errc] code ([retry] on
   exhaustion, [peer_dead] once the peer is known dead,
   [stale_generation] once the segment was rebuilt underneath this
   mapping).  The sign-split return keeps the warm path free of result
   boxes — this is what [call] rides; {!submit} wraps it for ergonomic
   callers.  Client only; allocation-free. *)
let submit_raw t ~ep args =
  if t.peer_dead then Errc.peer_dead
  else if stale t then Errc.stale_generation
  else begin
    if t.free_len = 0 then drain_reclaim t;
    if t.free_len = 0 then Errc.retry
    else begin
      let tail = Segment.get t.seg W.off_submit_tail in
      if ring_full t tail then Errc.retry
      else begin
        t.free_len <- t.free_len - 1;
        let i = t.free.(t.free_len) in
        Segment.set t.seg (cell_ep t i) ep;
        Segment.store_words t.seg (cell_arg t i 0) args t.arg_words;
        Segment.set t.seg (cell_state t i) W.state_pending;
        Segment.set t.seg (W.submit_slot ~capacity:t.capacity tail) i;
        Segment.set t.seg W.off_submit_tail (tail + 1);
        (* Keep this a seq_cst RMW.  Segment stores are release-only, so
           the tail store above does not order a later load of another
           word; this fetch_add is the store->load fence between
           publishing the tail and the caller's next read.  Fastcall's
           queued path reads its shard's Doorbell right after, and a
           parked shard publishes PARKED and then rechecks [pending]:
           without the fence both could read the other's old value and
           the call would sit in the ring with the shard asleep (the
           Dekker-shaped lost wakeup). *)
        ignore (Segment.fetch_add t.seg W.off_doorbell 1 : int);
        bump_heartbeat t;
        t.submitted <- t.submitted + 1;
        i
      end
    end
  end

let submit t ~ep args =
  let r = submit_raw t ~ep args in
  if r >= 0 then Ok r else Error r

(* Wait for cell [i] to complete; copy the reply back into [args] and
   recycle the cell.  [deadline] is absolute CLOCK_MONOTONIC ns
   ([max_int] = none): on expiry the cell is abandoned to the server by
   the Pending->Abandoned CAS handoff and the call answers
   [Errc.timed_out].  Peer death answers [Errc.handler_fault] via the
   sweep; a segment rebuilt mid-wait answers [Errc.stale_generation]
   and orphans the cell with the old session (the channel is defunct —
   do not recycle into a slab that no longer exists).  Climbs the wait
   ladder; allocation-free.

   While the ladder is on its spin rungs the state word is the only
   thing read: the clock, the staleness and liveness checks and this
   side's heartbeat all wait until the reply is late, so a reply that
   lands while spinning costs one load per rung.  (A deadline shorter
   than the spin budget therefore still pays the whole spin — a few
   dozen microseconds at most.)

   The loop is a top-level function taking its whole state as immediate
   arguments — a local recursive closure (or ref cells) would cost a
   minor allocation per call and break the zero-alloc pin. *)
let rec await_loop t i args deadline st_off idle nap =
  if Segment.get t.seg st_off = W.state_done then begin
    Segment.load_words t.seg (cell_arg t i 0) args t.arg_words;
    Segment.set t.seg st_off W.state_free;
    t.free.(t.free_len) <- i;
    t.free_len <- t.free_len + 1;
    args.(t.rc_slot)
  end
  else if idle < t.spin then
    await_loop t i args deadline st_off (idle + 1) (idle_step t idle nap)
  else if deadline <> max_int && Doorbell.now_ns () > deadline then
    if
      Segment.cas t.seg st_off ~expected:W.state_pending
        ~desired:W.state_abandoned
    then begin
      (* Ownership handed to the server: it discards the late reply
         and returns the cell through the reclaim ring. *)
      t.timeouts <- t.timeouts + 1;
      args.(t.rc_slot) <- Errc.timed_out;
      Errc.timed_out
    end
    else await_loop t i args deadline st_off idle nap
    (* lost the race to Done: take the reply *)
  else if stale t then begin
    args.(t.rc_slot) <- Errc.stale_generation;
    Errc.stale_generation
  end
  else begin
    if probe_peer t then ignore (sweep_dead_peer t : int);
    bump_heartbeat t;
    await_loop t i args deadline st_off (idle + 1) (idle_step t idle nap)
  end

let await_deadline t ~deadline i args =
  await_loop t i args deadline (cell_state t i) 0 nap_floor_ns

let await ?(deadline = max_int) t i args = await_deadline t ~deadline i args

let call t ~ep args =
  let i = submit_raw t ~ep args in
  if i < 0 then begin
    args.(t.rc_slot) <- i;
    i
  end
  else await t i args

let call_deadline t ~ep ~deadline args =
  let i = submit_raw t ~ep args in
  if i < 0 then begin
    args.(t.rc_slot) <- i;
    i
  end
  else await_deadline t ~deadline i args

(* Announce clean shutdown to the serving side (its loop exits once the
   ring is dry). *)
let announce_shutdown t =
  Segment.set t.seg (my_state_off t) W.peer_shutdown

(* --- server side ----------------------------------------------------------- *)

type dispatch = ep_word:int -> int array -> int

(* Return an abandoned cell through the reclaim ring.  Cannot overflow:
   the ring has as many slots as there are cells. *)
let reclaim_cell t i =
  let cap = t.capacity in
  Segment.set t.seg (cell_state t i) W.state_free;
  let tail = Segment.get t.seg W.off_reclaim_tail in
  Segment.set t.seg (W.reclaim_slot ~capacity:cap tail) i;
  Segment.set t.seg W.off_reclaim_tail (tail + 1);
  ignore (Segment.fetch_add t.seg W.off_reclaimed 1 : int)

(* Drain the submission ring once: run every queued call through
   [dispatch], publish replies, recycle abandoned cells.  Returns how
   many requests were served.  Server only. *)
let serve_once t ~dispatch =
  let cap = t.capacity in
  let served = ref 0 in
  let head = ref (Segment.get t.seg W.off_submit_head) in
  let tail = Segment.get t.seg W.off_submit_tail in
  while !head < tail do
    let i = Segment.get t.seg (W.submit_slot ~capacity:cap !head) in
    incr head;
    Segment.set t.seg W.off_submit_head !head;
    let st = Segment.get t.seg (cell_state t i) in
    if st = W.state_pending then begin
      Segment.load_words t.seg (cell_arg t i 0) t.scratch t.arg_words;
      let ep_word = Segment.get t.seg (cell_ep t i) in
      let rc =
        match dispatch ~ep_word t.scratch with
        | rc -> rc
        | exception _ -> Errc.handler_fault
      in
      t.scratch.(t.rc_slot) <- rc;
      Segment.store_words t.seg (cell_arg t i 0) t.scratch t.arg_words;
      if
        not
          (Segment.cas t.seg (cell_state t i) ~expected:W.state_pending
             ~desired:W.state_done)
      then
        (* The client abandoned the call while the handler ran: the
           reply is discarded, the cell is the server's to recycle —
           exactly once, because only the CAS loser reclaims. *)
        reclaim_cell t i
    end
    else if st = W.state_abandoned then reclaim_cell t i;
    incr served;
    t.served <- t.served + 1
  done;
  if !served > 0 then t.batches <- t.batches + 1;
  bump_heartbeat t;
  !served

(* Release a dead (or departed) client's session so the segment can
   host a successor without a server restart: sweep the client's cells
   exactly once (every in-flight call gets its verdict, every stranded
   abandoned cell is recycled — the containment half of the tentpole),
   then rebuild rings, cells and the client words under the generation
   seqlock.  The client is confirmed dead so no live process holds the
   old session, but a half-attached straggler mapping would observe
   the odd generation mid-rebuild and fail closed like any stale
   reader.  Cumulative counters (doorbell, reclaimed, peer_faults,
   sessions) survive the release: they are observability, not session
   state.  The server's own [t] follows the new generation and keeps
   serving.  Server only. *)
let release_session t =
  (match t.role with
  | Server -> ()
  | Client -> invalid_arg "Shm_channel.release_session: server role required");
  ignore (sweep_dead_peer t : int);
  let seg = t.seg in
  let g = Segment.get seg W.off_generation in
  let building = if g land 1 = 1 then g + 2 else g + 1 in
  Segment.set seg W.off_generation building;
  Segment.set seg W.off_client_pid 0;
  Segment.set seg W.off_client_heartbeat 0;
  Segment.set seg W.off_client_state W.peer_absent;
  Segment.set seg W.off_submit_head 0;
  Segment.set seg W.off_submit_tail 0;
  Segment.set seg W.off_reclaim_head 0;
  Segment.set seg W.off_reclaim_tail 0;
  for i = 0 to t.capacity - 1 do
    for j = 0 to t.cell_words - 1 do
      Segment.set seg (t.cells_base + (i * t.cell_words) + j) 0
    done
  done;
  ignore (Segment.fetch_add seg W.off_sessions 1 : int);
  Segment.set seg W.off_generation (building + 1);
  t.gen <- building + 1;
  t.peer_dead <- false;
  t.peer_hb_seen <- 0;
  t.peer_hb_changed_ns <- Doorbell.now_ns ()

(* Work visible in the submission ring.  Server side: the recheck a
   parked in-process server runs before it sleeps, and a supervisor's
   "is this server owed work?" probe. *)
let pending t =
  Segment.get t.seg W.off_submit_tail <> Segment.get t.seg W.off_submit_head

(* The serving loop: drain, climb the wait ladder when dry, and exit
   when the client announces shutdown (and the ring is dry) or the
   segment is regenerated underneath this server (a supervisor
   replaced it while it was presumed dead — fail closed, and in
   particular do not write a shutdown announcement into a session that
   is no longer ours).  What a confirmed client death triggers is the
   only difference between [serve] and [serve_sessions]: with no
   [on_release] the loop sweeps the dead client's cells and exits; with
   one it releases the session, fires [on_release] and keeps serving
   for the next client. *)
let rec serve_loop t ~dispatch ~on_release idle nap =
  if stale t then ()
  else if serve_once t ~dispatch > 0 then
    serve_loop t ~dispatch ~on_release 0 nap_floor_ns
  else if Segment.get t.seg (peer_state_off t) = W.peer_shutdown then ()
  else if probe_peer t then begin
    match on_release with
    | None -> ignore (sweep_dead_peer t : int)
    | Some f ->
        release_session t;
        f ();
        serve_loop t ~dispatch ~on_release 0 nap_floor_ns
  end
  else serve_loop t ~dispatch ~on_release (idle + 1) (idle_step t idle nap)

let run_server t ~dispatch ~on_release =
  serve_loop t ~dispatch ~on_release 0 nap_floor_ns;
  if not (stale t) then announce_shutdown t;
  t.served

let serve t ~dispatch = run_server t ~dispatch ~on_release:None

let serve_sessions ?(on_release = fun () -> ()) t ~dispatch =
  (match t.role with
  | Server -> ()
  | Client -> invalid_arg "Shm_channel.serve_sessions: server role required");
  run_server t ~dispatch ~on_release:(Some on_release)

(* --- observability --------------------------------------------------------- *)

let swept t = t.swept
let timeouts t = t.timeouts
let submitted t = t.submitted
let served t = t.served
let batches t = t.batches
let doorbell_rings t = Segment.get t.seg W.off_doorbell
let reclaimed t = Segment.get t.seg W.off_reclaimed
let peer_faults t = Segment.get t.seg W.off_peer_faults
let sessions_released t = Segment.get t.seg W.off_sessions
let peer_pid t = Segment.get t.seg (peer_pid_off t)
let peer_ready t = Segment.get t.seg (peer_state_off t) = W.peer_ready

(* Block (bounded) until the peer writes its ready state — the handshake
   a forking demo does before its first call. *)
let wait_peer_ready ?(timeout_ns = 5_000_000_000) t =
  let deadline = Doorbell.now_ns () + timeout_ns in
  let rec go () =
    if peer_ready t then true
    else if Doorbell.now_ns () > deadline then false
    else begin
      Doorbell.nap_ns 200_000;
      go ()
    end
  in
  go ()
