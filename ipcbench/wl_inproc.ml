(* In-process workloads: the Fastcall channel path with a shard domain,
   and the copy engine with a live mover domain.  Both spawn domains, so
   they run in their own benchmark process, never before a fork. *)

module F = Runtime.Fastcall
module CE = Transfer.Copy_engine
module Errc = Ipc_intf.Errc
module Hist = Workload.Hist

let now = Calls.now

(* --- channel: closed loop over ring + doorbell to one shard -------------- *)

type chan = { srv : F.channel_server; cl : F.client; ep : int }

let chan_connect () =
  let fast = F.create () in
  let ep = F.register fast Calls.add in
  let srv = Host.on_own_cpu (fun () -> F.spawn_channel_server fast) in
  let cl = F.connect ~inline_uncontended:false srv in
  let a = Array.make F.arg_words 0 in
  Calls.fill a ~x:20 ~y:22 ~id:1 ~traced:false ~stamp:0;
  let rc = F.channel_call cl ~ep a in
  if not (Calls.reply_ok a ~rc ~x:20 ~y:22 ~id:1) then
    failwith "channel: first call";
  { srv; cl; ep }

let chan_disconnect c = F.shutdown_channel_server c.srv

type chan_layer = { call : Hist.t; handler : Hist.t; spans : Spans.t }

let chan_phase c (xs, ys) ~seconds ~traced ~layer:l =
  let a = Array.make F.arg_words 0 in
  let mask = Array.length xs - 1 in
  let bad = ref 0 in
  let ops, elapsed_s, windows =
    Stats.run_windows ~seconds ~cpu:Host.cpu_s (fun lat n ->
        for id = n to n + 63 do
          let i = id land mask in
          let x = xs.(i) and y = ys.(i) in
          Calls.fill a ~x ~y ~id ~traced ~stamp:0;
          let t0 = now () in
          let rc = F.channel_call c.cl ~ep:c.ep a in
          let t1 = now () in
          Hist.record lat (t1 - t0);
          if not (Calls.reply_ok a ~rc ~x ~y ~id) then incr bad
          else if traced then begin
            let h0 = a.(Calls.a_stamp) and h1 = a.(Calls.a_hexit) in
            Hist.record l.call (t1 - t0);
            Hist.record l.handler (h1 - h0);
            Spans.record l.spans ~name:0 ~id ~start:t0 ~stop:t1;
            Spans.record l.spans ~name:1 ~id ~start:h0 ~stop:h1
          end
        done;
        64)
  in
  { Wl_shm.ops; bad = !bad; elapsed_s; server_cpu_s = 0.; retries = 0; windows }

let channel out ~seed ~seconds ~trace ~trace_path =
  let inputs = Wl_shm.operands (Sim.Rng.create ~seed) in
  let l =
    {
      call = Hist.create ();
      handler = Hist.create ();
      spans = Spans.create ~names:[| "channel_call"; "handler" |];
    }
  in
  let c, first = Wl_shm.timed chan_connect in
  let run traced seconds =
    let p = chan_phase c inputs ~seconds ~traced ~layer:l in
    Wl_shm.count out p;
    p
  in
  ignore (run false 0.2 : Wl_shm.phase);
  let served0 = F.channel_served c.srv and batches0 = F.channel_batches c.srv in
  let rings0, wakes0, parks0 = F.channel_doorbell_stats c.srv in
  let grows0 = F.client_slab_grows c.cl and rejected0 = F.client_rejected c.cl in
  let phases =
    if trace then [ run false (seconds /. 2.); run true (seconds /. 2.) ]
    else [ run false seconds ]
  in
  let calls = List.fold_left (fun n (p : Wl_shm.phase) -> n + p.ops) 0 phases in
  let per_call v = float_of_int v /. float_of_int (max 1 calls) in
  let _, wakes1, parks1 = F.channel_doorbell_stats c.srv in
  ignore rings0;
  Out.set out "channel.calls_per_batch"
    (float_of_int (F.channel_served c.srv - served0)
    /. float_of_int (max 1 (F.channel_batches c.srv - batches0)));
  Out.set out "channel.parks_per_call" (per_call (parks1 - parks0));
  Out.set out "channel.wakes_per_call" (per_call (wakes1 - wakes0));
  Out.set out "channel.slab_grows"
    (float_of_int (F.client_slab_grows c.cl - grows0));
  Out.set out "channel.rejected_ratio"
    (per_call (F.client_rejected c.cl - rejected0));
  chan_disconnect c;
  Out.set out "peak_rss_mib" (float_of_int (Host.peak_rss_kib ()) /. 1024.);
  match phases with
  | [ p ] ->
      Wl_shm.set_end_to_end out p;
      Wl_shm.set_setup_s out ~first chan_connect chan_disconnect
  | [ u; t ] ->
      let s = Stats.summarize l.call in
      Out.set out "channel.call_ns.p50" (float_of_int s.Stats.p50);
      Out.set out "channel.call_ns.p99" (float_of_int s.Stats.tail);
      Out.set out "fastcall.handler_ns.p50"
        (float_of_int (Stats.summarize l.handler).Stats.p50);
      Out.set out "trace.overhead_pct" (Wl_shm.overhead_pct ~untraced:u ~traced:t);
      Spans.write_chrome_trace ~path:trace_path [ l.spans ]
  | _ -> assert false

(* --- bulk: copy engine rounds with a live mover -------------------------- *)

(* A round is [small_per_round] copies of about 4 KiB and one copy of
   about 1 MiB on one client, plus [grants_per_round] ownership
   handoffs, submitted with one kick per client.  One round is in the
   engine at a time: the client reaps the whole of round r, submits
   round r+1, and checks round r while the mover copies r+1.  So a
   round's latency holds no queue, and the mover has work while the
   client checks instead of parking.  Rounds pipelined two or three
   deep measured a queue instead: their latency was that of the rounds
   ahead, and its p99 spread about twice as wide between runs.
   Destinations and grant regions come in two sets, by round parity,
   so round r+1 never writes what round r is checked against.  The
   traced run adds one-class probes for the per-descriptor, bandwidth
   and handoff figures.  Sizes and offsets come from the seed. *)
let small_per_round = 16
let grants_per_round = 4
let small_src_bytes = 64 * 1024
let small_slot = 8 * 1024
let big_bytes = 2 * 1024 * 1024
let grant_bytes = 64 * 1024
let planned_rounds = 512
let descs_per_round = small_per_round + 1 + grants_per_round
let sets = 2

type plan = {
  src_small : Bytes.t;
  src_big : Bytes.t;
  s_len : int array;  (* per round * small_per_round *)
  s_src : int array;
  s_dst : int array;
  b_len : int array;  (* per round *)
  b_src : int array;
  b_dst : int array;
}

(* A copy is checked byte for byte against the plan's source, which
   the engine never sees (its source regions are copies of it). *)
external equal_range : Bytes.t -> int -> Bytes.t -> int -> int -> bool
  = "ipcbench_bytes_equal_range"
[@@noalloc]

let same dst ~dst_off src ~src_off ~len =
  if
    len < 0 || dst_off < 0 || src_off < 0
    || dst_off + len > Bytes.length dst
    || src_off + len > Bytes.length src
  then invalid_arg "Wl_inproc.same";
  equal_range dst dst_off src src_off len

let plan rng =
  let bytes n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
  let src_small = bytes small_src_bytes and src_big = bytes big_bytes in
  let ns = planned_rounds * small_per_round in
  let uniform lo hi = lo + Sim.Rng.int rng (hi - lo + 1) in
  let s_len = Array.init ns (fun _ -> uniform 3072 5120) in
  let s_src = Array.init ns (fun i -> uniform 0 (small_src_bytes - s_len.(i))) in
  let s_dst =
    Array.init ns (fun i ->
        (i mod small_per_round * small_slot) + uniform 0 (small_slot - s_len.(i)))
  in
  let b_len =
    Array.init planned_rounds (fun _ -> uniform (768 * 1024) (1280 * 1024))
  in
  let b_src = Array.init planned_rounds (fun i -> uniform 0 (big_bytes - b_len.(i))) in
  let b_dst = Array.init planned_rounds (fun i -> uniform 0 (big_bytes - b_len.(i))) in
  {
    src_small;
    src_big;
    s_len;
    s_src;
    s_dst;
    b_len;
    b_src;
    b_dst;
  }

type bulk = {
  eng : CE.t;
  store : CE.Buffers.store;
  mover : Transfer.Mover.t;
  ca : CE.client;
  cb : CE.client;
  r_src : int;
  r_big_src : int;
  r_dst : int array;  (* by set *)
  r_big_dst : int array;
  r_grant : int array array;
  owner : int array array;  (* expected owner of each grant region *)
  mutable pending : int;  (* completions outstanding *)
  mutable done_at : int;  (* when [pending] last reached 0 *)
  mutable bad_rc : int;
}

type bulk_layer = {
  submit : Hist.t;
  flush : Hist.t;
  reap : Hist.t;
  drain : Hist.t;
  handoff : Hist.t;
  bspans : Spans.t;
}

let region store ~owner bytes =
  match CE.Buffers.add store ~owner bytes with
  | Ok id -> id
  | Error rc -> failwith ("bulk: region " ^ Errc.to_string rc)

let copy_op = Ipc_intf.Wellknown.bulk_copy
let grant_op = Ipc_intf.Wellknown.bulk_grant

let submit_small b p ~id ~traced l =
  let r = id mod planned_rounds and set = id mod sets in
  for i = 0 to small_per_round - 1 do
    let k = (r * small_per_round) + i in
    let t0 = if traced then now () else 0 in
    let rc =
      CE.submit b.ca ~op:copy_op ~src:b.r_src ~src_off:p.s_src.(k)
        ~dst:b.r_dst.(set) ~dst_off:p.s_dst.(k) ~len:p.s_len.(k) ~tag:id
    in
    if traced then begin
      let t1 = now () in
      Hist.record l.submit (t1 - t0);
      Spans.record l.bspans ~name:0 ~id ~start:t0 ~stop:t1
    end;
    if rc = Errc.ok then b.pending <- b.pending + 1
    else b.bad_rc <- b.bad_rc + 1
  done

let submit_big b p ~id =
  let r = id mod planned_rounds and set = id mod sets in
  let rc =
    CE.submit b.ca ~op:copy_op ~src:b.r_big_src ~src_off:p.b_src.(r)
      ~dst:b.r_big_dst.(set) ~dst_off:p.b_dst.(r) ~len:p.b_len.(r) ~tag:id
  in
  if rc = Errc.ok then b.pending <- b.pending + 1
  else b.bad_rc <- b.bad_rc + 1

(* Hand grant region [g] of this round's set to the other client. *)
let submit_grant b ~id ~g =
  let set = id mod sets in
  let ida = CE.client_id b.ca and idb = CE.client_id b.cb in
  let from_, to_ =
    if b.owner.(set).(g) = ida then (b.ca, idb) else (b.cb, ida)
  in
  let rc =
    CE.submit from_ ~op:grant_op ~src:b.r_grant.(set).(g) ~src_off:0 ~dst:to_
      ~dst_off:0 ~len:0 ~tag:id
  in
  if rc = Errc.ok then b.pending <- b.pending + 1
  else b.bad_rc <- b.bad_rc + 1;
  b.owner.(set).(g) <- to_

let flush b ~id ~traced l =
  let t0 = if traced then now () else 0 in
  ignore (CE.flush b.ca : int);
  ignore (CE.flush b.cb : int);
  if traced then begin
    let t1 = now () in
    Hist.record l.flush (t1 - t0);
    Spans.record l.bspans ~name:1 ~id ~start:t0 ~stop:t1
  end

(* Reap until every submitted descriptor has completed.  The poll has
   no [Domain.cpu_relax]: on a virtual machine a long run of PAUSE
   instructions can make the hypervisor deschedule the vCPU, and runs
   that polled with it read more steal and a wider p99. *)
let wait_round b ~traced l =
  while b.pending > 0 do
    let t0 = now () in
    let k = CE.reap b.ca + CE.reap b.cb in
    if k > 0 && traced then Hist.record l.reap (now () - t0)
  done

(* Check what round [id] wrote: every byte of every copy and the
   owner of every granted region.  Returns the number of failures. *)
(* Reap whatever has completed, so that a round finishing while the
   client checks the one before it is stamped within a chunk's time. *)
let poll b = if b.pending > 0 then ignore (CE.reap b.ca + CE.reap b.cb : int)

let check_chunk = 64 * 1024

let verify b p ~id ~small ~big ~grants =
  let r = id mod planned_rounds and set = id mod sets in
  let bad = ref 0 in
  if small then begin
    let dst = CE.Buffers.get b.store b.r_dst.(set) in
    for i = 0 to small_per_round - 1 do
      let k = (r * small_per_round) + i in
      if
        not
          (same dst ~dst_off:p.s_dst.(k) p.src_small ~src_off:p.s_src.(k)
             ~len:p.s_len.(k))
      then incr bad;
      poll b
    done
  end;
  if big then begin
    let dst = CE.Buffers.get b.store b.r_big_dst.(set) in
    let len = p.b_len.(r) and ok = ref true and at = ref 0 in
    while !at < len do
      let n = min check_chunk (len - !at) in
      if not (same dst ~dst_off:(p.b_dst.(r) + !at) p.src_big ~src_off:(p.b_src.(r) + !at) ~len:n)
      then ok := false;
      poll b;
      at := !at + n
    done;
    if not !ok then incr bad
  end;
  for g = 0 to grants - 1 do
    if CE.Buffers.owner b.store b.r_grant.(set).(g) <> b.owner.(set).(g) then
      incr bad
  done;
  !bad

let bulk_connect p =
  let eng, store = CE.create_with_buffers () in
  let ca = CE.connect eng and cb = CE.connect eng in
  let ida = CE.client_id ca in
  let add bytes = region store ~owner:ida bytes in
  let by_set f = Array.init sets (fun _ -> f ()) in
  let b =
    {
      eng;
      store;
      mover = Host.on_own_cpu (fun () -> Transfer.Mover.spawn eng);
      ca;
      cb;
      r_src = add (Bytes.copy p.src_small);
      r_big_src = add (Bytes.copy p.src_big);
      r_dst = by_set (fun () -> add (Bytes.create (small_per_round * small_slot)));
      r_big_dst = by_set (fun () -> add (Bytes.create big_bytes));
      r_grant =
        by_set (fun () ->
            Array.init grants_per_round (fun _ -> add (Bytes.make grant_bytes 'g')));
      owner = by_set (fun () -> Array.make grants_per_round ida);
      pending = 0;
      done_at = 0;
      bad_rc = 0;
    }
  in
  let on_complete ~tag:_ ~rc =
    b.pending <- b.pending - 1;
    if b.pending = 0 then b.done_at <- now ();
    if rc <> Errc.ok then b.bad_rc <- b.bad_rc + 1
  in
  CE.set_on_complete ca on_complete;
  CE.set_on_complete cb on_complete;
  b

let bulk_disconnect b = Transfer.Mover.shutdown b.mover

let submit_round b p ~id ~traced l =
  submit_small b p ~id ~traced l;
  submit_big b p ~id;
  for g = 0 to grants_per_round - 1 do
    submit_grant b ~id ~g
  done;
  flush b ~id ~traced l

(* Rounds for [seconds], starting at round [first]. *)
let bulk_phase b p ~seconds ~traced ~layer:l ~first =
  let bad = ref 0 in
  let bad_rc0 = b.bad_rc in
  let check id =
    bad := !bad + verify b p ~id ~small:true ~big:true ~grants:grants_per_round
  in
  let submitted = ref (now ()) in
  submit_round b p ~id:first ~traced l;
  let rounds, elapsed_s, windows =
    Stats.run_windows ~seconds ~cpu:Host.cpu_s (fun lat n ->
        let id = first + n in
        wait_round b ~traced l;
        Hist.record lat (b.done_at - !submitted);
        submitted := now ();
        submit_round b p ~id:(id + 1) ~traced l;
        check id;
        1)
  in
  wait_round b ~traced l;
  check (first + rounds);
  if b.bad_rc > bad_rc0 then bad := max !bad (b.bad_rc - bad_rc0);
  {
    Wl_shm.ops = rounds + 1;
    bad = !bad;
    elapsed_s;
    server_cpu_s = 0.;
    retries = 0;
    windows;
  }

(* One class of descriptor at a time, one kick and a full reap per
   batch.  Returns (batches, bytes or grants moved, ns). *)
let probe b p ~seconds ~first ~layer:l ~kind =
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let n = ref 0 and moved = ref 0 and ns = ref 0 and bad = ref 0 in
  let bad_rc0 = b.bad_rc in
  while now () < t_end do
    let id = first + !n in
    let r = id mod planned_rounds in
    let t0 = now () in
    (match kind with
    | `Small -> submit_small b p ~id ~traced:true l
    | `Big -> submit_big b p ~id
    | `Grant -> submit_grant b ~id ~g:0);
    let t_flush = now () in
    flush b ~id ~traced:(kind = `Small) l;
    wait_round b ~traced:(kind = `Small) l;
    let t1 = now () in
    ns := !ns + (t1 - t0);
    (match kind with
    | `Small ->
        for i = 0 to small_per_round - 1 do
          moved := !moved + p.s_len.((r * small_per_round) + i)
        done;
        bad := !bad + verify b p ~id ~small:true ~big:false ~grants:0
    | `Big ->
        moved := !moved + p.b_len.(r);
        Hist.record l.drain (t1 - t_flush);
        Spans.record l.bspans ~name:2 ~id ~start:t_flush ~stop:t1;
        bad := !bad + verify b p ~id ~small:false ~big:true ~grants:0
    | `Grant ->
        incr moved;
        Hist.record l.handoff (t1 - t0);
        Spans.record l.bspans ~name:3 ~id ~start:t0 ~stop:t1;
        bad := !bad + verify b p ~id ~small:false ~big:false ~grants:1);
    incr n
  done;
  if b.bad_rc > bad_rc0 then bad := max !bad (b.bad_rc - bad_rc0);
  ( {
      Wl_shm.ops = !n;
      bad = !bad;
      elapsed_s = float_of_int !ns /. 1e9;
      server_cpu_s = 0.;
      retries = 0;
      windows = [];
    },
    !moved )

let bulk out ~seed ~seconds ~trace ~trace_path =
  let p = plan (Sim.Rng.create ~seed) in
  let l =
    {
      submit = Hist.create ();
      flush = Hist.create ();
      reap = Hist.create ();
      drain = Hist.create ();
      handoff = Hist.create ();
      bspans =
        Spans.create ~names:[| "copy.submit"; "copy.flush"; "copy.drain"; "grant.handoff" |];
    }
  in
  let connect () = bulk_connect p in
  let b, first = Wl_shm.timed connect in
  let next = ref 0 in
  let run traced seconds =
    let r = bulk_phase b p ~seconds ~traced ~layer:l ~first:!next in
    next := !next + r.ops + 1;
    Out.ops out ~attempted:(r.ops * descs_per_round) ~failed:r.bad;
    r
  in
  ignore (run false 0.2 : Wl_shm.phase);
  if not trace then begin
    let r = run false seconds in
    bulk_disconnect b;
    Out.set out "peak_rss_mib" (float_of_int (Host.peak_rss_kib ()) /. 1024.);
    Wl_shm.set_end_to_end out r;
    Wl_shm.set_setup_s out ~first connect bulk_disconnect
  end
  else begin
    let st0 = CE.stats b.eng in
    let u = run false (seconds /. 4.) in
    let t = run true (seconds /. 4.) in
    let st1 = CE.stats b.eng in
    let probe_s = seconds /. 6. in
    let probe name kind ~scale =
      let r, moved = probe b p ~seconds:probe_s ~first:!next ~layer:l ~kind in
      next := !next + r.ops + 1;
      let descs = match kind with `Small -> small_per_round | `Big | `Grant -> 1 in
      Out.ops out ~attempted:(r.ops * descs) ~failed:r.bad;
      Out.set out name (float_of_int moved /. scale /. r.elapsed_s)
    in
    let mib = 1024. *. 1024. in
    probe "bulk.copy_4k_mib_per_s" `Small ~scale:mib;
    probe "bulk.copy_1m_mib_per_s" `Big ~scale:mib;
    probe "bulk.grants_per_s" `Grant ~scale:1.;
    bulk_disconnect b;
    let p50 s = float_of_int (Stats.summarize s).Stats.p50 in
    Out.set out "copy.submit_ns.p50" (p50 l.submit);
    Out.set out "copy.flush_ns.p50" (p50 l.flush);
    Out.set out "copy.reap_ns.p50" (p50 l.reap);
    Out.set out "copy.descs_per_ring"
      (float_of_int (st1.served - st0.served)
      /. float_of_int
           (max 1
              (st1.doorbell_rings + st1.doorbell_wakes - st0.doorbell_rings
             - st0.doorbell_wakes)));
    Out.set out "copy.drain_us.p50" (p50 l.drain /. 1e3);
    Out.set out "grant.handoff_us.p50" (p50 l.handoff /. 1e3);
    Out.set out "trace.overhead_pct" (Wl_shm.overhead_pct ~untraced:u ~traced:t);
    Spans.write_chrome_trace ~path:trace_path [ l.bspans ]
  end
