(* Cross-process workloads: the client is this process, the server a
   forked child on an mmap'd segment serving through
   [Shm_channel.fastcall_dispatch], wrapped by the benchmark's own
   dispatch span.  Nothing here spawns a domain: forking after a
   [Domain.spawn] wedges the child's GC. *)

module Ch = Runtime.Shm_channel
module Seg = Runtime.Segment
module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Hist = Workload.Hist

let now = Calls.now

(* --- the server process ------------------------------------------------- *)

(* Names the server publishes: the null call, then the three open-loop
   entry points. *)
let names = [| "bench.add"; "bench.svc0"; "bench.svc1"; "bench.svc2" |]

type server_report = {
  served : int;
  batches : int;
  handler_faults : int;
  server_hwm_kib : int;
  server_spans : Spans.t option;  (* None when no call was traced *)
}

let span_names = [| "pickup"; "dispatch"; "handler"; "control" |]

let serve seg ~report =
  let fast = Runtime.Fastcall.create () in
  let ctl = Runtime.Control.install fast in
  Array.iteri
    (fun i name ->
      let id =
        Runtime.Fastcall.register fast (if i = 0 then Calls.add else Calls.service)
      in
      if Runtime.Control.publish ctl ~principal:7 ~name ~ep:id <> Errc.ok then
        failwith ("publish " ^ name))
    names;
  (* allocated on the first traced call, so untraced set-up does not
     pay for the span buffer *)
  let spans = lazy (Spans.create ~names:span_names) in
  let inner = Ch.fastcall_dispatch fast ctl in
  let dispatch ~ep_word a =
    if a.(Calls.a_in) = 0 then inner ~ep_word a
    else begin
      let submitted = a.(Calls.a_stamp) and op = a.(0) in
      let t0 = now () in
      a.(Calls.a_in) <- t0;
      let rc = inner ~ep_word a in
      let t1 = now () in
      a.(Calls.a_out) <- t1;
      let spans = Lazy.force spans in
      if ep_word = W.ctl_ep then
        Spans.record spans ~name:3 ~id:op ~start:t0 ~stop:t1
      else begin
        let id = a.(Calls.a_id) in
        Spans.record spans ~name:0 ~id ~start:submitted ~stop:t0;
        Spans.record spans ~name:1 ~id ~start:t0 ~stop:t1;
        Spans.record spans ~name:2 ~id ~start:a.(Calls.a_stamp)
          ~stop:a.(Calls.a_hexit)
      end;
      rc
    end
  in
  let srv = Ch.attach ~role:Ch.Server seg in
  ignore (Ch.serve srv ~dispatch : int);
  let r =
    {
      served = Ch.served srv;
      batches = Ch.batches srv;
      handler_faults = Runtime.Fastcall.handler_faults fast;
      server_hwm_kib = Host.peak_rss_kib ();
      server_spans = (if Lazy.is_val spans then Some (Lazy.force spans) else None);
    }
  in
  Out_channel.with_open_bin report (fun oc -> Marshal.to_channel oc r [])

(* --- the client's connection ------------------------------------------- *)

(* Forked servers not yet reaped, so a failing run can stop them. *)
let servers = ref []

let kill_servers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !servers;
  servers := []

type conn = {
  pid : int;
  seg : Seg.t;
  ch : Ch.t;
  path : string;
  report : string;
  ids : int array;  (* raw entry-point ids, by [names] index *)
  eps : int array;  (* the same as wire entry-point words *)
  xhandle : int;  (* wire handle of the exchange target *)
}

let ctl a ch = Ch.call ch ~ep:W.ctl_ep a

let fill_lookup a name =
  let w0, w1 = Option.get (W.pack_name name) in
  Array.fill a 0 (Array.length a) 0;
  a.(0) <- W.ctl_lookup;
  a.(1) <- w0;
  a.(2) <- w1

let fill_exchange a ~handle ~tag =
  let code, param = W.spec_to_wire (Ipc_intf.Sigs.Stamp tag) in
  Array.fill a 0 (Array.length a) 0;
  a.(0) <- W.ctl_exchange;
  a.(1) <- handle;
  a.(2) <- code;
  a.(3) <- param

let connections = ref 0

(* Create a segment, fork a server on it and connect: set-up ends
   with the first checked reply. *)
let connect () =
  incr connections;
  let base = Printf.sprintf "%d-%d" (Unix.getpid ()) !connections in
  let path = Host.out_path ("seg-" ^ base) in
  let report = Host.out_path ("srv-" ^ base) in
  let seg = Ch.create_file ~path () in
  flush_all ();
  match Host.on_own_cpu Unix.fork with
  | 0 ->
      let code = match serve seg ~report with () -> 0 | exception _ -> 3 in
      Unix._exit code
  | pid ->
      servers := pid :: !servers;
      let fail msg =
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        servers := List.filter (( <> ) pid) !servers;
        failwith msg
      in
      let ch = Ch.attach ~role:Ch.Client seg in
      if not (Ch.wait_peer_ready ch) then fail "server never became ready";
      let a = Array.make (Ch.arg_words ch) 0 in
      let ids =
        Array.map
          (fun name ->
            fill_lookup a name;
            if ctl a ch <> Errc.ok then fail ("lookup " ^ name);
            a.(0))
          names
      in
      Array.fill a 0 (Array.length a) 0;
      a.(0) <- W.ctl_register;
      (let code, param = W.spec_to_wire (Ipc_intf.Sigs.Stamp 0) in
       a.(1) <- code;
       a.(2) <- param);
      if ctl a ch <> Errc.ok then fail "register exchange target";
      let xhandle = a.(0) in
      let eps = Array.map W.pack_raw_call ids in
      Calls.fill a ~x:20 ~y:22 ~id:1 ~traced:false ~stamp:0;
      let rc = Ch.call ch ~ep:eps.(0) a in
      if not (Calls.reply_ok a ~rc ~x:20 ~y:22 ~id:1) then fail "first call";
      { pid; seg; ch; path; report; ids; eps; xhandle }

(* Shut the server down and collect its report. *)
let disconnect c =
  Ch.announce_shutdown c.ch;
  let _, status = Unix.waitpid [] c.pid in
  servers := List.filter (( <> ) c.pid) !servers;
  let rep =
    match status with
    | Unix.WEXITED 0 ->
        Some
          (In_channel.with_open_bin c.report (fun ic ->
               (Marshal.from_channel ic : server_report)))
    | _ -> None
  in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ c.path; c.report ];
  rep

let drop c = ignore (disconnect c : server_report option)

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, float_of_int (now () - t0) /. 1e9)

let setup_rounds = 41

(* Set [setup_s] to the median time of [setup_rounds] set-ups: [first],
   the one the run used, and the rest made here, each torn down at
   once.  Workloads call this after their timed region and after
   reading peak memory.  At process start a virtual machine's idle
   vCPU can take milliseconds to wake, so a burst of set-ups made
   there read 1.5-2x slower in some runs, which measured the host
   rather than the set-up.  A full collection after each teardown keeps
   the heap, and with it the cost of the next fork, from growing. *)
let set_setup_s out ~first connect disconnect =
  let rec go k acc =
    if k = setup_rounds then Stats.median_float acc
    else begin
      let c, s = timed connect in
      disconnect c;
      Gc.full_major ();
      go (k + 1) (s :: acc)
    end
  in
  Out.set out "setup_s" (go 1 [ first ])

(* Per-layer samples of the traced phases. *)
type layer = {
  submit : Hist.t;
  pickup : Hist.t;
  return : Hist.t;
  handler : Hist.t;
  self : Hist.t;
  lookup : Hist.t;
  exchange : Hist.t;
  client_spans : Spans.t;
}

let layer () =
  {
    submit = Hist.create ();
    pickup = Hist.create ();
    return = Hist.create ();
    handler = Hist.create ();
    self = Hist.create ();
    lookup = Hist.create ();
    exchange = Hist.create ();
    client_spans = Spans.create ~names:[| "call"; "submit" |];
  }

(* Stage spans of one traced data call, from the stamps in its reply. *)
let record_data_call l a ~t0 ~t2 =
  let entry = a.(Calls.a_in) and exit_ = a.(Calls.a_out) in
  let h0 = a.(Calls.a_stamp) and h1 = a.(Calls.a_hexit) in
  Hist.record l.pickup (entry - t0);
  Hist.record l.return (t2 - exit_);
  Hist.record l.handler (h1 - h0);
  Hist.record l.self (Stats.self_time ~start:entry ~stop:exit_ [ (h0, h1) ]);
  let id = a.(Calls.a_id) in
  Spans.record l.client_spans ~name:0 ~id ~start:t0 ~stop:t2

type phase = {
  ops : int;
  bad : int;
  elapsed_s : float;
  server_cpu_s : float;
  retries : int;
  windows : Stats.window list;
}


(* Client + server CPU seconds so far. *)
let cpu_both c = Host.cpu_s () +. Host.proc_cpu_s c.pid

let p99_us s = float_of_int (Stats.summarize s).Stats.tail /. 1e3

(* --- pingpong: closed loop, one call in flight --------------------------- *)

let operands rng =
  let n = 1 lsl 16 in
  ( Array.init n (fun _ -> Sim.Rng.int rng (1 lsl 40)),
    Array.init n (fun _ -> Sim.Rng.int rng (1 lsl 40)) )

(* A closed loop over the connection: [batch lat n] issues calls from
   index n on and returns how many; the phase totals and windows them.
   [retries] counts submits the segment refused for want of a cell. *)
let closed_phase c ~seconds ~bad ~retries batch =
  let scpu0 = Host.proc_cpu_s c.pid in
  let ops, elapsed_s, windows =
    Stats.run_windows ~seconds ~cpu:(fun () -> cpu_both c) batch
  in
  {
    ops;
    bad = !bad;
    elapsed_s;
    server_cpu_s = Host.proc_cpu_s c.pid -. scpu0;
    retries = !retries;
    windows;
  }

let pingpong_phase c (xs, ys) ~seconds ~traced ~layer:l =
  let a = Array.make (Ch.arg_words c.ch) 0 in
  let ep = c.eps.(0) in
  let mask = Array.length xs - 1 in
  let bad = ref 0 and retries = ref 0 in
  closed_phase c ~seconds ~bad ~retries (fun lat n ->
      for id = n to n + 63 do
        let i = id land mask in
        let x = xs.(i) and y = ys.(i) in
        let t0 = now () in
        Calls.fill a ~x ~y ~id ~traced ~stamp:t0;
        let t1 = ref 0 in
        let rc =
          if traced then begin
            let cell = Ch.submit_raw c.ch ~ep a in
            t1 := now ();
            if cell < 0 then cell else Ch.await c.ch cell a
          end
          else Ch.call c.ch ~ep a
        in
        let t1 = !t1 in
        let t2 = now () in
        Hist.record lat (t2 - t0);
        if not (Calls.reply_ok a ~rc ~x ~y ~id) then incr bad
        else if traced then begin
          Hist.record l.submit (t1 - t0);
          Spans.record l.client_spans ~name:1 ~id ~start:t0 ~stop:t1;
          record_data_call l a ~t0 ~t2
        end
      done;
      64)

(* --- pipelined: closed loop, [depth] calls in flight ----------------------- *)

(* The mean number of calls in flight in the open loop at its 40 000/s
   rate, by Little's law (arrival rate times mean latency from the due
   time): the median of seven untraced 10 s runs (seeds 1-7) on a
   2-vCPU x86-64 virtual machine was 4.0 calls (runs: 2.2, 2.5, 2.6,
   4.0, 5.2, 1042, 2561; the last two each held one hypervisor stall
   of a few hundred ms).  So the closed loop keeps the open loop's
   typical queue at the server without its stalls. *)
let depth = 4

let pipelined_phase c (xs, ys) ~seconds ~traced ~layer:l =
  let a = Array.make (Ch.arg_words c.ch) 0 in
  let ep = c.eps.(0) in
  let mask = Array.length xs - 1 in
  let cells = Array.make depth 0 and t0s = Array.make depth 0 in
  let bad = ref 0 and retries = ref 0 in
  closed_phase c ~seconds ~bad ~retries (fun lat n ->
      for k = 0 to depth - 1 do
        let id = n + k in
        let i = id land mask in
        let t0 = now () in
        Calls.fill a ~x:xs.(i) ~y:ys.(i) ~id ~traced ~stamp:t0;
        let cell = ref (Ch.submit_raw c.ch ~ep a) in
        (* a refused submit waits for the server to free a cell *)
        while !cell = Errc.retry do
          incr retries;
          Domain.cpu_relax ();
          cell := Ch.submit_raw c.ch ~ep a
        done;
        cells.(k) <- !cell;
        t0s.(k) <- t0;
        if traced then begin
          let t1 = now () in
          Hist.record l.submit (t1 - t0);
          Spans.record l.client_spans ~name:1 ~id ~start:t0 ~stop:t1
        end
      done;
      for k = 0 to depth - 1 do
        let id = n + k in
        let i = id land mask in
        let rc = if cells.(k) < 0 then cells.(k) else Ch.await c.ch cells.(k) a in
        let t2 = now () in
        Hist.record lat (t2 - t0s.(k));
        if not (Calls.reply_ok a ~rc ~x:xs.(i) ~y:ys.(i) ~id) then incr bad
        else if traced then record_data_call l a ~t0:t0s.(k) ~t2
      done;
      depth)

(* Control-plane calls in a closed loop: lookups, with an exchange every
   tenth call, each checked and timed by the server's dispatch span. *)
let control_probe c ~calls ~layer:l =
  let a = Array.make (Ch.arg_words c.ch) 0 in
  let bad = ref 0 in
  for k = 0 to calls - 1 do
    let exchange = k mod 10 = 9 in
    if exchange then fill_exchange a ~handle:c.xhandle ~tag:k
    else fill_lookup a names.(1 + (k mod 3));
    a.(Calls.a_in) <- 1;
    let rc = ctl a c.ch in
    let ok = rc = Errc.ok && (exchange || a.(0) = c.ids.(1 + (k mod 3))) in
    if not ok then incr bad
    else
      Hist.record (if exchange then l.exchange else l.lookup)
        (a.(Calls.a_out) - a.(Calls.a_in))
  done;
  !bad

(* --- openloop: Poisson arrivals ----------------------------------------- *)

(* Operation kinds in a schedule. *)
let k_lookup = 3
let k_exchange = 4

(* Three data entry points picked by Zipf, each with a lognormal
   service time; about 1% lookups and 0.1% exchanges land in between. *)
let svc_mean_ns = [| 1_000.; 3_000.; 9_000. |]
let svc_sigma = 0.5

type schedule = {
  due : int array;  (* ns after the phase starts *)
  work : int array;  (* (service ns lsl 3) lor kind *)
  xs : int array;  (* operand table, indexed by arrival land mask *)
}

let schedule rng ~rate ~seconds =
  let n = int_of_float (rate *. seconds *. 1.2) + 16 in
  let horizon = seconds *. 1e9 in
  let gap = Workload.Sampler.Exponential { mean = 1e9 /. rate } in
  let svc =
    Array.map
      (fun mean ->
        Workload.Sampler.Lognormal
          { mu = log mean -. (svc_sigma *. svc_sigma /. 2.); sigma = svc_sigma })
      svc_mean_ns
  in
  let zipf = Workload.Zipf.create ~n:3 ~theta:0.99 ~rng in
  let due = Array.make n 0 and work = Array.make n 0 in
  let t = ref 0. and k = ref 0 in
  while !k < n && !t < horizon do
    t := !t +. Workload.Sampler.draw gap rng;
    due.(!k) <- int_of_float !t;
    let u = Sim.Rng.float rng 1. in
    let kind =
      if u < 0.001 then k_exchange
      else if u < 0.011 then k_lookup
      else Workload.Zipf.sample_u zipf (Sim.Rng.float rng 1.)
    in
    let ns =
      if kind < 3 then int_of_float (Workload.Sampler.draw svc.(kind) rng) else 0
    in
    work.(!k) <- (ns lsl 3) lor kind;
    incr k
  done;
  {
    due = Array.sub due 0 !k;
    work = Array.sub work 0 !k;
    xs = Array.init 4096 (fun _ -> Sim.Rng.int rng (1 lsl 40));
  }

(* The generator sleeps through a gap only when nothing is in flight
   and the next arrival is further off than a nap can overshoot; it
   polls otherwise, so completions are observed when they happen. *)
let nap_min_ns = 1_200_000
let nap_margin_ns = 1_000_000

type open_result = {
  phase : phase;
  late : Hist.t;  (* submit time minus due time, ns *)
  offered_per_s : float;
  achieved_ratio : float;  (* achieved submission rate / offered *)
  kept_up : bool;  (* completions finished within 5% of the schedule *)
  in_flight : float;  (* mean calls in flight, by Little's law *)
}

let open_phase c (s : schedule) ~traced ~layer:l =
  let ch = c.ch and seg = c.seg in
  let cap = Ch.capacity ch and aw = Ch.arg_words ch in
  let state_off i = W.cell_state ~capacity:cap ~arg_words:aw i in
  let a = Array.make aw 0 and r = Array.make aw 0 in
  let n = Array.length s.due in
  let live = Array.make cap 0 and nlive = ref 0 in
  let c_arrival = Array.make cap 0 and c_t0 = Array.make cap 0 in
  let late = Hist.create () in
  (* latencies by the window their arrival was due in *)
  let lat_w =
    Array.init
      ((s.due.(n - 1) / Stats.window_ns) + 1)
      (fun _ -> Hist.create ())
  in
  let bad = ref 0 and done_ = ref 0 and retries = ref 0 and next = ref 0 in
  let last_submit = ref 0 and xtag = ref 0 and waited = ref 0 in
  let xmask = Array.length s.xs - 1 in
  let scpu0 = Host.proc_cpu_s c.pid in
  let start = now () + 1_000_000 in
  let walls = ref [] in
  let w0 = ref start and wcpu0 = ref (cpu_both c) and wdone0 = ref 0 in
  let close_window t =
    let cpu = cpu_both c in
    walls := (!done_ - !wdone0, t - !w0, cpu -. !wcpu0) :: !walls;
    w0 := t;
    wcpu0 := cpu;
    wdone0 := !done_
  in
  let complete cell rc t2 =
    let k = c_arrival.(cell) in
    let kind = s.work.(k) land 7 in
    Hist.record lat_w.(s.due.(k) / Stats.window_ns) (t2 - (start + s.due.(k)));
    waited := !waited + (t2 - (start + s.due.(k)));
    let ok =
      if kind = k_lookup then rc = Errc.ok && r.(0) = c.ids.(1 + (k mod 3))
      else if kind = k_exchange then rc = Errc.ok
      else Calls.reply_ok r ~rc ~x:s.xs.(k land xmask) ~y:(s.work.(k) lsr 3) ~id:k
    in
    if not ok then incr bad
    else if traced then begin
      let span = r.(Calls.a_out) - r.(Calls.a_in) in
      if kind = k_lookup then Hist.record l.lookup span
      else if kind = k_exchange then Hist.record l.exchange span
      else record_data_call l r ~t0:c_t0.(cell) ~t2
    end;
    incr done_
  in
  let fill k =
    let w = s.work.(k) in
    let kind = w land 7 in
    if kind = k_lookup then begin
      fill_lookup a names.(1 + (k mod 3));
      W.ctl_ep
    end
    else if kind = k_exchange then begin
      incr xtag;
      fill_exchange a ~handle:c.xhandle ~tag:!xtag;
      W.ctl_ep
    end
    else begin
      Calls.fill a ~x:s.xs.(k land xmask) ~y:(w lsr 3) ~id:k ~traced:false
        ~stamp:0;
      c.eps.(1 + kind)
    end
  in
  while !next < n || !nlive > 0 do
    let j = ref 0 in
    while !j < !nlive do
      let cell = live.(!j) in
      if Seg.get seg (state_off cell) = W.state_done then begin
        let rc = Ch.await ch cell r in
        complete cell rc (now ());
        decr nlive;
        live.(!j) <- live.(!nlive)
      end
      else incr j
    done;
    let blocked = ref false in
    while (not !blocked) && !next < n && start + s.due.(!next) <= now () do
      let k = !next in
      let ep = fill k in
      let t0 = now () in
      if traced then begin
        a.(Calls.a_in) <- 1;
        if ep <> W.ctl_ep then a.(Calls.a_stamp) <- t0
      end;
      let cell = Ch.submit_raw ch ~ep a in
      if cell >= 0 then begin
        let t1 = now () in
        if traced then Hist.record l.submit (t1 - t0);
        Hist.record late (t0 - (start + s.due.(k)));
        c_arrival.(cell) <- k;
        c_t0.(cell) <- t0;
        live.(!nlive) <- cell;
        incr nlive;
        last_submit := t0;
        incr next
      end
      else if cell = Errc.retry then begin
        incr retries;
        blocked := true
      end
      else begin
        incr bad;
        incr next
      end
    done;
    let t = now () in
    if t - !w0 >= Stats.window_ns then close_window t;
    if !nlive = 0 && !next < n then begin
      let gap = start + s.due.(!next) - now () in
      if gap > nap_min_ns then Runtime.Doorbell.nap_ns (gap - nap_margin_ns)
    end
    else Domain.cpu_relax ()
  done;
  let t_end = now () in
  if t_end - !w0 >= Stats.window_ns / 2 || !walls = [] then close_window t_end;
  (* pair wall-clock windows (rate, CPU) with due-time windows (latency) *)
  let windows =
    List.filteri (fun i _ -> i < Array.length lat_w) (List.rev !walls)
    |> List.mapi (fun i (ops, ns, cpu_s) -> Stats.window lat_w.(i) ~ops ~ns ~cpu_s)
  in
  let server_cpu_s = Host.proc_cpu_s c.pid -. scpu0 in
  let span_due = float_of_int (max 1 s.due.(n - 1)) in
  let phase =
    {
      ops = n;
      bad = !bad;
      elapsed_s = float_of_int (t_end - start) /. 1e9;
      server_cpu_s;
      retries = !retries;
      windows;
    }
  in
  {
    phase;
    late;
    offered_per_s = float_of_int n /. (span_due /. 1e9);
    achieved_ratio = span_due /. float_of_int (max 1 (!last_submit - start));
    kept_up = float_of_int (t_end - start) <= 1.05 *. span_due;
    in_flight = float_of_int !waited /. float_of_int (max 1 (t_end - start));
  }

(* --- runs ----------------------------------------------------------------- *)

(* Close the connection and fold the server's report and the client's
   transport counters into the result.  Any nonzero fault counter
   fails the run. *)
let finish out c ~(client : phase) =
  let timeouts = Ch.timeouts c.ch and swept = Ch.swept c.ch in
  let peer_faults = Ch.peer_faults c.ch in
  let submitted = Ch.submitted c.ch and rings = Ch.doorbell_rings c.ch in
  let rep = disconnect c in
  Out.set out "shm.timeouts" (float_of_int timeouts);
  Out.set out "shm.peer_faults" (float_of_int peer_faults);
  Out.set out "shm.swept" (float_of_int swept);
  Out.set out "shm.rings_per_call"
    (float_of_int rings /. float_of_int (max 1 submitted));
  Out.set out "shm.server_cpu_util" (client.server_cpu_s /. client.elapsed_s);
  Out.set out "shm.retry_ratio"
    (float_of_int client.retries /. float_of_int (max 1 (client.ops + client.retries)));
  if timeouts + peer_faults + swept > 0 then
    Out.problem out
      (Printf.sprintf "shm fault counters: timeouts=%d peer_faults=%d swept=%d"
         timeouts peer_faults swept);
  match rep with
  | None ->
      Out.problem out "server process did not exit cleanly";
      None
  | Some r ->
      Out.set out "shm.calls_per_batch"
        (float_of_int r.served /. float_of_int (max 1 r.batches));
      Out.set out "fastcall.handler_faults" (float_of_int r.handler_faults);
      if r.handler_faults > 0 then
        Out.problem out (Printf.sprintf "%d handler faults" r.handler_faults);
      Out.set out "peak_rss_mib"
        (float_of_int (Host.peak_rss_kib () + r.server_hwm_kib) /. 1024.);
      Some r

let count out (p : phase) = Out.ops out ~attempted:p.ops ~failed:p.bad

let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

let set_end_to_end out (p : phase) =
  let ws = p.windows in
  note "latency over %d samples in %d windows; tail percentile p%g"
    (List.fold_left (fun n w -> n + w.Stats.w_n) 0 ws)
    (List.length ws)
    (100. *. List.fold_left (fun m w -> Float.min m w.Stats.w_level) 1. ws);
  Out.set out "ops_per_s" (Stats.median_rate p.windows);
  Out.set out "latency_p50_us" (Stats.median_p50_us p.windows);
  Out.set out "latency_p99_us" (Stats.median_tail_us p.windows);
  Out.set out "cpu_us_per_op" (Stats.median_cpu_us_per_op p.windows)

let overhead_pct ~(untraced : phase) ~(traced : phase) =
  100. *. ((Stats.median_p50_us traced.windows /. Stats.median_p50_us untraced.windows) -. 1.)

let set_layers out l =
  let p50 s = float_of_int (Stats.summarize s).Stats.p50 in
  Out.set out "shm.submit_ns.p50" (p50 l.submit);
  Out.set out "shm.pickup_us.p50" (p50 l.pickup /. 1e3);
  Out.set out "shm.pickup_us.p99" (p99_us l.pickup);
  Out.set out "shm.return_us.p50" (p50 l.return /. 1e3);
  Out.set out "fastcall.dispatch_self_ns.p50" (p50 l.self);
  Out.set out "fastcall.handler_ns.p50" (p50 l.handler);
  Out.set out "control.lookup_us.p50" (p50 l.lookup /. 1e3);
  Out.set out "control.exchange_us.p50" (p50 l.exchange /. 1e3)

let write_trace ~path l (rep : server_report option) =
  let spans =
    l.client_spans
    :: (match rep with Some { server_spans = Some s; _ } -> [ s ] | _ -> [])
  in
  Spans.write_chrome_trace ~path spans

(* The closed-loop cross-process workloads: [phase] is
   [pingpong_phase] or [pipelined_phase].  The traced run also times a
   burst of control-plane calls, so Control is measured on a closed
   loop too. *)
let closed phase out ~seed ~seconds ~trace ~trace_path =
  let rng = Sim.Rng.create ~seed in
  let inputs = operands rng in
  let l = layer () in
  let c, first = timed connect in
  let run traced seconds =
    let p = phase c inputs ~seconds ~traced ~layer:l in
    count out p;
    p
  in
  ignore (run false 0.2 : phase);
  if not trace then begin
    let p = run false seconds in
    set_end_to_end out p;
    ignore (finish out c ~client:p : server_report option);
    set_setup_s out ~first connect drop
  end
  else begin
    let u = run false (seconds /. 2.) in
    let t = run true (seconds /. 2.) in
    let probe_calls = 2_000 in
    Out.ops out ~attempted:probe_calls ~failed:(control_probe c ~calls:probe_calls ~layer:l);
    set_layers out l;
    Out.set out "trace.overhead_pct" (overhead_pct ~untraced:u ~traced:t);
    let rep = finish out c ~client:t in
    write_trace ~path:trace_path l rep
  end

let pingpong = closed pingpong_phase
let pipelined = closed pipelined_phase

(* Fixed open-loop rates (arrivals per second).  [high_rate] keeps the
   server busy enough to batch; [low_rate] leaves it idle between
   calls, so the wait/wake ladder sets the latency.  The low rate is
   measured in the traced run only: on a host whose hypervisor takes
   milliseconds to wake an idle virtual CPU its tail is that wake-up
   time, which no change to this repository can steady. *)
let high_rate = 40_000.
let low_rate = 1_000.

(* The ladder above [high_rate] that finds the highest rate meeting
   [slo_p99_us] with no growing backlog. *)
let ladder = [ 1.25; 1.5; 2.; 2.5; 3.; 4. ]
let slo_p99_us = 500.

let openloop out ~seed ~seconds ~trace ~trace_path =
  let rng = Sim.Rng.create ~seed in
  let l = layer () in
  let c, first = timed connect in
  ignore (pingpong_phase c (operands rng) ~seconds:0.1 ~traced:false ~layer:l : phase);
  let run ?(l = l) ~rate traced seconds =
    let s = schedule rng ~rate ~seconds in
    let r = open_phase c s ~traced ~layer:l in
    count out r.phase;
    note "openloop %.0f/s %s: achieved/offered %.4f, late p99 %.1f us, p99 %.1f us, kept up %b, in flight %.3f"
      r.offered_per_s
      (if traced then "traced" else "untraced")
      r.achieved_ratio (p99_us r.late)
      (Stats.median_tail_us r.phase.windows)
      r.kept_up r.in_flight;
    if r.achieved_ratio < 0.95 then
      Out.problem out
        (Printf.sprintf "generator fell behind: achieved/offered %.3f"
           r.achieved_ratio);
    r
  in
  if not trace then begin
    let r = run ~rate:high_rate false seconds in
    set_end_to_end out r.phase;
    ignore (finish out c ~client:r.phase : server_report option);
    set_setup_s out ~first connect drop
  end
  else begin
    Out.add_layer_metrics out Out.openloop_layer;
    let u = run ~rate:high_rate false (seconds /. 2.) in
    let t = run ~rate:high_rate true (seconds /. 2.) in
    set_layers out l;
    Out.set out "trace.overhead_pct" (overhead_pct ~untraced:u.phase ~traced:t.phase);
    Out.set out "loadgen.late_us.p99" (p99_us t.late);
    Out.set out "loadgen.achieved_ratio" t.achieved_ratio;
    Out.set out "loadgen.in_flight_mean" u.in_flight;
    let low_layer = layer () in
    let low = run ~l:low_layer ~rate:low_rate true (seconds /. 2.) in
    Out.set out "openloop.low_p50_us" (Stats.median_p50_us low.phase.windows);
    Out.set out "openloop.low_p99_us" (Stats.median_tail_us low.phase.windows);
    Out.set out "openloop.low_pickup_us.p50"
      (float_of_int (Stats.summarize low_layer.pickup).Stats.p50 /. 1e3);
    let step_s = Float.max 0.5 (seconds /. 10.) in
    let rec climb best = function
      | [] -> best
      | m :: rest ->
          let r = run ~rate:(high_rate *. m) false step_s in
          if r.kept_up && Stats.median_tail_us r.phase.windows <= slo_p99_us then
            climb r.offered_per_s rest
          else best
    in
    let base =
      if Stats.median_tail_us u.phase.windows <= slo_p99_us then u.offered_per_s
      else 0.
    in
    Out.set out "loadgen.slo_rate_per_s" (climb base ladder);
    let rep = finish out c ~client:t.phase in
    write_trace ~path:trace_path l rep
  end
