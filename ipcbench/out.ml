(* The metric catalogue and the result line.

   Every workload reports the same end-to-end metrics, each with a
   workload-specific meaning documented in README.md, so the gate
   compares like with like across workloads.  A traced run reports the
   whole per-layer catalogue; a layer the workload never calls reads 0. *)

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("cpu_us_per_op", "us");
    ("peak_rss_mib", "MiB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("shm.submit_ns.p50", "ns");
    ("shm.pickup_us.p50", "us");
    ("shm.pickup_us.p99", "us");
    ("shm.return_us.p50", "us");
    ("shm.calls_per_batch", "count");
    ("shm.rings_per_call", "count");
    ("shm.server_cpu_util", "cores");
    ("shm.retry_ratio", "ratio");
    ("shm.timeouts", "count");
    ("shm.peer_faults", "count");
    ("shm.swept", "count");
    ("fastcall.dispatch_self_ns.p50", "ns");
    ("fastcall.handler_ns.p50", "ns");
    ("fastcall.handler_faults", "count");
    ("control.lookup_us.p50", "us");
    ("control.exchange_us.p50", "us");
    ("channel.call_ns.p50", "ns");
    ("channel.call_ns.p99", "ns");
    ("channel.calls_per_batch", "count");
    ("channel.parks_per_call", "count");
    ("channel.wakes_per_call", "count");
    ("channel.slab_grows", "count");
    ("channel.rejected_ratio", "ratio");
    ("copy.submit_ns.p50", "ns");
    ("copy.flush_ns.p50", "ns");
    ("copy.reap_ns.p50", "ns");
    ("copy.descs_per_ring", "count");
    ("copy.drain_us.p50", "us");
    ("grant.handoff_us.p50", "us");
    ("bulk.copy_4k_mib_per_s", "MiB/s");
    ("bulk.copy_1m_mib_per_s", "MiB/s");
    ("bulk.grants_per_s", "1/s");
    ("trace.overhead_pct", "%");
  ]

(* Per-layer metrics that only the open loop measures.  It is not one
   of the gated workloads, so they are printed after the catalogue in
   its own traced run and nowhere else. *)
let openloop_layer =
  [
    ("loadgen.late_us.p99", "us");
    ("loadgen.achieved_ratio", "ratio");
    ("loadgen.in_flight_mean", "count");
    ("loadgen.slo_rate_per_s", "1/s");
    ("openloop.low_p50_us", "us");
    ("openloop.low_p99_us", "us");
    ("openloop.low_pickup_us.p50", "us");
  ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* any entry makes the run incorrect *)
  mutable extra : (string * string) list;  (* printed after [per_layer] *)
  values : (string, float) Hashtbl.t;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    extra = [];
    values = Hashtbl.create 64;
  }

let add_layer_metrics t metrics = t.extra <- t.extra @ metrics

let set t name v = Hashtbl.replace t.values name v
let problem t msg = t.problems <- msg :: t.problems

(* Operations attempted and failed (non-ok RC, wrong reply, refused). *)
let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print a human-readable report on stdout, then the result JSON as the
   last line.  Returns whether the run is correct. *)
let emit t ~trace =
  let catalogue = if trace then per_layer @ t.extra else end_to_end in
  let value name =
    match Hashtbl.find_opt t.values name with
    | Some v when Float.is_finite v -> v
    | Some _ ->
        problem t (name ^ " is not a finite number");
        0.
    | None ->
        if not trace then problem t (name ^ " was not measured");
        0.
  in
  let rows = List.map (fun (n, u) -> (n, u, value n)) catalogue in
  List.iter
    (fun (n, u, v) -> Printf.printf "# %-32s %14.4f %s\n" n v u)
    rows;
  if t.failed > 0 then
    problem t (Printf.sprintf "%d of %d operations failed" t.failed t.attempted);
  if t.attempted < 1 then problem t "no operation was attempted";
  List.iter (fun p -> Printf.printf "# PROBLEM: %s\n" p) (List.rev t.problems);
  let correct = t.problems = [] in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         rows)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed metrics;
  correct
