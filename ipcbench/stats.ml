(* Timing arithmetic shared by every workload: latency summaries over
   Workload.Hist, the tail-percentile rule, windows and span self
   time. *)

module Hist = Workload.Hist

(* The percentile rule: a tail quantile is reported only where at least
   10 samples lie beyond it, so [q] is lowered to the highest level
   that has them.  Below 20 samples that is the median. *)
let min_beyond = 10

let tail_q ~n q =
  if float_of_int n *. (1. -. q) >= float_of_int min_beyond then q
  else Float.max 0.5 (1. -. (float_of_int min_beyond /. float_of_int n))

type summary = { n : int; p50 : int; tail_level : float; tail : int }

(* Median and the tail at [q], lowered by the rule above. *)
let summarize ?(q = 0.99) h =
  let n = Hist.count h in
  let level = tail_q ~n q in
  { n; p50 = Hist.quantile h 0.5; tail_level = level; tail = Hist.quantile h level }

(* End-to-end figures are measured per window of the timed region and
   reported as the median window: on a shared host a window in which
   the hypervisor took the CPU away is an outlier, not a level shift. *)
type window = {
  w_ops : int;
  w_ns : int;
  w_cpu_s : float;
  w_n : int;  (* latency samples *)
  w_p50 : int;
  w_level : float;  (* the tail's percentile under the rule above *)
  w_tail : int;
}

(* Close a window over the latencies in [lat]. *)
let window lat ~ops ~ns ~cpu_s =
  let s = summarize lat in
  {
    w_ops = ops;
    w_ns = ns;
    w_cpu_s = cpu_s;
    w_n = s.n;
    w_p50 = s.p50;
    w_level = s.tail_level;
    w_tail = s.tail;
  }

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Self time of a span: its duration minus the part of [start, stop)
   that its child spans cover.  Children may overlap each other or
   stick out of the parent; only the covered part inside the parent
   counts, once. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, start) clipped
  in
  max 0 (stop - start) - covered

let window_ns = 250_000_000

(* Run [batch] back to back for [seconds], cut into windows of
   [window_ns].  [batch lat n] issues operations n, n+1, ..., records
   their latencies into the window's histogram [lat] and returns how
   many it issued; [cpu] reads the CPU seconds to charge.  Returns the
   operations issued, the elapsed seconds and the windows. *)
let run_windows ~seconds ~cpu batch =
  let now = Runtime.Doorbell.now_ns in
  let n = ref 0 and windows = ref [] in
  let t_start = now () in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  while now () < t_end do
    let lat = Hist.create () in
    let w0 = now () and cpu0 = cpu () and ops0 = !n in
    let w_end = min t_end (w0 + window_ns) in
    while now () < w_end do
      n := !n + batch lat !n
    done;
    let ns = now () - w0 in
    windows := window lat ~ops:(!n - ops0) ~ns ~cpu_s:(cpu () -. cpu0) :: !windows
  done;
  (!n, float_of_int (now () - t_start) /. 1e9, !windows)

let median_of f ws = median_float (List.map f ws)
let median_p50_us = median_of (fun w -> float_of_int w.w_p50 /. 1e3)
let median_tail_us = median_of (fun w -> float_of_int w.w_tail /. 1e3)

let median_rate ws =
  median_float
    (List.map (fun w -> float_of_int w.w_ops /. (float_of_int w.w_ns /. 1e9)) ws)

let median_cpu_us_per_op ws =
  median_float
    (List.map (fun w -> w.w_cpu_s *. 1e6 /. float_of_int (max 1 w.w_ops)) ws)
