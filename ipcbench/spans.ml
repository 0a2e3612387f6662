(* Traced-run spans, kept in memory and written out when the run ends.

   A span is a name, the call id it belongs to, and [start, stop) in
   CLOCK_MONOTONIC nanoseconds, which is system-wide, so spans recorded
   by the forked server and by the client line up on one time axis.
   The buffer is fixed-size: it keeps the first spans of each name, an
   equal share of [capacity] per name so that every kind of span shows
   up in the trace, and counts the rest as dropped, so a long traced
   run cannot grow without bound. *)

type t = {
  pid : int;
  names : string array;
  name_ix : int array;
  ids : int array;
  starts : int array;
  stops : int array;
  per_name : int array;  (* spans kept, by name *)
  mutable len : int;
  mutable dropped : int;
}

let capacity = 50_000

let create ~names =
  {
    pid = Unix.getpid ();
    names;
    name_ix = Array.make capacity 0;
    ids = Array.make capacity 0;
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    per_name = Array.make (Array.length names) 0;
    len = 0;
    dropped = 0;
  }

let record t ~name ~id ~start ~stop =
  if t.per_name.(name) < capacity / Array.length t.names then begin
    t.per_name.(name) <- t.per_name.(name) + 1;
    let i = t.len in
    t.name_ix.(i) <- name;
    t.ids.(i) <- id;
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.len <- i + 1
  end
  else t.dropped <- t.dropped + 1

(* Chrome trace-event JSON ("X" complete events, microsecond floats),
   loadable in chrome://tracing or Perfetto.  Timestamps are rebased on
   the earliest span so the numbers stay readable. *)
let write_chrome_trace ~path (ts : t list) =
  let origin =
    List.fold_left
      (fun m t ->
        let m = ref m in
        for i = 0 to t.len - 1 do
          m := min !m t.starts.(i)
        done;
        !m)
      max_int ts
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"call\":%d}}"
          t.names.(t.name_ix.(i))
          (float_of_int (t.starts.(i) - origin) /. 1e3)
          (float_of_int (t.stops.(i) - t.starts.(i)) /. 1e3)
          t.pid t.ids.(i)
      done)
    ts;
  output_string oc "],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc;
  Printf.printf "# chrome trace: %s (%d spans, %d dropped)\n" path
    (List.fold_left (fun n t -> n + t.len) 0 ts)
    (List.fold_left (fun n t -> n + t.dropped) 0 ts)
