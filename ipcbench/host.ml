(* What a result is keyed to, and the process-level meters: CPU time,
   peak resident memory. *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let lines path =
  match read_file path with
  | Some s -> String.split_on_char '\n' s
  | None -> []

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (lines "/proc/cpuinfo"))

let cpu_model () =
  match
    List.find_opt
      (fun l -> String.length l >= 10 && String.sub l 0 10 = "model name")
      (lines "/proc/cpuinfo")
  with
  | Some l -> field_after_colon l
  | None -> "unknown"

let kernel_release () =
  match read_file "/proc/sys/kernel/osrelease" with
  | Some s -> String.trim s
  | None -> "unknown"

let fingerprint () =
  Printf.sprintf "nproc=%d domains=%d kernel=%s cpu=%S" (nproc ())
    (Domain.recommended_domain_count ())
    (kernel_release ()) (cpu_model ())

(* Steal and total CPU ticks of the whole guest so far, from the "cpu"
   line of /proc/stat.  Steal is time a vCPU wanted to run while the
   hypervisor ran something else; the bulk workload's tail rises with
   it long before the other workloads move. *)
let cpu_ticks () =
  match lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " -> (
      match
        String.split_on_char ' ' l |> List.tl |> List.filter_map int_of_string_opt
      with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          (steal, user + nice + system + idle + iowait + irq + softirq + steal)
      | _ -> (0, 0))
  | _ -> (0, 0)

(* Peak resident set (VmHWM) of this process, in KiB. *)
let peak_rss_kib () =
  match
    List.find_opt
      (fun l -> String.length l >= 6 && String.sub l 0 6 = "VmHWM:")
      (lines "/proc/self/status")
  with
  | Some l -> (
      match String.split_on_char ' ' (field_after_colon l) with
      | kb :: _ -> int_of_string kb
      | [] -> 0)
  | None -> 0

(* User + system CPU seconds of this process, all its threads. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of another (single-threaded) process, from the
   nanosecond run-time counter in /proc/<pid>/schedstat; the tick
   counters in /proc/<pid>/stat are too coarse for short windows. *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/schedstat" pid) with
  | None -> 0.
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> float_of_string ns /. 1e9
      | [] -> 0.)

(* Scratch directory for segment files, server reports and traces,
   relative to the working directory (the checkout root). *)
let out_dir = ".ipcbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let out_path name = Filename.concat out_dir name

external nth_allowed_cpu : int -> int = "ipcbench_nth_allowed_cpu" [@@noalloc]
external pin_thread : int -> bool = "ipcbench_pin_thread" [@@noalloc]

(* The first two CPUs the process may use, read before anything is
   pinned. *)
let cpu_pair =
  match (nth_allowed_cpu 0, nth_allowed_cpu 1) with
  | a, b when a >= 0 && b >= 0 -> Some (a, b)
  | _ -> None

(* Run [spawn], which starts a domain or forks a process, so that what
   it starts runs on one CPU and the caller on another.  A new thread
   or process inherits the CPU set of the thread that made it, so the
   caller pins itself to the second CPU around [spawn], then to the
   first.  Two busy threads left to the scheduler sometimes share one
   CPU for a second or more, which doubles the median latency and
   makes the tail a scheduler time slice.  With one CPU nothing is
   pinned.  A forked child keeps the second CPU. *)
let on_own_cpu spawn =
  match cpu_pair with
  | None -> spawn ()
  | Some (a, b) ->
      let self = Unix.getpid () in
      ignore (pin_thread b : bool);
      Fun.protect spawn ~finally:(fun () ->
          if Unix.getpid () = self then ignore (pin_thread a : bool))
