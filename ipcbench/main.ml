(* The host IPC benchmark command line: run one workload by name and seed,
   check every reply, print each metric with its unit, and end with the
   one-line JSON result.  Exit 0 only for a correct run. *)

let workloads =
  [
    ("pingpong", Ipcbench.Wl_shm.pingpong);
    ("pipelined", Ipcbench.Wl_shm.pipelined);
    ("openloop", Ipcbench.Wl_shm.openloop);
    ("channel", Ipcbench.Wl_inproc.channel);
    ("bulk", Ipcbench.Wl_inproc.bulk);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map fst workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S how long the measured phases run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let module H = Ipcbench.Host in
  H.ensure_out_dir ();
  Printf.printf "# ipcbench workload=%s seed=%d seconds=%d trace=%d\n# host %s\n"
    !workload !seed !seconds !trace (H.fingerprint ());
  let out = Ipcbench.Out.create () in
  let trace = !trace = 1 in
  let trace_path =
    H.out_path (Printf.sprintf "trace-%s-%d.json" !workload !seed)
  in
  let steal0, total0 = H.cpu_ticks () in
  (match
     run out ~seed:!seed ~seconds:(float_of_int !seconds) ~trace ~trace_path
   with
  | () -> ()
  | exception e ->
      Ipcbench.Wl_shm.kill_servers ();
      Ipcbench.Out.problem out (Printexc.to_string e));
  let steal1, total1 = H.cpu_ticks () in
  Printf.printf "# host steal during the run: %.1f%% of CPU time\n"
    (100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)));
  exit (if Ipcbench.Out.emit out ~trace then 0 else 1)
