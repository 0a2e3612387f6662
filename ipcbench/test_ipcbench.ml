(* The benchmark's own arithmetic: span self time, the tail percentile
   rule and the summary it applies to a histogram. *)

open Ipcbench

let self_time () =
  let st = Stats.self_time in
  Alcotest.(check int) "no children" 100 (st ~start:0 ~stop:100 []);
  Alcotest.(check int) "one nested child" 70 (st ~start:0 ~stop:100 [ (10, 40) ]);
  Alcotest.(check int) "overlapping children count once" 50
    (st ~start:0 ~stop:100 [ (10, 40); (30, 60) ]);
  Alcotest.(check int) "disjoint children" 60
    (st ~start:0 ~stop:100 [ (60, 80); (10, 30) ]);
  Alcotest.(check int) "child clipped to parent" 80
    (st ~start:100 ~stop:200 [ (50, 120) ]);
  Alcotest.(check int) "child outside parent" 100
    (st ~start:0 ~stop:100 [ (150, 300) ]);
  Alcotest.(check int) "child covers parent" 0 (st ~start:0 ~stop:100 [ (-5, 105) ]);
  Alcotest.(check int) "nested grandchild adds nothing" 70
    (st ~start:0 ~stop:100 [ (10, 40); (20, 30) ])

let tail_rule () =
  let q n = Stats.tail_q ~n 0.99 in
  Alcotest.(check (float 1e-12)) "1000 samples: p99 has 10 beyond" 0.99 (q 1000);
  Alcotest.(check (float 1e-12)) "10000 samples: p99" 0.99 (q 10000);
  Alcotest.(check (float 1e-12)) "500 samples: p98" 0.98 (q 500);
  Alcotest.(check (float 1e-12)) "100 samples: p90" 0.9 (q 100);
  Alcotest.(check (float 1e-12)) "few samples: median" 0.5 (q 12);
  Alcotest.(check (float 1e-12)) "no samples: median" 0.5 (q 0);
  (* at least 10 samples lie strictly beyond the reported rank *)
  List.iter
    (fun n ->
      let level = q n in
      let rank = int_of_float (Float.ceil (level *. float_of_int n)) in
      if n >= 20 && n - rank < 10 then
        Alcotest.failf "n=%d: level %.4f leaves %d beyond" n level (n - rank))
    [ 20; 21; 99; 137; 999; 1001; 4321 ]

let summary () =
  let h = Workload.Hist.create () in
  List.iter (Workload.Hist.record h) [ 5; 1; 4; 2; 3 ];
  let s = Stats.summarize h in
  Alcotest.(check int) "every value counted" 5 s.Stats.n;
  Alcotest.(check int) "median by nearest rank" 3 s.Stats.p50;
  Alcotest.(check int) "five samples: the tail is the median" 3 s.Stats.tail;
  let h = Workload.Hist.create () in
  for v = 1 to 1000 do
    Workload.Hist.record h v
  done;
  let s = Stats.summarize h in
  Alcotest.(check (float 1e-12)) "1000 samples: p99" 0.99 s.Stats.tail_level;
  if s.Stats.tail < 990 || s.Stats.tail > 990 + (990 / 32) then
    Alcotest.failf "p99 of 1..1000 read %d" s.Stats.tail

let () =
  Alcotest.run "ipcbench"
    [
      ( "stats",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "summary over a histogram" `Quick summary;
        ] );
    ]
