(* Tests of the benchmark's own helpers: the percentile rule, the
   quartile spread, counter deltas, self time, and seeding. *)

open Workload

let floats = List.map float_of_int
let one_to n = floats (List.init n (fun i -> i + 1))
let close = Alcotest.float 1e-9

let percentiles () =
  Alcotest.check close "p50 of 1..10" 5. (Stats.percentile 50. (one_to 10));
  Alcotest.check close "p95 of 1..200" 190. (Stats.percentile 95. (one_to 200));
  Alcotest.check close "p100 is the max" 200. (Stats.percentile 100. (one_to 200));
  Alcotest.check close "order does not matter" 5.
    (Stats.percentile 50. (floats [ 9; 3; 5; 1; 7; 10; 2; 8; 4; 6 ]));
  Alcotest.(check int) "10 beyond p95 of 200" 10 (Stats.beyond 95. 200);
  Alcotest.(check int) "9 beyond p95 of 199" 9 (Stats.beyond 95. 199)

let median_of_groups () =
  let keyed k xs = List.map (fun x -> (k, x)) xs in
  Alcotest.check close "median of the group medians" 20.
    (Stats.median_of_groups
       (keyed "a" [ 1.; 2.; 3. ] @ keyed "b" [ 40.; 10.; 30.; 20. ] @ keyed "c" [ 100. ]));
  (* two equally frequent kinds: the pooled median is the first one's
     largest sample *)
  let two = keyed "a" (one_to 10) @ keyed "b" (List.map (fun x -> x +. 100.) (one_to 10)) in
  Alcotest.check close "pooled" 10. (Stats.percentile 50. (List.map snd two));
  Alcotest.check close "grouped" 55. (Stats.median_of_groups two)

let percentile_rule () =
  let hp n = Stats.highest_percentile n in
  Alcotest.(check (option (float 0.))) "200 samples: p95" (Some 95.) (hp 200);
  Alcotest.(check (option (float 0.))) "199 samples: p90" (Some 90.) (hp 199);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (hp 1000);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 50.) (hp 20);
  Alcotest.(check (option (float 0.))) "15 samples: none" None (hp 15);
  Alcotest.(check int) "p95 needs 200" 200 (Stats.samples_needed 95.);
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.samples_needed 99.)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let quartile_spread () =
  (match Stats.quartiles (one_to 10) with
  | [ q1; q2; q3 ] ->
      Alcotest.check close "q1" 2.75 q1;
      Alcotest.check close "q2" 5.5 q2;
      Alcotest.check close "q3" 8.25 q3
  | _ -> Alcotest.fail "three quartiles");
  (match Stats.quartiles [ 4.; 1.; 3.; 2. ] with
  | [ q1; _; q3 ] ->
      Alcotest.check close "q1 of four" 1.25 q1;
      Alcotest.check close "q3 of four" 3.75 q3
  | _ -> Alcotest.fail "three quartiles");
  Alcotest.check close "spread of 1..10" 1. (Stats.quartile_spread (one_to 10));
  Alcotest.check close "no spread" 0. (Stats.quartile_spread [ 2.; 2.; 2.; 2.; 2. ]);
  Alcotest.check close "spread of ten" 0.005
    (Stats.quartile_spread (floats [ 99; 100; 101; 100; 100; 99; 101; 100; 100; 100 ]))

let stats_json hits misses full modules =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"cert_full_verify\":%d,\"modules\":%d,\"submits\":%d}" hits
    misses full modules modules

let hit_ratio () =
  let d = Stats.delta ~before:(stats_json 10 2 0 5) ~after:(stats_json 30 2 0 5) in
  Alcotest.(check int) "hits" 20 d.Stats.hits;
  Alcotest.(check int) "misses" 0 d.Stats.misses;
  Alcotest.(check (option (float 1e-12))) "warm window" (Some 1.) (Stats.hit_ratio d);
  let d = Stats.delta ~before:(stats_json 5 5 1 3) ~after:(stats_json 5 25 1 8) in
  Alcotest.(check (option (float 1e-12))) "cold window" (Some 0.) (Stats.hit_ratio d);
  Alcotest.(check int) "modules inserted" 5 d.Stats.modules;
  Alcotest.(check int) "full verifies" 0 d.Stats.full_verify;
  let d = Stats.delta ~before:(stats_json 7 3 0 1) ~after:(stats_json 10 4 0 1) in
  Alcotest.(check (option (float 1e-12))) "mixed window" (Some 0.75) (Stats.hit_ratio d);
  let d = Stats.delta ~before:(stats_json 7 3 0 1) ~after:(stats_json 7 3 0 1) in
  Alcotest.(check (option (float 1e-12))) "cache never consulted" None (Stats.hit_ratio d)

let self_time () =
  Alcotest.check close "no children" 10. (Stats.self_time (0., 10.) []);
  Alcotest.check close "overlapping children count once" 6.
    (Stats.self_time (0., 10.) [ (1., 3.); (2., 4.); (6., 7.) ]);
  Alcotest.check close "children clipped to the parent" 8.
    (Stats.self_time (0., 10.) [ (-5., 1.); (9., 12.) ])

let digests ms = List.map (fun m -> m.digest) ms
let ops kind ~seed ~n_modules n = take n (stream kind ~seed ~n_modules ~round:0)

let seeding () =
  let warm = warm_modules Warm_small ~seed:7 in
  Alcotest.(check int) "warm_small working set" 18 (List.length warm);
  Alcotest.(check (list int64)) "same seed, same warm modules" (digests warm)
    (digests (warm_modules Warm_small ~seed:7));
  Alcotest.(check bool) "same seed, same requests" true
    (ops Warm_small ~seed:7 ~n_modules:18 300 = ops Warm_small ~seed:7 ~n_modules:18 300);
  Alcotest.(check bool) "another seed, another order" false
    (ops Exec_long ~seed:1 ~n_modules:4 16 = ops Exec_long ~seed:2 ~n_modules:4 16);
  Alcotest.(check bool) "two rounds' warm_small streams differ" false
    (take 50 (stream Warm_small ~seed:7 ~n_modules:18 ~round:0)
    = take 50 (stream Warm_small ~seed:7 ~n_modules:18 ~round:1));
  let cold seed = digests (List.init 4 (cold_module ~seed)) in
  Alcotest.(check (list int64)) "same seed, same cold modules" (cold 11) (cold 11);
  List.iter2
    (fun a b -> Alcotest.(check bool) "another seed, other cold modules" false (a = b))
    (cold 11) (cold 12)

let cycles () =
  let cyc = cycle_length Warm_small ~n_modules:18 in
  let first = ops Warm_small ~seed:3 ~n_modules:18 cyc in
  Alcotest.(check int) "a cycle holds every pair once" cyc
    (List.length (List.sort_uniq compare first));
  match ops Cold_admit ~seed:3 ~n_modules:0 10 with
  | Submit 0 :: rest ->
      let runs0 = List.filteri (fun i _ -> i < 4) rest in
      Alcotest.(check int) "module 0 runs on each architecture" 4
        (List.length (List.sort_uniq compare runs0));
      List.iter
        (function
          | Run (0, Omni_service.Exec.Target _) -> ()
          | _ -> Alcotest.fail "a cold module runs on targets only")
        runs0;
      Alcotest.(check bool) "then module 1 is submitted" true (List.nth rest 4 = Submit 1)
  | _ -> Alcotest.fail "cold_admit starts by submitting module 0"

let oracle_agrees () =
  (* the oracle and the OmniVM reference interpreter agree on the
     generated programs, so a correct engine passes the gate *)
  List.iter
    (fun m ->
      let r =
        Omni_service.Exec.run_interp
          (Omni_service.Exec.load (Omnivm.Wire.decode m.wire))
      in
      Alcotest.(check string) (m.m_name ^ " output") m.output r.Omni_service.Exec.output;
      Alcotest.(check int) (m.m_name ^ " exit") m.exit_code r.Omni_service.Exec.exit_code)
    (List.init 6 (cold_module ~seed:5))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "at least 10 samples beyond" `Quick percentile_rule;
          Alcotest.test_case "median over request kinds" `Quick median_of_groups;
          Alcotest.test_case "quartile spread" `Quick quartile_spread;
          Alcotest.test_case "hit ratio from stats deltas" `Quick hit_ratio;
          Alcotest.test_case "self time" `Quick self_time;
        ] );
      ( "workload",
        [
          Alcotest.test_case "seeding" `Quick seeding;
          Alcotest.test_case "request cycles" `Quick cycles;
          Alcotest.test_case "oracle agrees with the interpreter" `Quick oracle_agrees;
        ] );
    ]
