(* The end-to-end omnid benchmark.

     main.exe --workload warm_small|exec_long|cold_admit --seed N
              --seconds S --trace 0|1 [--omnid PATH] [--out DIR]

   Spawns omnid, sets it up for the workload, and drives it from this
   process in closed loops: seven rounds, each on a fresh daemon, over S
   seconds in all. With --trace 0 it prints the
   end-to-end metrics; with --trace 1 it also replays the same seeded
   request sequence in-process under spans and prints the per-layer
   metrics. Stdout ends with a run-record line and then one JSON result
   line; spans go to DIR as JSON lines. Exits 1 on any output that differs
   from the oracle's, 3 when a workload self-check fails (the workload is
   not measuring what it claims, so nothing is reported). *)

module Client = Omni_net.Client

let now = Load.now

(* JSON values; a number keeps every digit it was measured with. *)
let jnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let jstr s = "\"" ^ Omni_obs.Metrics.json_escape s ^ "\""
let jobj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) kvs) ^ "}"
let jlist vs = "[" ^ String.concat "," vs ^ "]"

let metric name unit ~samples value = { Layers.name; unit; value; samples }

(* What one round measured. *)
type round = {
  setup_s : float;
  window_s : float;
  ok : float;  (** correct responses *)
  vm_instrs : float;
  cpu_s : float;  (** the daemon's, over the window *)
  rss : float;  (** the daemon's peak, MiB *)
  steal_s : float;  (** taken by the host, over the window *)
}

let percentile_rule =
  "nearest rank; p95 over all requests' latencies, reported with at least 10 samples \
   beyond it, so it needs 200 requests; p50 is the median over request kinds of each \
   kind's median"

let fail code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit code)
    fmt

(* The workload's claims about the daemon's counters in the measured
   window; a run that breaks one measures something else and reports
   nothing. *)
let self_checks kind (d : Stats.delta) (t : Load.tally) =
  let open Workload in
  match kind with
  | Warm_small | Exec_long ->
      [
        ("cache.hit_ratio = 1", Stats.hit_ratio d = Some 1.);
        ("cert.full_verify_count = 0", d.full_verify = 0);
      ]
  | Cold_admit ->
      [
        ("no cache hits", d.hits = 0);
        ("every run a miss", d.misses = t.runs);
        ("one store insert per submitted module", d.modules = t.submits && d.dedup_hits = 0);
      ]

(* What the traced pass replays: the modules the live set-up primed, and
   the start of the live round's request sequence — one cycle of a warm
   workload's pairs, forty cold_admit modules. *)
let replay_ops kind ~seed (s : Load.setup) =
  let open Workload in
  let round = s.Load.round in
  match s.Load.mods with
  | Load.Warm mods ->
      let n_modules = Array.length mods in
      let ops = take (cycle_length kind ~n_modules) (stream kind ~seed ~n_modules ~round) in
      (Array.to_list mods, List.map (fun op -> (mods.(module_index op), op)) ops)
  | Load.Cold c ->
      ( List.map (cold_module ~seed) cold_warmup,
        List.map
          (fun op -> (Load.Cold.find c (module_index op), op))
          (take 200 (stream kind ~seed ~n_modules:0 ~round)) )

let net_probes (s : Load.setup) =
  let connects =
    List.init 50 (fun _ ->
        let t0 = now () in
        let c = Load.connect s.Load.daemon in
        let dt = now () -. t0 in
        Client.close c;
        dt)
  in
  let c = Load.connect s.Load.daemon in
  let pings =
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        List.init 200 (fun _ ->
            let t0 = now () in
            Client.ping c;
            now () -. t0))
  in
  [
    metric "net.connect_us" "us" ~samples:50 (Stats.median connects *. 1e6);
    metric "net.ping_us" "us" ~samples:200 (Stats.median pings *. 1e6);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let omnid = ref "_build/default/bin/omnid.exe" and out = ref "_perfbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm_small | exec_long | cold_admit");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer pass");
      ("--omnid", Arg.Set_string omnid, "PATH the daemon binary");
      ("--out", Arg.Set_string out, "DIR where spans, records and the daemon log go");
    ]
    (fun a -> raise (Arg.Bad ("stray argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match Workload.of_name !workload with
    | Some k -> k
    | None -> fail 2 "unknown workload %S" !workload
  in
  let traced = !trace = 1 in
  if not (Sys.file_exists !omnid) then fail 2 "no daemon binary at %s" !omnid;
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  List.iter
    (fun sg -> try Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  let tag = Printf.sprintf "%s-%d-%s" (Workload.name kind) !seed (if traced then "trace" else "e2e") in
  let socket = Filename.concat !out (Printf.sprintf "omnid-%d.sock" (Unix.getpid ())) in
  let log = Filename.concat !out (tag ^ ".omnid.log") in
  (try Sys.remove log with Sys_error _ -> ());
  (* A run is seven rounds. Each spawns a fresh daemon, sets it up (timed:
     set-up time is the median of the seven) and measures a window of a
     seventh of the seconds. The rate metrics are medians over the rounds,
     so neither one daemon instance nor a burst of load on the host
     decides the run. The latency percentiles are taken over all the
     rounds' requests, which together number at least 200 so that 10
     samples lie beyond p95: one daemon's latencies spread widely with its
     collector's pace, and the pooled percentile averages over the seven
     daemons where a median of per-round percentiles would pick one. p50
     is the median over request kinds of each kind's median, since on
     exec_long the pooled median falls between two kinds. Peak
     memory is the mean of the rounds' peaks, which move in 16 MiB
     steps.

     A round in whose window the host stole more than [max_steal] of the
     machine's CPU time is measured again on a fresh daemon, at most
     [redo_limit] times in a run: that time went to other guests, not to
     the program. A round with a failed request is never measured again,
     so every failure counts. *)
  let rounds = 7 and min_total = Stats.samples_needed 95. in
  let max_steal = 0.03 and redo_limit = 1 and redone = ref 0 in
  let nproc = Domain.recommended_domain_count () in
  let tally = Load.new_tally () and delta = ref Stats.zero in
  let probes = ref [] and replay_from = ref None in
  let rec one_round r =
    let t0 = now () in
    let s =
      try Load.setup kind ~seed:!seed ~round:r ~omnid:!omnid ~socket ~log
      with Workload.Setup_failed msg -> fail 1 "set-up: %s" msg
    in
    let setup_s = now () -. t0 in
    let before = Load.stats_json s in
    let left = rounds - r in
    let min_requests = (min_total - List.length tally.Load.lat + left - 1) / left in
    let cpu0 = Daemon.cpu_s s.Load.daemon and steal0 = Daemon.steal_s () in
    let t, window_s = Load.measure s ~seconds:(!seconds /. float rounds) ~min_requests in
    let cpu_s = Daemon.cpu_s s.Load.daemon -. cpu0 and steal_s = Daemon.steal_s () -. steal0 in
    let rss = Daemon.vm_hwm_mib s.Load.daemon in
    if steal_s > max_steal *. window_s *. float nproc && t.Load.failed = 0 && !redone < redo_limit
    then begin
      incr redone;
      Load.close s;
      one_round r
    end
    else begin
      delta := Stats.add !delta (Stats.delta ~before ~after:(Load.stats_json s));
      Load.merge tally t;
      if r = rounds - 1 && traced then begin
        probes := net_probes s;
        replay_from := Some s
      end;
      Load.close s;
      let ok = float (List.length t.Load.lat) in
      if ok = 0. then
        fail 1 "no request completed: %s" (Option.value ~default:"" t.Load.first_failure);
      { setup_s; window_s; ok; vm_instrs = float t.Load.vm_instrs; cpu_s; rss; steal_s }
    end
  in
  let rs = List.init rounds one_round in
  let delta = !delta in
  let checks = self_checks kind delta tally in
  let n = List.length tally.Load.lat in
  let over_rounds f = Stats.median (List.map f rs) in
  let end_to_end =
    [
      metric "setup_s" "s" ~samples:rounds (over_rounds (fun r -> r.setup_s));
      metric "throughput_rps" "1/s" ~samples:rounds (over_rounds (fun r -> r.ok /. r.window_s));
      metric "latency_p50_ms" "ms" ~samples:n (Stats.median_of_groups tally.Load.lat *. 1e3);
      metric "latency_p95_ms" "ms" ~samples:n
        (Stats.percentile 95. (List.map snd tally.Load.lat) *. 1e3);
      metric "vm_minstr_per_s" "Minstr/s" ~samples:rounds
        (over_rounds (fun r -> r.vm_instrs /. r.window_s /. 1e6));
      metric "daemon_rss_peak_mib" "MiB" ~samples:rounds
        (List.fold_left (fun acc r -> acc +. r.rss) 0. rs /. float rounds);
      metric "daemon_cpu_ms_per_req" "ms" ~samples:rounds
        (over_rounds (fun r -> r.cpu_s /. r.ok *. 1e3));
    ]
  in
  let replay_mismatches, per_layer =
    if not traced then (0, [])
    else begin
      let warm, ops = replay_ops kind ~seed:!seed (Option.get !replay_from) in
      let engines = Workload.engines kind in
      let plain = Replay.pass ~traced:false ~warm ~engines ~ops in
      let spanned = Replay.pass ~traced:true ~warm ~engines ~ops in
      let trees = Layers.trees spanned.Replay.spans in
      Layers.write_jsonl (Filename.concat !out (tag ^ ".spans.jsonl")) trees;
      (* paired by request, so a GC pause in one pass does not read as
         tracing cost *)
      let overhead =
        Stats.median (List.map2 ( /. ) spanned.Replay.request_s plain.Replay.request_s) -. 1.
      in
      let nreq = List.length ops in
      ( plain.Replay.mismatches + spanned.Replay.mismatches,
        Layers.of_trees trees
        @ [
            metric "targets.sim_cycles" "cycles" ~samples:spanned.Replay.cycle_pairs
              (float spanned.Replay.sim_cycles);
          ]
        @ !probes
        @ [
            metric "cache.hit_ratio" "ratio" ~samples:(delta.hits + delta.misses)
              (Option.value ~default:0. (Stats.hit_ratio delta));
            metric "cache.evictions" "count" ~samples:(delta.hits + delta.misses)
              (float delta.evictions);
            metric "cert.full_verify_count" "count" ~samples:(delta.hits + delta.misses)
              (float delta.full_verify);
            metric "net.errors" "count" ~samples:tally.Load.attempted (float tally.Load.errors);
            metric "trace.overhead_frac" "ratio" ~samples:nreq overhead;
          ] )
    end
  in
  let failed = tally.Load.failed + replay_mismatches in
  let correct = failed = 0 && List.for_all snd checks in
  let reported = if traced then per_layer else end_to_end in
  let with_samples ms =
    jobj
      (List.map
         (fun (m : Layers.metric) ->
           ( m.name,
             jobj [ ("value", jnum m.value); ("unit", jstr m.unit); ("samples", string_of_int m.samples) ] ))
         ms)
  in
  let record =
    jobj
      [
        ("workload", jstr (Workload.name kind));
        ("seed", string_of_int !seed);
        ("seconds", jnum !seconds);
        ("trace", string_of_int !trace);
        ("nproc", string_of_int nproc);
        ("ocaml", jstr Sys.ocaml_version);
        ("omnid_flags", jlist (List.map jstr (Daemon.flags ~socket)));
        ("loop", jstr "closed");
        ("clients", "1");
        ("fresh_connection_per_request", string_of_bool (Workload.fresh_connection kind));
        ("percentile_rule", jstr percentile_rule);
        ("p95_samples_beyond", string_of_int (Stats.beyond 95. n));
        ("p95_rule_met", string_of_bool (n >= min_total));
        ( "highest_reportable_percentile",
          Option.fold ~none:"null" ~some:jnum (Stats.highest_percentile n) );
        ("rounds", string_of_int rounds);
        ("rounds_redone_for_steal", string_of_int !redone);
        ("window_s", jnum (List.fold_left (fun acc r -> acc +. r.window_s) 0. rs));
        ("host_steal_s", jnum (List.fold_left (fun acc r -> acc +. r.steal_s) 0. rs));
        ( "rounds_detail",
          jlist
            (List.map
               (fun r ->
                 jobj
                   [
                     ("setup_s", jnum r.setup_s); ("window_s", jnum r.window_s);
                     ("requests", jnum r.ok); ("throughput_rps", jnum (r.ok /. r.window_s));
                     ("daemon_cpu_s", jnum r.cpu_s); ("daemon_rss_peak_mib", jnum r.rss);
                     ("host_steal_s", jnum r.steal_s);
                   ])
               rs) );
        (* the steadiness statistic a reader applies across runs, here
           across this run's rounds *)
        ( "round_throughput_spread",
          jnum (Stats.quartile_spread (List.map (fun r -> r.ok /. r.window_s) rs)) );
        ("attempted", string_of_int tally.Load.attempted);
        ("failed", string_of_int failed);
        ("failed_frac", jnum (float failed /. float tally.Load.attempted));
        ("first_failure", Option.fold ~none:"null" ~some:jstr tally.Load.first_failure);
        ( "stats_delta",
          jobj
            [
              ("hits", string_of_int delta.hits); ("misses", string_of_int delta.misses);
              ("evictions", string_of_int delta.evictions);
              ("cert_full_verify", string_of_int delta.full_verify);
              ("cert_checks", string_of_int delta.cert_checks);
              ("submits", string_of_int delta.submits); ("modules", string_of_int delta.modules);
            ] );
        ("self_checks", jobj (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks));
        ("end_to_end", with_samples end_to_end);
        ("per_layer", with_samples (List.filter (fun (m : Layers.metric) -> m.samples > 0) per_layer));
      ]
  in
  let record = jobj [ ("run_record", record) ] in
  let oc = open_out (Filename.concat !out (tag ^ ".record.json")) in
  output_string oc (record ^ "\n");
  close_out oc;
  if not (List.for_all snd checks) then
    fail 3 "workload self-check failed: %s"
      (String.concat ", " (List.filter_map (fun (k, ok) -> if ok then None else Some k) checks));
  print_endline record;
  print_endline
    (jobj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int tally.Load.attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           jobj
             (List.map
                (fun (m : Layers.metric) -> (m.name, jobj [ ("value", jnum m.value); ("unit", jstr m.unit) ]))
                reported) );
       ]);
  if not correct then exit 1
