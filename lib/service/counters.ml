(* Serving-stack instrumentation, rebased onto the Omni_obs.Metrics
   registry: every field is a named instrument in one registry per
   Service.t, so service stats, the bench harness, and `omnirun serve
   --metrics` all read one source of truth (and the phase histograms the
   tracer records land in the same registry). Every export — snapshot,
   Stats JSON in and out — is derived from the one [fields] table. *)

module Metrics = Omni_obs.Metrics

type t = {
  m : Metrics.t;
  (* module store *)
  submits : Metrics.counter;
  modules : Metrics.counter;
  dedup_hits : Metrics.counter;
  bytes_stored : Metrics.counter;
  predecode_hits : Metrics.counter;
  predecode_misses : Metrics.counter;
  (* translation cache *)
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  translations : Metrics.counter;
  verifications : Metrics.counter;
  cert_checks : Metrics.counter;
  cert_full_verify : Metrics.counter;
  verify_fail : Metrics.counter;
  cold_translate : Metrics.histogram;
  warm_admit : Metrics.histogram;
  (* service front-end *)
  instantiations : Metrics.counter;
  (* execution supervision *)
  quarantine_trips : Metrics.counter;
  quarantine_refused : Metrics.counter;
  quarantine_cleared : Metrics.counter;
  crash_reports : Metrics.counter;
  deadline_exceeded : Metrics.counter;
}

(* --- immutable snapshot --- *)

type snapshot = {
  s_submits : int;
  s_modules : int;
  s_dedup_hits : int;
  s_bytes_stored : int;
  s_predecode_hits : int;
  s_predecode_misses : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_translations : int;
  s_verifications : int;
  s_cert_checks : int;
  s_cert_full_verify : int;
  s_verify_fail : int;
  s_cold_translate_s : float;
  s_warm_admit_s : float;
  s_instantiations : int;
  s_quarantine_trips : int;
  s_quarantine_refused : int;
  s_quarantine_cleared : int;
  s_crash_reports : int;
  s_deadline_exceeded : int;
  s_persist_append : int;
  s_persist_replay : int;
  s_persist_recovered : int;
  s_persist_quarantined : int;
  s_persist_torn : int;
}

type field =
  | Count of string * string * (snapshot -> int)
  | Sum of string * string * (snapshot -> float)
  | Rate of string * (snapshot -> float)

let hit_rate s =
  let n = s.s_hits + s.s_misses in
  if n = 0 then 0.0 else float_of_int s.s_hits /. float_of_int n

(* The one field table, in Stats JSON key order. The persist.* rows are
   bumped by Omni_persist through the same registry names. *)
let fields =
  [
    Count ("submits", "service.submits", fun s -> s.s_submits);
    Count ("modules", "service.modules", fun s -> s.s_modules);
    Count ("dedup_hits", "service.dedup_hits", fun s -> s.s_dedup_hits);
    Count ("bytes_stored", "service.bytes_stored", fun s -> s.s_bytes_stored);
    Count ("predecode_hits", "vm.predecode.hit", fun s -> s.s_predecode_hits);
    Count ("predecode_misses", "vm.predecode.miss",
      fun s -> s.s_predecode_misses);
    Count ("hits", "service.cache.hits", fun s -> s.s_hits);
    Count ("misses", "service.cache.misses", fun s -> s.s_misses);
    Rate ("hit_rate", hit_rate);
    Count ("evictions", "service.cache.evictions", fun s -> s.s_evictions);
    Count ("translations", "service.translations", fun s -> s.s_translations);
    Count ("verifications", "service.verifications",
      fun s -> s.s_verifications);
    Count ("cert_checks", "service.cache.cert_check", fun s -> s.s_cert_checks);
    Count ("cert_full_verify", "service.cache.cert_full_verify",
      fun s -> s.s_cert_full_verify);
    Count ("verify_fail", "service.cache.verify_fail",
      fun s -> s.s_verify_fail);
    Sum ("cold_translate_s", "service.cold_translate_s",
      fun s -> s.s_cold_translate_s);
    Sum ("warm_admit_s", "service.warm_admit_s", fun s -> s.s_warm_admit_s);
    Count ("instantiations", "service.instantiations",
      fun s -> s.s_instantiations);
    Count ("quarantine_trips", "service.quarantine.trips",
      fun s -> s.s_quarantine_trips);
    Count ("quarantine_refused", "service.quarantine.refused",
      fun s -> s.s_quarantine_refused);
    Count ("quarantine_cleared", "service.quarantine.cleared",
      fun s -> s.s_quarantine_cleared);
    Count ("crash_reports", "exec.crash.reports", fun s -> s.s_crash_reports);
    Count ("deadline_exceeded", "exec.deadline.exceeded",
      fun s -> s.s_deadline_exceeded);
    Count ("persist_append", "persist.append", fun s -> s.s_persist_append);
    Count ("persist_replay", "persist.replay", fun s -> s.s_persist_replay);
    Count ("persist_recovered", "persist.recovered",
      fun s -> s.s_persist_recovered);
    Count ("persist_quarantined", "persist.quarantined",
      fun s -> s.s_persist_quarantined);
    Count ("persist_torn", "persist.torn", fun s -> s.s_persist_torn);
  ]

let registry_name key =
  List.find_map
    (function
      | (Count (k, n, _) | Sum (k, n, _)) when String.equal k key -> Some n
      | Count _ | Sum _ | Rate _ -> None)
    fields
  |> Option.get

(* The one snapshot constructor: [i]/[f] read an integer/float field by
   its JSON key. *)
let of_lookup (i : string -> int) (f : string -> float) : snapshot =
  {
    s_submits = i "submits";
    s_modules = i "modules";
    s_dedup_hits = i "dedup_hits";
    s_bytes_stored = i "bytes_stored";
    s_predecode_hits = i "predecode_hits";
    s_predecode_misses = i "predecode_misses";
    s_hits = i "hits";
    s_misses = i "misses";
    s_evictions = i "evictions";
    s_translations = i "translations";
    s_verifications = i "verifications";
    s_cert_checks = i "cert_checks";
    s_cert_full_verify = i "cert_full_verify";
    s_verify_fail = i "verify_fail";
    s_cold_translate_s = f "cold_translate_s";
    s_warm_admit_s = f "warm_admit_s";
    s_instantiations = i "instantiations";
    s_quarantine_trips = i "quarantine_trips";
    s_quarantine_refused = i "quarantine_refused";
    s_quarantine_cleared = i "quarantine_cleared";
    s_crash_reports = i "crash_reports";
    s_deadline_exceeded = i "deadline_exceeded";
    s_persist_append = i "persist_append";
    s_persist_replay = i "persist_replay";
    s_persist_recovered = i "persist_recovered";
    s_persist_quarantined = i "persist_quarantined";
    s_persist_torn = i "persist_torn";
  }

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  List.iter
    (function
      | Count (_, n, _) -> ignore (Metrics.counter m n)
      | Sum (_, n, _) -> ignore (Metrics.histogram m n)
      | Rate _ -> ())
    fields;
  let c key = Metrics.counter m (registry_name key) in
  let h key = Metrics.histogram m (registry_name key) in
  {
    m;
    submits = c "submits";
    modules = c "modules";
    dedup_hits = c "dedup_hits";
    bytes_stored = c "bytes_stored";
    predecode_hits = c "predecode_hits";
    predecode_misses = c "predecode_misses";
    hits = c "hits";
    misses = c "misses";
    evictions = c "evictions";
    translations = c "translations";
    verifications = c "verifications";
    cert_checks = c "cert_checks";
    cert_full_verify = c "cert_full_verify";
    verify_fail = c "verify_fail";
    cold_translate = h "cold_translate_s";
    warm_admit = h "warm_admit_s";
    instantiations = c "instantiations";
    quarantine_trips = c "quarantine_trips";
    quarantine_refused = c "quarantine_refused";
    quarantine_cleared = c "quarantine_cleared";
    crash_reports = c "crash_reports";
    deadline_exceeded = c "deadline_exceeded";
  }

let metrics t = t.m

let snapshot t =
  of_lookup
    (fun k -> Metrics.value (Metrics.counter t.m (registry_name k)))
    (fun k -> Metrics.histogram_sum (Metrics.histogram t.m (registry_name k)))

let render s =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "module store:      %d modules (%d submits, %d deduped, %d bytes)\n"
    s.s_modules s.s_submits s.s_dedup_hits s.s_bytes_stored;
  Printf.bprintf b
    "predecode cache:   %d hits / %d misses\n"
    s.s_predecode_hits s.s_predecode_misses;
  Printf.bprintf b
    "translation cache: %d hits / %d misses (%.1f%% hit rate), %d evictions\n"
    s.s_hits s.s_misses (100.0 *. hit_rate s) s.s_evictions;
  Printf.bprintf b
    "translations:      %d cold (%.1f ms total); %d verifier runs (%.1f ms warm admission)\n"
    s.s_translations (1e3 *. s.s_cold_translate_s) s.s_verifications
    (1e3 *. s.s_warm_admit_s);
  Printf.bprintf b
    "certificates:      %d witness checks, %d full re-verifies, %d warm admissions failed\n"
    s.s_cert_checks s.s_cert_full_verify s.s_verify_fail;
  Printf.bprintf b "instantiations:    %d\n" s.s_instantiations;
  Printf.bprintf b
    "supervision:       %d crash reports (%d deadline), quarantine %d trips / %d refused / %d cleared\n"
    s.s_crash_reports s.s_deadline_exceeded s.s_quarantine_trips
    s.s_quarantine_refused s.s_quarantine_cleared;
  Printf.bprintf b
    "persistence:       %d appends; recovery replayed %d (%d recovered, %d quarantined, %d torn)\n"
    s.s_persist_append s.s_persist_replay s.s_persist_recovered
    s.s_persist_quarantined s.s_persist_torn;
  Buffer.contents b

let to_json s =
  let b = Buffer.create 640 in
  List.iteri
    (fun i field ->
      Buffer.add_string b (if i = 0 then "{" else ",");
      match field with
      | Count (k, _, get) -> Printf.bprintf b "\"%s\":%d" k (get s)
      | Sum (k, _, get) -> Printf.bprintf b "\"%s\":%.6f" k (get s)
      | Rate (k, get) -> Printf.bprintf b "\"%s\":%.4f" k (get s))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* Inverse of [to_json], total on arbitrary text: the writer is ours and
   emits one flat object of numeric fields, so a comma/colon scanner
   suffices (the same stance as the bench snapshot reader). Unknown keys
   are ignored; missing keys read as zero, so snapshots from before a
   field existed still parse. [hit_rate] is derived, not stored. *)
let of_json text : snapshot =
  let pairs =
    match (String.index_opt text '{', String.rindex_opt text '}') with
    | Some i, Some j when j > i ->
        String.sub text (i + 1) (j - i - 1)
        |> String.split_on_char ','
        |> List.filter_map (fun part ->
               match String.index_opt part ':' with
               | None -> None
               | Some c ->
                   let key = String.trim (String.sub part 0 c) in
                   let key =
                     if
                       String.length key >= 2
                       && key.[0] = '"'
                       && key.[String.length key - 1] = '"'
                     then String.sub key 1 (String.length key - 2)
                     else key
                   in
                   let v =
                     String.trim
                       (String.sub part (c + 1) (String.length part - c - 1))
                   in
                   Some (key, v))
    | _ -> []
  in
  let geti k =
    match List.assoc_opt k pairs with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
    | None -> 0
  in
  let getf k =
    match List.assoc_opt k pairs with
    | Some v -> ( match float_of_string_opt v with Some f -> f | None -> 0.0)
    | None -> 0.0
  in
  of_lookup geti getf
