(* The traced pass: the live run's seeded request sequence replayed
   in-process, through the same public layer functions the daemon's
   request path calls, in the same order (frame and message codecs, the
   store, the translation cache, the loader, the engines). The
   benchmark opens one span per call; the library's own phase spans
   (wire decode, translate, certify, certificate check, pre-decode, run)
   nest inside them. Spans stay in memory until the pass ends. *)

module Exec = Omni_service.Exec
module Store = Omni_service.Store
module Cache = Omni_service.Cache
module Counters = Omni_service.Counters
module Message = Omni_net.Message
module Frame = Omni_net.Frame
module Trace = Omni_obs.Trace
module Metrics = Omni_obs.Metrics
module Loader = Omni_runtime.Loader
open Workload

type t = {
  store : Store.t;
  cache : Cache.t;
  counters : Counters.t;
  handles : (int64, Store.handle) Hashtbl.t;
}

let create () =
  let counters = Counters.create () in
  {
    store = Store.create ~counters ();
    cache = Cache.create ~capacity:Omni_service.Service.default_config.cache_capacity counters;
    counters;
    handles = Hashtbl.create 64;
  }

(* What an SFI-on run with no explicit mode resolves to (Service's
   default configuration). *)
let default_mode = Omni_targets.Machine.Mobile (Omni_sfi.Policy.make ())

let key_of digest arch =
  Cache.key ~digest ~arch ~mode:default_mode ~opts:(Exec.mobile_opts arch)

let codec tr dir f = Trace.with_span tr ~attrs:[ ("dir", dir) ] "net.codec" f

let decode_frame bytes =
  match Frame.decode bytes ~pos:0 with
  | Ok (f, _) -> f
  | Error e -> failwith (Frame.error_to_string e)

let ok = function Ok v -> v | Error msg -> failwith msg

(* Gc readings around an allocation-heavy call, kept as span attributes
   when tracing. *)
let with_alloc tr f =
  if not (Trace.enabled tr) then f ()
  else begin
    let w0 = Gc.minor_words () and b0 = Gc.allocated_bytes () in
    let v = f () in
    let w1 = Gc.minor_words () and b1 = Gc.allocated_bytes () in
    Trace.add_attr tr "minor_words" (Printf.sprintf "%.0f" (w1 -. w0));
    Trace.add_attr tr "alloc_bytes" (Printf.sprintf "%.0f" (b1 -. b0));
    v
  end

let instantiate tr bp =
  Trace.with_span tr "loader.instantiate" (fun () ->
      with_alloc tr (fun () -> Loader.instantiate bp))

let execute ?attrs tr name f =
  Trace.with_span ?attrs tr name (fun () ->
      with_alloc tr (fun () ->
          let r = f () in
          Trace.add_attr tr "instructions" (string_of_int r.Exec.instructions);
          Trace.add_attr tr "cycles" (string_of_int r.Exec.cycles);
          r))

(* The daemon's dispatch of one decoded request (Server.dispatch and
   Service.instantiate, with the default run configuration). *)
let dispatch t tr (req : Message.req) : Message.resp =
  match req with
  | Message.Submit bytes ->
      let h = Trace.with_span tr "store.submit" (fun () -> Store.submit t.store bytes) in
      let d = Store.digest h in
      Hashtbl.replace t.handles d h;
      Message.Submitted d
  | Message.Run rs ->
      let h = Hashtbl.find t.handles rs.Message.rs_handle in
      let img = instantiate tr (Store.blueprint t.store h) in
      let r =
        match rs.Message.rs_engine with
        | Exec.Interp -> execute tr "exec.run_interp" (fun () -> Exec.run_interp img)
        | Exec.Fast ->
            let program =
              Trace.with_span tr "store.predecoded" (fun () -> Store.predecoded t.store h)
            in
            execute tr "exec.run_fast" (fun () -> Exec.run_fast ~program img)
        | Exec.Target arch ->
            let key = key_of (Store.digest h) arch in
            let tr_prog =
              Trace.with_span tr ~attrs:[ ("arch", Omni_targets.Arch.name arch) ]
                "cache.find_or_translate" (fun () ->
                  let misses = Metrics.value t.counters.Counters.misses in
                  let p = Cache.find_or_translate t.cache key (Store.exe t.store h) in
                  Trace.add_attr tr "outcome"
                    (if Metrics.value t.counters.Counters.misses > misses then "miss" else "hit");
                  p)
            in
            execute tr ~attrs:[ ("arch", Omni_targets.Arch.name arch) ] "exec.run_translated"
              (fun () -> Exec.run_translated tr_prog img)
      in
      Message.Ran (r, None)
  | Message.Ping | Message.Stats -> failwith "not replayed"

let request_of (m : modul) = function
  | Submit _ -> Message.Submit m.wire
  | Run (_, engine) ->
      Message.Run
        {
          Message.rs_handle = m.digest; rs_engine = engine; rs_sfi = true;
          rs_mode = Message.M_default; rs_fuel = None; rs_deadline_s = None;
          rs_want_cert = false;
        }

(* One request, client encode to client decode. *)
let serve t tr req =
  let frame = codec tr "client.encode" (fun () -> Frame.encode (Message.encode_req req)) in
  let req' = codec tr "server.decode" (fun () -> ok (Message.decode_req (decode_frame frame))) in
  let resp = dispatch t tr req' in
  let rframe = codec tr "server.encode" (fun () -> Frame.encode (Message.encode_resp resp)) in
  codec tr "client.decode" (fun () -> ok (Message.decode_resp (decode_frame rframe)))

let matches (m : modul) = function
  | Message.Submitted d -> d = m.digest
  | Message.Ran (r, _) -> Load.check_run m r
  | _ -> false

(* Simulated cycles per (module, architecture): the exact code-quality
   count, the same on every replay. *)
let note_cycles cycles (m : modul) op resp =
  match (op, resp) with
  | Run (_, Exec.Target a), Message.Ran (r, _) ->
      Hashtbl.replace cycles (m.digest, Omni_targets.Arch.name a) r.Exec.cycles
  | _ -> ()

type pass = {
  spans : Trace.span list;  (** every span, completion order *)
  request_s : float list;  (** wall time of each measured request *)
  mismatches : int;
  sim_cycles : int;  (** summed over distinct (module, architecture) runs *)
  cycle_pairs : int;
}

(* The daemon's state after the live set-up: [warm] submitted, translated
   and certified or pre-decoded for [engines]. *)
let prime t ~warm ~engines =
  List.iter
    (fun (m : modul) ->
      let h = Store.submit t.store m.wire in
      Hashtbl.replace t.handles m.digest h;
      List.iter
        (function
          | Exec.Interp -> ()
          | Exec.Fast -> ignore (Store.predecoded t.store h)
          | Exec.Target arch ->
              ignore (Cache.find_or_translate t.cache (key_of m.digest arch) (Store.exe t.store h)))
        engines)
    warm

(* Replay [ops] (each with its module) in a fresh store and cache primed
   like the live daemon. [traced] records spans for the measured
   requests, and probe spans for two layer calls the daemon makes off
   the measured path: the standalone SFI verifier on each cold
   translation, and pre-decoding once per module the fast engine runs. *)
let pass ~traced ~warm ~engines ~ops =
  let t = create () in
  prime t ~warm ~engines;
  let cycles = Hashtbl.create 64 in
  let mismatches = ref 0 in
  let run_op tr (m, op) =
    let resp = serve t tr (request_of m op) in
    if not (matches m resp) then incr mismatches;
    note_cycles cycles m op resp
  in
  let collector = Trace.collector () in
  let tr =
    if traced then Trace.make ~clock:(Omni_util.Clock.fn Load.now) (Trace.Collect collector)
    else Trace.null
  in
  let predecoded = Hashtbl.create 16 in
  let probe id name f =
    if traced then
      Trace.with_span tr ~attrs:[ ("req", string_of_int id) ] "probe" (fun () ->
          ignore (Trace.with_span tr name f))
  in
  let request_s =
    Trace.with_current tr @@ fun () ->
    List.mapi
      (fun id (m, op) ->
        let misses = Metrics.value t.counters.Counters.misses in
        let t0 = Load.now () in
        Trace.with_span tr ~attrs:[ ("req", string_of_int id) ] "request" (fun () ->
            run_op tr (m, op));
        let dt = Load.now () -. t0 in
        (match op with
        | Run (_, Exec.Target arch) when Metrics.value t.counters.Counters.misses > misses -> (
            match Cache.peek t.cache (key_of m.digest arch) with
            | Some e -> probe id "exec.verify" (fun () -> Exec.verify ~mode:default_mode e.Cache.tr)
            | None -> ())
        | Run (_, Exec.Fast) when not (Hashtbl.mem predecoded m.digest) ->
            Hashtbl.add predecoded m.digest ();
            let exe = Store.exe t.store (Hashtbl.find t.handles m.digest) in
            probe id "fastinterp.compile" (fun () ->
                Omnivm.Fastinterp.compile exe.Omnivm.Exe.text)
        | _ -> ());
        dt)
      ops
  in
  {
    spans = Trace.collected collector;
    request_s;
    mismatches = !mismatches;
    sim_cycles = Hashtbl.fold (fun _ c acc -> acc + c) cycles 0;
    cycle_pairs = Hashtbl.length cycles;
  }
