(* The load generator: set a daemon up for one workload, then drive it in
   a closed loop through [Omni_net.Client] until the deadline, checking
   every response against the oracle. *)

module Client = Omni_net.Client
module Exec = Omni_service.Exec
open Workload

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let read_timeout = 60.
let connect (d : Daemon.t) = Client.connect ~read_timeout d.Daemon.address

(* cold_admit's modules, from index [base] on: the first few are made
   during set-up, the rest by a producer domain that keeps a bounded
   distance ahead of the client, so module generation never sits between
   two requests. *)
module Cold = struct
  type t = {
    seed : int;
    base : int;
    mu : Mutex.t;
    cond : Condition.t;
    mutable mods : modul array;  (** index [i - base] *)
    mutable produced : int;
    mutable wanted : int;
    mutable stopping : bool;
    mutable error : string option;
    mutable producer : unit Domain.t option;
  }

  let ahead = 16

  let create ~seed ~base ~first =
    {
      seed; base; mu = Mutex.create (); cond = Condition.create ();
      mods = Array.init first (fun k -> cold_module ~seed (base + k));
      produced = first; wanted = 0; stopping = false; error = None; producer = None;
    }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let produce t =
    let rec loop () =
      let k =
        locked t (fun () ->
            while (not t.stopping) && t.produced >= t.wanted + ahead do
              Condition.wait t.cond t.mu
            done;
            if t.stopping then None else Some t.produced)
      in
      match k with
      | None -> ()
      | Some k -> (
          match cold_module ~seed:t.seed (t.base + k) with
          | m ->
              locked t (fun () ->
                  if k = Array.length t.mods then
                    t.mods <- Array.append t.mods (Array.make (max 16 k) m);
                  t.mods.(k) <- m;
                  t.produced <- k + 1;
                  Condition.broadcast t.cond);
              loop ()
          | exception Setup_failed msg ->
              locked t (fun () ->
                  t.error <- Some msg;
                  Condition.broadcast t.cond))
    in
    loop ()

  let start t = t.producer <- Some (Domain.spawn (fun () -> produce t))

  let get t i =
    let k = i - t.base in
    locked t (fun () ->
        t.wanted <- max t.wanted k;
        Condition.broadcast t.cond;
        while t.produced <= k && t.error = None do
          Condition.wait t.cond t.mu
        done;
        match t.error with
        | Some msg when t.produced <= k -> raise (Setup_failed msg)
        | _ -> t.mods.(k))

  let stop t =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cond);
    Option.iter Domain.join t.producer;
    t.producer <- None

  (* Module [i], made already or made now. *)
  let find t i =
    let k = i - t.base in
    match locked t (fun () -> if k < t.produced then Some t.mods.(k) else None) with
    | Some m -> m
    | None -> cold_module ~seed:t.seed i
end

type modules = Warm of modul array | Cold of Cold.t

let module_of mods i =
  match mods with Warm a -> a.(i) | Cold c -> Cold.get c i

type setup = {
  kind : kind;
  seed : int;
  round : int;  (** which round of the run; picks the stream *)
  daemon : Daemon.t;
  mods : modules;
  conn : Client.t option;
      (** the set-up connection, kept as the client's persistent one; the
          fresh-connection workload closes it so it pins no worker *)
}

let check_run (m : modul) (r : Exec.run_result) =
  String.equal r.Exec.output m.output && r.Exec.exit_code = m.exit_code

let submit conn (m : modul) =
  let h = Client.submit conn m.wire in
  if h <> m.digest then fail "%s: the daemon returned a foreign digest" m.m_name

let run_checked conn (m : modul) engine =
  let r = Client.run ~engine conn m.digest in
  if not (check_run m r) then
    fail "%s on %s: output or exit code differs from the oracle's" m.m_name
      (Exec.engine_name engine)

(* Everything between spawning the daemon and the first measured request:
   socket ready, module generation with oracle outputs, submits, warm-up.
   Warm-up leaves every measured warm run a cache hit; a run with fuel 1
   is enough to translate, certify and pre-decode a module. *)
let setup kind ~seed ~round ~omnid ~socket ~log =
  let daemon = Daemon.spawn ~exe:omnid ~socket ~log in
  let conn = connect daemon in
  let mods =
    match kind with
    | Warm_small | Exec_long ->
        let a = Array.of_list (warm_modules kind ~seed) in
        Array.iter (submit conn) a;
        Array.iter
          (fun m ->
            List.iter
              (fun e ->
                match (kind, e) with
                | Warm_small, _ -> run_checked conn m e
                | Exec_long, Exec.Interp -> ()
                | _, _ -> ignore (Client.run ~engine:e ~fuel:1 conn m.digest))
              (engines kind))
          a;
        Warm a
    | Cold_admit ->
        List.iter
          (fun i ->
            let m = cold_module ~seed i in
            submit conn m;
            List.iter (run_checked conn m) targets)
          cold_warmup;
        Cold (Cold.create ~seed ~base:(round * cold_stride) ~first:4)
  in
  let conn =
    if fresh_connection kind then begin
      Client.close conn;
      None
    end
    else Some conn
  in
  { kind; seed; round; daemon; mods; conn }

(* The daemon's counters, over the persistent connection if there is one
   (a second connection would take the other worker). *)
let stats_json s =
  match s.conn with
  | Some c -> Client.stats_json c
  | None ->
      let c = connect s.daemon in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats_json c)

(* What the client saw in the measured window. *)
type tally = {
  mutable lat : (string * float) list;
      (** request kind and seconds, one per correct response *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : int;  (** error responses and lost connections *)
  mutable submits : int;
  mutable runs : int;
  mutable vm_instrs : int;  (** OmniVM instructions of correct runs *)
  mutable last_end : float;
  mutable first_failure : string option;
}

let new_tally () =
  {
    lat = []; attempted = 0; failed = 0; errors = 0; submits = 0; runs = 0;
    vm_instrs = 0; last_end = 0.; first_failure = None;
  }

(* Add [x]'s counts and samples to [t]. *)
let merge t x =
  t.lat <- x.lat @ t.lat;
  t.attempted <- t.attempted + x.attempted;
  t.failed <- t.failed + x.failed;
  t.errors <- t.errors + x.errors;
  t.submits <- t.submits + x.submits;
  t.runs <- t.runs + x.runs;
  t.vm_instrs <- t.vm_instrs + x.vm_instrs;
  t.last_end <- Float.max t.last_end x.last_end;
  if t.first_failure = None then t.first_failure <- x.first_failure

let note_failure t msg =
  t.failed <- t.failed + 1;
  if t.first_failure = None then t.first_failure <- Some msg

(* The closed-loop client. It stops at the end of a cycle of its stream
   once the deadline has passed and it has completed [min_requests], so
   every window holds whole cycles: the same request mix on every run.
   Past [cap] it stops at the end of a cycle whatever the count, so a
   host that steals most of the CPU cannot stretch a run without
   bound. *)
let client s ~deadline ~cap ~min_requests t =
  let n_modules = match s.mods with Warm a -> Array.length a | Cold _ -> 0 in
  let next = stream s.kind ~seed:s.seed ~n_modules ~round:s.round in
  let cycle = cycle_length s.kind ~n_modules in
  let fresh = fresh_connection s.kind in
  let persistent = if fresh then None else s.conn in
  let rec loop k =
    let clock = now () in
    if k mod cycle <> 0 || clock < deadline || (k < min_requests && clock < cap) then begin
      let op = next () in
      let i = module_index op in
      let m = module_of s.mods i in
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      let verdict =
        match
          let c = match persistent with Some c -> c | None -> connect s.daemon in
          Fun.protect
            ~finally:(fun () -> if fresh then Client.close c)
            (fun () ->
              match op with
              | Submit _ ->
                  t.submits <- t.submits + 1;
                  Client.submit c m.wire = m.digest
              | Run (_, engine) ->
                  t.runs <- t.runs + 1;
                  check_run m (Client.run ~engine c m.digest))
        with
        | ok -> if ok then Ok () else Error "output or exit code differs from the oracle's"
        | exception e ->
            t.errors <- t.errors + 1;
            Error (Printexc.to_string e)
      in
      let t1 = now () in
      t.last_end <- t1;
      (match (verdict, op) with
      | Ok (), Run _ ->
          t.lat <- (request_kind s.kind op, t1 -. t0) :: t.lat;
          t.vm_instrs <- t.vm_instrs + m.vm_instrs
      | Ok (), Submit _ -> t.lat <- (request_kind s.kind op, t1 -. t0) :: t.lat
      | Error msg, Run (_, e) ->
          note_failure t (Printf.sprintf "%s on %s: %s" m.m_name (Exec.engine_name e) msg)
      | Error msg, Submit _ -> note_failure t (Printf.sprintf "submit %s: %s" m.m_name msg));
      loop (k + 1)
    end
  in
  loop 0

(* The measured window: the client in a closed loop for at least
   [seconds] and [min_requests] requests (but no longer than twice
   [seconds] for the count), ending on whole cycles. Returns the tally and
   the window's wall time. *)
let measure s ~seconds ~min_requests =
  let t = new_tally () in
  (match s.mods with Cold c -> Cold.start c | Warm _ -> ());
  let t_start = now () in
  let deadline = t_start +. seconds and cap = t_start +. (2. *. seconds) in
  Fun.protect
    ~finally:(fun () -> match s.mods with Cold c -> Cold.stop c | Warm _ -> ())
    (fun () -> client s ~deadline ~cap ~min_requests t);
  (t, t.last_end -. t_start)

let close s =
  Option.iter Client.close s.conn;
  Daemon.stop s.daemon
