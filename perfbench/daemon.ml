(* The daemon under test: the real [omnid] binary in its own process on a
   Unix-domain socket, spawned, awaited, measured from /proc, and
   stopped. *)

module Client = Omni_net.Client
module Transport = Omni_net.Transport

type t = { pid : int; address : Transport.address; mutable live : bool }

let flags ~socket = [ "--socket"; socket; "--pool"; "2" ]

(* Every daemon still running when the benchmark exits, for any reason. *)
let running : t list ref = ref []

let stop d =
  if d.live then begin
    d.live <- false;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (* SIGTERM drains gracefully; a daemon that has not gone in 10 s is
       killed. *)
    let give_up = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
          if Unix.gettimeofday () > give_up then begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] d.pid)
          end
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end;
  running := List.filter (fun x -> x != d) !running

let () = at_exit (fun () -> List.iter stop !running)

(* Spawn [exe] and return once the daemon answers a ping. *)
let spawn ~exe ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: flags ~socket))
      Unix.stdin out out
  in
  Unix.close out;
  let d = { pid; address = Transport.Unix_sock socket; live = true } in
  running := d :: !running;
  let give_up = Unix.gettimeofday () +. 30. in
  let rec await () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
        d.live <- false;
        failwith (Printf.sprintf "omnid exited during start-up (see %s)" log)
    | _ -> (
        match Client.connect d.address with
        | c ->
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                Client.ping c)
        | exception Unix.Unix_error _ when Unix.gettimeofday () < give_up ->
            Unix.sleepf 0.002;
            await ())
  in
  await ();
  d

(* Peak resident set of the daemon so far, in MiB. *)
let vm_hwm_mib d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc status"
  in
  scan ()

(* CPU time the daemon's threads have run so far, in seconds (the
   scheduler's own accounting, which leaves out time the host stole). *)
let cpu_s d =
  let dir = Printf.sprintf "/proc/%d/task" d.pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | ic ->
          let ns = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Scanf.sscanf (input_line ic) "%d" Fun.id) in
          acc +. (float ns *. 1e-9)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Seconds of CPU the host has stolen from this machine, over all CPUs. *)
let steal_s () =
  let ic = open_in "/proc/stat" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  Scanf.sscanf (input_line ic) "cpu %d %d %d %d %d %d %d %d" (fun _ _ _ _ _ _ _ st ->
      float st /. 100.)
