(* The three workloads: which modules each one serves, what the
   independent oracles say every run must print, and the seeded request
   stream the load client follows in each round. Everything here is a pure function of
   the workload seed. *)

module Exec = Omni_service.Exec
module Arch = Omni_targets.Arch
module W = Omni_workloads.Workloads

type kind = Warm_small | Exec_long | Cold_admit

let all = [ Warm_small; Exec_long; Cold_admit ]

let name = function
  | Warm_small -> "warm_small"
  | Exec_long -> "exec_long"
  | Cold_admit -> "cold_admit"

let of_name s = List.find_opt (fun k -> name k = s) all

(* A module as the load generator holds it: the wire bytes it submits,
   the digest the daemon must hand back, the oracle's output and exit
   code, and the OmniVM instruction count of one run. *)
type modul = {
  m_name : string;
  wire : string;
  digest : int64;
  output : string;
  exit_code : int;
  vm_instrs : int;
}

exception Setup_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

(* The instruction count comes from the OmniVM reference interpreter; the
   expected output never does — it comes from the oracle of the module's
   source language, which shares no code with the engines under test. *)
let finish ~name wire ~output ~exit_code =
  let r = Exec.run_interp (Exec.load (Omnivm.Wire.decode wire)) in
  {
    m_name = name;
    wire;
    digest = Omni_util.Fnv64.digest_string wire;
    output;
    exit_code;
    vm_instrs = r.Exec.instructions;
  }

let of_minic ~name src =
  let wire = Minic.Driver.compile_wire ~name src in
  match Minic.Oracle.run (Minic.Driver.typed_program_with_stdlib src) with
  | Minic.Oracle.Exited c, output -> finish ~name wire ~output ~exit_code:c
  | (Minic.Oracle.Ran_off_end _ | Minic.Oracle.Failed _), _ ->
      fail "%s: the MiniC oracle did not exit" name

let of_guest ~name prog =
  match Omni_guest.Lift.lift_wire prog with
  | Error _ -> fail "%s: the guest program does not lift" name
  | Ok wire -> (
      let r = Omni_guest.Interp.run prog in
      match r.Omni_guest.Interp.outcome with
      | Omni_guest.Interp.Exited c ->
          finish ~name wire ~output:r.Omni_guest.Interp.output ~exit_code:c
      | Omni_guest.Interp.Faulted _ | Omni_guest.Interp.Out_of_fuel ->
          fail "%s: the guest oracle did not exit" name)

let of_guest_asm (g : W.Guest.t) =
  match Omni_guest.Asm.assemble g.W.Guest.asm with
  | Ok prog -> of_guest ~name:g.W.Guest.name prog
  | Error _ -> fail "%s: does not assemble" g.W.Guest.name

(* A seeded MiniC program that links the runtime library: a chain of
   functions, each one bounded loop over a global table, then calls into
   malloc/memset/srand/rand/abs. Runs roughly 1.5k-5k instructions. *)
let minic_source rng =
  let ri n = Random.State.int rng n in
  let b = Buffer.create 2048 in
  Buffer.add_string b "int tab[32];\n";
  let rec expr vars d =
    if d = 0 || ri 3 = 0 then
      if ri 3 = 0 then string_of_int (ri 200 - 100)
      else List.nth vars (ri (List.length vars))
    else
      let op = [| "+"; "-"; "*"; "&"; "^"; "|"; "+"; "-" |].(ri 8) in
      Printf.sprintf "(%s %s %s)" (expr vars (d - 1)) op (expr vars (d - 1))
  in
  let nf = 2 + ri 3 in
  for f = 0 to nf - 1 do
    Printf.bprintf b "int f%d(int a, int b) {\n  int i; int s; s = a;\n" f;
    Printf.bprintf b "  for (i = 0; i < %d; i++) {\n" (20 + ri 60);
    let vars =
      [ "a"; "b"; "s"; "i"; Printf.sprintf "tab[(i + %d) & 31]" (ri 32) ]
    in
    Printf.bprintf b "    s = %s;\n" (expr vars 3);
    Printf.bprintf b "    tab[(s + i * %d) & 31] = s ^ %d;\n  }\n" (1 + ri 7)
      (ri 1000);
    if f > 0 then Printf.bprintf b "  s = s + f%d(s, b & 255);\n" (ri f);
    Printf.bprintf b "  return s + abs(b);\n}\n"
  done;
  Printf.bprintf b
    "int main(void) {\n\
    \  char *p; int r;\n\
    \  srand(%d);\n\
    \  p = malloc(64);\n\
    \  memset(p, %d, 64);\n\
    \  r = f%d(%d, rand() & 1023) + p[%d];\n\
    \  print_int(r); putchar(10);\n\
    \  print_int(tab[%d]); putchar(10);\n\
    \  return 0;\n\
     }\n"
    (ri 10000) (ri 100) (nf - 1) (ri 1000) (ri 64) (ri 32);
  Buffer.contents b

(* A seeded guest program that runs at most [max_steps] guest
   instructions: [Gen]'s programs range from a dozen to tens of
   thousands, and a workload's cost must not hang on one draw. *)
let rec bounded_gen rng ~max_steps =
  let p = Omni_guest.Gen.program rng in
  if (Omni_guest.Interp.run p).Omni_guest.Interp.steps <= max_steps then p
  else bounded_gen rng ~max_steps

(* The working sets of the two warm workloads. *)
let warm_modules kind ~seed =
  match kind with
  | Warm_small ->
      let rng = Random.State.make [| seed; 1 |] in
      List.map of_guest_asm (W.Guest.all ~size:W.Test)
      @ List.init 16 (fun i ->
            of_guest ~name:(Printf.sprintf "gen%02d" i) (bounded_gen rng ~max_steps:500))
  | Exec_long ->
      List.map
        (fun (w : W.t) -> of_minic ~name:w.W.name w.W.source)
        (W.all ~size:W.Test)
  | Cold_admit -> []

(* Module [i] of a cold_admit run: even indices are seeded MiniC
   programs, odd ones lifted guest programs of at most 3000 steps, so
   every run holds the same mix. Negative indices are the warm-up
   modules. *)
let cold_module ~seed i =
  let rng = Random.State.make [| seed; 3; i |] in
  let name = Printf.sprintf "cold%d" i in
  if i land 1 = 0 then of_minic ~name (minic_source rng)
  else of_guest ~name (bounded_gen rng ~max_steps:3000)

let cold_warmup = [ -1; -2 ]

let targets = List.map (fun a -> Exec.Target a) Arch.all

let engines = function
  | Warm_small -> Exec.Interp :: Exec.Fast :: targets
  | Exec_long -> [ Exec.Interp; Exec.Fast; Exec.Target Arch.Mips; Exec.Target Arch.X86 ]
  | Cold_admit -> targets

(* Whether each request dials a fresh connection (as [omnirun --remote]
   does) or reuses one persistent connection. *)
let fresh_connection = function Warm_small -> true | Exec_long | Cold_admit -> false

type op = Submit of int | Run of int * Exec.engine

let module_index = function Submit i | Run (i, _) -> i

(* What a request asks for, as the p50 groups requests: the (module,
   engine) pair on the warm workloads; the operation and architecture on
   cold_admit, where every module is new. *)
let request_kind kind op =
  match (kind, op) with
  | Cold_admit, Submit _ -> "submit"
  | Cold_admit, Run (_, e) -> Exec.engine_name e
  | (Warm_small | Exec_long), Submit i -> Printf.sprintf "%d/submit" i
  | (Warm_small | Exec_long), Run (i, e) -> Printf.sprintf "%d/%s" i (Exec.engine_name e)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* cold_admit round [r] draws its modules from index [r * cold_stride]
   on, so every round of a run serves modules no other one has. *)
let cold_stride = 1_000_000

(* Round [round]'s endless request stream. The warm workloads go round
   cycles that each hold every (module, engine) pair once, in a fresh
   seeded order, so any window holds the same mix up to one partial
   cycle. cold_admit submits module i and then runs it once on each
   architecture, in a seeded order. *)
let stream kind ~seed ~n_modules ~round : unit -> op =
  match kind with
  | Warm_small | Exec_long ->
      let rng = Random.State.make [| seed; 2; round |] in
      let pairs =
        Array.of_list
          (List.concat_map
             (fun m -> List.map (fun e -> Run (m, e)) (engines kind))
             (List.init n_modules Fun.id))
      in
      let cycle = ref [||] and pos = ref 0 in
      fun () ->
        if !pos = Array.length !cycle then begin
          cycle := shuffle rng (Array.copy pairs);
          pos := 0
        end;
        incr pos;
        !cycle.(!pos - 1)
  | Cold_admit ->
      let pending = Queue.create () and next = ref (round * cold_stride) in
      fun () ->
        if Queue.is_empty pending then begin
          let i = !next in
          incr next;
          Queue.add (Submit i) pending;
          let rng = Random.State.make [| seed; 4; i |] in
          Array.iter
            (fun e -> Queue.add (Run (i, e)) pending)
            (shuffle rng (Array.of_list targets))
        end;
        Queue.pop pending

(* Requests in one cycle of a stream. *)
let cycle_length kind ~n_modules =
  match kind with
  | Warm_small | Exec_long -> n_modules * List.length (engines kind)
  | Cold_admit -> 1 + List.length targets

let take n next = List.init n (fun _ -> next ())
