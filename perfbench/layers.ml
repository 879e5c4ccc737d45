(* Per-layer metrics from the traced pass: span trees grouped by request,
   self time by layer, per-call timings and per-instruction costs. *)

module Trace = Omni_obs.Trace

type metric = { name : string; unit : string; value : float; samples : int }

(* Which layer a span's self time belongs to. The benchmark's spans and
   the library's phase spans nested in them both map here. *)
let layer = function
  | "net.codec" -> Some "net"
  | "store.submit" | "decode" | "cache.find_or_translate" | "cert.check"
  | "store.predecoded" ->
      Some "admit"
  | "translate" | "certify" | "verify" | "predecode" -> Some "translate"
  | "loader.instantiate" | "load" -> Some "instantiate"
  | "exec.run_interp" | "exec.run_fast" | "exec.run_translated" | "run" ->
      Some "execute"
  | _ -> None

let layers = [ "net"; "admit"; "translate"; "instantiate"; "execute" ]

type tree = {
  req : int;
  root : Trace.span;
  members : Trace.span list;  (** the root and every span below it *)
}

let interval (s : Trace.span) = (s.Trace.start_s, s.Trace.start_s +. s.Trace.dur_s)

(* Group spans under their root ("request" or "probe", each carrying the
   request id). *)
let trees spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec root (s : Trace.span) =
    if s.Trace.parent = 0 then s else root (Hashtbl.find by_id s.Trace.parent)
  in
  let groups = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let r = root s in
      Hashtbl.replace groups r.Trace.id
        (s :: Option.value ~default:[] (Hashtbl.find_opt groups r.Trace.id)))
    spans;
  Hashtbl.fold
    (fun id members acc ->
      let root = Hashtbl.find by_id id in
      let req = int_of_string (List.assoc "req" root.Trace.attrs) in
      { req; root; members } :: acc)
    groups []
  |> List.sort (fun a b -> compare a.root.Trace.start_s b.root.Trace.start_s)

let children tree (s : Trace.span) =
  List.filter (fun (c : Trace.span) -> c.Trace.parent = s.Trace.id) tree.members

let self_s tree s = Stats.self_time (interval s) (List.map interval (children tree s))

let str s = "\"" ^ Omni_obs.Metrics.json_escape s ^ "\""

(* JSON lines, one span each: name, start, end, parent, request id, and
   the span's attributes. *)
let write_jsonl path trees =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun t ->
      List.iter
        (fun (s : Trace.span) ->
          let s0, s1 = interval s in
          Printf.fprintf oc
            "{\"req\":%d,\"root\":%s,\"id\":%d,\"parent\":%d,\"name\":%s,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f,\"attrs\":{%s}}\n"
            t.req (str t.root.Trace.name) s.Trace.id s.Trace.parent (str s.Trace.name) (s0 *. 1e6)
            (s1 *. 1e6)
            (self_s t s *. 1e6)
            (String.concat ","
               (List.map (fun (k, v) -> str k ^ ":" ^ str v) s.Trace.attrs)))
        (List.sort (fun (a : Trace.span) b -> compare a.Trace.id b.Trace.id) t.members))
    trees

let attr k (s : Trace.span) = List.assoc_opt k s.Trace.attrs
let num k s = match attr k s with Some v -> float_of_string v | None -> 0.

let spans_named ?(where = fun _ -> true) trees ~root name =
  List.concat_map
    (fun t ->
      if t.root.Trace.name <> root then []
      else List.filter (fun (s : Trace.span) -> s.Trace.name = name && where s) t.members)
    trees

(* Median of a per-call reading, in [scale] units; 0 with no samples. *)
let per_call name unit ~scale ?where ?(root = "request") ?(read = fun (s : Trace.span) -> s.Trace.dur_s) trees span =
  let ss = spans_named ?where trees ~root span in
  {
    name; unit; samples = List.length ss;
    value = (match ss with [] -> 0. | _ -> Stats.median (List.map read ss) *. scale);
  }

(* A total reading over the total instructions the same calls retired. *)
let per_instr name unit ~scale ?where ~read trees span =
  let ss = spans_named ?where trees ~root:"request" span in
  let instrs = List.fold_left (fun acc s -> acc +. num "instructions" s) 0. ss in
  {
    name; unit; samples = List.length ss;
    value =
      (if instrs = 0. then 0.
       else List.fold_left (fun acc s -> acc +. read s) 0. ss /. instrs *. scale);
  }

let arch a s = attr "arch" s = Some a
let outcome o s = attr "outcome" s = Some o

let engine_metrics trees =
  let costs ~ns ~words ?where span =
    [
      per_instr ns "ns" ~scale:1e9 ?where ~read:(fun s -> s.Trace.dur_s) trees span;
      per_instr words "words" ~scale:1. ?where ~read:(num "minor_words") trees span;
    ]
  in
  [
    per_call "runtime.instantiate_us" "us" ~scale:1e6 trees "loader.instantiate";
    per_call "runtime.instantiate_mib" "MiB" ~scale:(1. /. 1048576.)
      ~read:(num "alloc_bytes") trees "loader.instantiate";
  ]
  @ costs ~ns:"omnivm.interp.ns_per_instr" ~words:"omnivm.interp.words_per_instr"
      "exec.run_interp"
  @ costs ~ns:"omnivm.fast.ns_per_instr" ~words:"omnivm.fast.words_per_instr" "exec.run_fast"
  @ [ per_call "omnivm.predecode_us" "us" ~scale:1e6 ~root:"probe" trees "fastinterp.compile" ]
  @ List.concat_map
      (fun a ->
        costs ~ns:("targets.sim.ns_per_instr." ^ a) ~words:("targets.sim.words_per_instr." ^ a)
          ~where:(arch a) "exec.run_translated")
      [ "mips"; "x86" ]

let admission_metrics trees =
  List.map
    (fun a ->
      per_call ("targets.translate_us." ^ a) "us" ~scale:1e6 ~where:(arch a) trees "translate")
    [ "mips"; "sparc"; "ppc"; "x86" ]
  @ [
      per_call "sfi.verify_us" "us" ~scale:1e6 ~root:"probe" trees "exec.verify";
      per_call "cert.certify_us" "us" ~scale:1e6 trees "certify";
      per_call "cache.miss_us" "us" ~scale:1e6 ~where:(outcome "miss") trees
        "cache.find_or_translate";
      per_call "store.submit_us" "us" ~scale:1e6 trees "store.submit";
      per_call "wire.decode_us" "us" ~scale:1e6 trees "decode";
      per_call "cache.hit_us" "us" ~scale:1e6 ~where:(outcome "hit") trees
        "cache.find_or_translate";
      per_call "cert.check_us" "us" ~scale:1e6 trees "cert.check";
    ]

let codec_metric trees =
  let reqs = List.filter (fun t -> t.root.Trace.name = "request") trees in
  let per_req =
    List.map
      (fun t ->
        List.fold_left
          (fun acc (s : Trace.span) ->
            if s.Trace.name = "net.codec" then acc +. s.Trace.dur_s else acc)
          0. t.members)
      reqs
  in
  {
    name = "net.codec_us"; unit = "us"; samples = List.length per_req;
    value = (match per_req with [] -> 0. | _ -> Stats.median per_req *. 1e6);
  }

(* Self time of every layer over the measured request spans, as a share
   of their total duration. *)
let share_metrics trees =
  let reqs = List.filter (fun t -> t.root.Trace.name = "request") trees in
  let total = List.fold_left (fun acc t -> acc +. t.root.Trace.dur_s) 0. reqs in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun t ->
      List.iter
        (fun (s : Trace.span) ->
          match layer s.Trace.name with
          | Some l ->
              Hashtbl.replace by_layer l
                (self_s t s +. Option.value ~default:0. (Hashtbl.find_opt by_layer l))
          | None -> ())
        t.members)
    reqs;
  List.map
    (fun l ->
      {
        name = "share." ^ l; unit = "ratio"; samples = List.length reqs;
        value =
          (if total = 0. then 0.
           else Option.value ~default:0. (Hashtbl.find_opt by_layer l) /. total);
      })
    layers

let of_trees trees =
  engine_metrics trees @ admission_metrics trees @ [ codec_metric trees ] @ share_metrics trees
