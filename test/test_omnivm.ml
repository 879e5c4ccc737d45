(* OmniVM tests: instruction semantics via the reference interpreter, the
   segmented memory model, the wire format, and the virtual exception
   model. *)

module VI = Omnivm.Instr
module W = Omni_util.Word32

(* --- helpers: assemble, link, run under the interpreter --- *)

let run_asm ?(fuel = 1_000_000) src =
  let obj = Omni_asm.Parse.assemble ~name:"t" src in
  let exe = Omni_asm.Link.link [ obj ] in
  let img = Omni_runtime.Loader.load exe in
  let outcome, st = Omni_runtime.Loader.run_interp ~fuel img in
  (outcome, Omni_runtime.Host.output img.Omni_runtime.Loader.host, st)

let expect_output ?fuel src expected =
  let outcome, out, _ = run_asm ?fuel src in
  (match outcome with
  | Omnivm.Interp.Exited 0 -> ()
  | Omnivm.Interp.Exited n -> Alcotest.failf "exit %d" n
  | Omnivm.Interp.Faulted f -> Alcotest.failf "fault: %s" (Omnivm.Fault.to_string f)
  | Omnivm.Interp.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check string) "output" expected out

let expect_fault src pred =
  let outcome, _, _ = run_asm src in
  match outcome with
  | Omnivm.Interp.Faulted f ->
      if not (pred f) then
        Alcotest.failf "unexpected fault %s" (Omnivm.Fault.to_string f)
  | Omnivm.Interp.Exited n -> Alcotest.failf "exited %d, expected fault" n
  | Omnivm.Interp.Out_of_fuel -> Alcotest.fail "out of fuel"

(* a main that prints r1 after running [body] *)
let wrap body =
  Printf.sprintf
    {|
        .text
        .globl main
main:
%s
        hcall 2
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
|}
    body

let smoke () =
  expect_output
    (wrap {|
        li r1, 6
        li r2, 7
        mul r1, r1, r2 |})
    "42\n"

let arith () =
  expect_output (wrap "li r1, 10\nli r2, 3\ndiv r1, r1, r2") "3\n";
  expect_output (wrap "li r1, -10\nli r2, 3\ndiv r1, r1, r2") "-3\n";
  expect_output (wrap "li r1, -10\nli r2, 3\nrem r1, r1, r2") "-1\n";
  expect_output (wrap "li r1, -1\nli r2, 2\ndivu r1, r1, r2") "2147483647\n";
  expect_output (wrap "li r1, 0x7fffffff\naddi r1, r1, 1") "-2147483648\n";
  expect_output (wrap "li r1, 1\nslli r1, r1, 31") "-2147483648\n";
  expect_output (wrap "li r1, -8\nsrai r1, r1, 1") "-4\n";
  expect_output (wrap "li r1, -8\nsrli r1, r1, 28") "15\n";
  expect_output (wrap "li r1, 12\nli r2, 10\nslt r1, r1, r2") "0\n";
  expect_output (wrap "li r1, -1\nli r2, 1\nsltu r1, r1, r2") "0\n";
  expect_output (wrap "li r1, -1\nli r2, 1\nslt r1, r1, r2") "1\n"

let memory_ops () =
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, 0x12345678
        sw r3, 0(r2)
        lbu r1, 0(r2)      ; little-endian low byte |}
     ^ "\n        .data\nbuf: .space 8\n")
    "120\n";
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, -2
        sh r3, 2(r2)
        lh r1, 2(r2) |}
     ^ "\n        .data\nbuf: .space 8\n")
    "-2\n";
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, 200
        sb r3, 1(r2)
        lb r1, 1(r2)       ; sign-extended byte load |}
     ^ "\n        .data\nbuf: .space 8\n")
    "-56\n"

let float_ops () =
  expect_output
    (wrap {|
        fli.d f1, 1.5
        fli.d f2, 2.25
        fadd.d f3, f1, f2
        cvt.w.d r1, f3 |})
    "3\n";
  expect_output
    (wrap {|
        fli.d f1, 7.0
        fli.d f2, 2.0
        fdiv.d f3, f1, f2
        cvt.w.d r1, f3 |})
    "3\n";
  expect_output
    (wrap {|
        li r2, -3
        cvt.d.w f1, r2
        fabs.d f2, f1
        cvt.w.d r1, f2 |})
    "3\n";
  expect_output
    (wrap {|
        fli.d f1, 1.5
        fli.d f2, 1.5
        feq.d r1, f1, f2 |})
    "1\n"

let ext_ins () =
  expect_output
    (wrap {|
        li r2, 0x12345678
        ext r1, r2, 1, 2   ; bytes 1..2 -> 0x3456 |})
    (Printf.sprintf "%d\n" 0x3456);
  expect_output
    (wrap {|
        li r1, 0x11223344
        li r2, 0xAB
        ins r1, r2, 3, 1   ; byte 3 := 0xAB |})
    (Printf.sprintf "%d\n" (W.of_int 0xAB223344))

let branches () =
  expect_output
    (wrap {|
        li r1, 0
        li r2, 5
loop:   addi r1, r1, 1
        bne r1, r2, loop |})
    "5\n";
  expect_output
    (wrap {|
        li r1, -5
        bgti r1, -10, yes
        li r1, 0
        j done1
yes:    li r1, 1
done1:  nop |})
    "1\n";
  expect_output
    (wrap {|
        li r1, -5
        li r2, 3
        bgtu r1, r2, yes   ; -5 unsigned is huge
        li r1, 0
        j done1
yes:    li r1, 1
done1:  nop |})
    "1\n"

let calls () =
  expect_output
    {|
        .text
        .globl main
double: add r1, r1, r1
        jr r15
main:   addi r14, r14, -16
        sw r15, 0(r14)
        li r1, 21
        jal double
        hcall 2
        li r1, 10
        hcall 1
        lw r15, 0(r14)
        addi r14, r14, 16
        li r1, 0
        hcall 0
|}
    "42\n";
  (* indirect call through a function pointer in data *)
  expect_output
    {|
        .data
fptr:   .word triple
        .text
        .globl main
triple: li r9, 3
        mul r1, r1, r9
        jr r15
main:   addi r14, r14, -16
        sw r15, 0(r14)
        li r1, 14
        lw r5, fptr(r0)
        jalr r15, r5
        hcall 2
        li r1, 10
        hcall 1
        lw r15, 0(r14)
        addi r14, r14, 16
        li r1, 0
        hcall 0
|}
    "42\n"

(* --- faults and the virtual exception model --- *)

let fault_unmapped () =
  expect_fault
    (wrap {|
        li r2, 0x00000040
        lw r1, 0(r2) |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Read; _ } -> true
      | _ -> false)

let fault_write_code () =
  expect_fault
    (wrap {|
        li r2, 0x10000000
        li r3, 1
        sw r3, 0(r2) |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Write; _ } -> true
      | _ -> false)

let fault_div0 () =
  expect_fault
    (wrap {|
        li r1, 1
        li r2, 0
        div r1, r1, r2 |})
    (function Omnivm.Fault.Division_by_zero -> true | _ -> false)

let fault_bad_jump () =
  expect_fault
    (wrap {|
        li r2, 0x20000000
        jr r2 |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Execute; _ } ->
          true
      | _ -> false)

(* The module registers a handler; a division by zero is delivered to it
   instead of aborting (paper: the SDCA exception model). *)
let handler_delivery () =
  expect_output
    {|
        .text
        .globl main
handler:
        ; r1 = fault code (3 = division by zero)
        hcall 2
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
main:
        li r1, handler
        hcall 7            ; set_handler
        li r2, 0
        li r3, 4
        div r3, r3, r2     ; faults; delivered to handler
        li r1, 99          ; unreachable
        hcall 2
        li r1, 1
        hcall 0
|}
    "3\n"

let unauthorized_hcall () =
  let obj =
    Omni_asm.Parse.assemble ~name:"t"
      {|
        .text
        .globl main
main:   li r1, 65
        hcall 1
        li r1, 0
        hcall 0
|}
  in
  let exe = Omni_asm.Link.link [ obj ] in
  (* host only allows exit: the putchar must fault *)
  let img = Omni_runtime.Loader.load ~allow:[ Omnivm.Hostcall.Exit ] exe in
  match Omni_runtime.Loader.run_interp img with
  | Omnivm.Interp.Faulted (Omnivm.Fault.Unauthorized_host_call { index = 1 }), _ -> ()
  | o, _ ->
      Alcotest.failf "expected unauthorized host call, got %s"
        (match o with
        | Omnivm.Interp.Exited n -> Printf.sprintf "exit %d" n
        | Omnivm.Interp.Faulted f -> Omnivm.Fault.to_string f
        | Omnivm.Interp.Out_of_fuel -> "fuel")

let sbrk_heap () =
  expect_output
    (wrap {|
        li r1, 64
        hcall 5            ; sbrk
        addi r2, r1, 0
        li r3, 77
        sw r3, 0(r2)
        lw r1, 0(r2) |})
    "77\n"

(* --- memory unit tests --- *)

let memory_unit () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"a" ~base:0x1000 ~size:0x1000
       ~perm:Omnivm.Memory.perm_rw);
  Omnivm.Memory.store32 mem 0x1000 0x11223344;
  Alcotest.(check int) "load32" 0x11223344 (Omnivm.Memory.load32 mem 0x1000);
  Alcotest.(check int) "load8 le" 0x44 (Omnivm.Memory.load8 mem 0x1000);
  Alcotest.(check int) "load16" 0x3344 (Omnivm.Memory.load16 mem 0x1000);
  Omnivm.Memory.store_float mem 0x1008 3.25;
  Alcotest.(check (float 0.0)) "float" 3.25 (Omnivm.Memory.load_float mem 0x1008);
  Alcotest.check_raises "unmapped"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation { addr = 0x0; access = Omnivm.Fault.Read }))
    (fun () -> ignore (Omnivm.Memory.load8 mem 0x0));
  (* permission change *)
  Omnivm.Memory.set_perm mem "a" Omnivm.Memory.perm_r;
  Alcotest.check_raises "read-only"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation
          { addr = 0x1000; access = Omnivm.Fault.Write }))
    (fun () -> Omnivm.Memory.store8 mem 0x1000 1);
  (* straddling the region end *)
  Alcotest.check_raises "straddle"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation
          { addr = 0x2001; access = Omnivm.Fault.Read }))
    (fun () -> ignore (Omnivm.Memory.load32 mem 0x1FFE))

let overlap_rejected () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"a" ~base:0x1000 ~size:0x2000
       ~perm:Omnivm.Memory.perm_rw);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Memory.map: overlapping regions") (fun () ->
      ignore
        (Omnivm.Memory.map mem ~name:"b" ~base:0x2000 ~size:0x1000
           ~perm:Omnivm.Memory.perm_rw))

(* --- paged memory against a flat reference model ---

   The model keeps one flat [Bytes.t] per region and states the contract
   directly: region lookup, then the permission check, then the straddle
   check (faulting at the last byte), little-endian bytes, 64-bit accesses
   as two 32-bit halves low first, and a faulting store that writes
   nothing. The paged memory must agree on every value, every fault
   payload and every byte, commit no page on a load or a faulting store,
   and never write the shared pages it was mapped from. *)

type flat = {
  f_name : string;
  f_base : int;
  f_size : int;
  mutable f_perm : Omnivm.Memory.perm;
  f_bytes : Bytes.t;
}

let flat_fault addr access =
  raise (Omnivm.Fault.Vm_fault (Omnivm.Fault.Access_violation { addr; access }))

let flat_find regs addr =
  List.find_opt (fun r -> addr >= r.f_base && addr < r.f_base + r.f_size) regs

let flat_check regs addr width access =
  let addr = addr land 0xFFFFFFFF in
  match flat_find regs addr with
  | None -> flat_fault addr access
  | Some r ->
      let p = r.f_perm in
      let ok =
        match access with
        | Omnivm.Fault.Read -> p.Omnivm.Memory.read
        | Omnivm.Fault.Write -> p.Omnivm.Memory.write
        | Omnivm.Fault.Execute -> p.Omnivm.Memory.execute
      in
      if not ok then flat_fault addr access;
      if addr - r.f_base + width > r.f_size then
        flat_fault (addr + width - 1) access;
      (r, addr - r.f_base)

let flat_get r off width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get r.f_bytes (off + i))
  done;
  !v

let flat_put r off width v =
  for i = 0 to width - 1 do
    Bytes.set r.f_bytes (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let flat_load regs addr width =
  let r, off = flat_check regs addr width Omnivm.Fault.Read in
  flat_get r off width

let flat_store regs addr width v =
  let r, off = flat_check regs addr width Omnivm.Fault.Write in
  flat_put r off width v

let flat_load64 regs addr =
  let lo = flat_load regs addr 4 in
  let hi = flat_load regs (addr + 4) 4 in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let flat_store64 regs addr v =
  let r1, o1 = flat_check regs addr 4 Omnivm.Fault.Write in
  let r2, o2 = flat_check regs (addr + 4) 4 Omnivm.Fault.Write in
  flat_put r1 o1 4 (Int64.to_int v);
  flat_put r2 o2 4 (Int64.to_int (Int64.shift_right_logical v 32))

(* Trusted bulk access: no permission check, no address masking. *)
let flat_trusted regs who addr len =
  match flat_find regs addr with
  | None -> invalid_arg ("Memory." ^ who ^ ": unmapped")
  | Some r ->
      if addr - r.f_base + len > r.f_size then
        invalid_arg ("Memory." ^ who ^ ": overflow");
      (r, addr - r.f_base)

(* Widths: 0..2 = 8/16/32-bit integer, 3 = 64-bit, 4 = double, 5 = single. *)
type mem_op =
  | Load of int * int
  | Store of int * int * int64
  | Blit of int * string
  | Read of int * int
  | Perm of string * Omnivm.Memory.perm

let perms =
  Omnivm.Memory.
    [ perm_rw; perm_r; perm_rx; perm_rwx;
      { read = false; write = true; execute = false } ]

let perm_name (p : Omnivm.Memory.perm) =
  Printf.sprintf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

let show_op = function
  | Load (w, a) -> Printf.sprintf "load/%d %#x" w a
  | Store (w, a, v) -> Printf.sprintf "store/%d %#x %Ld" w a v
  | Blit (a, s) -> Printf.sprintf "blit_in %#x (%d bytes)" a (String.length s)
  | Read (a, n) -> Printf.sprintf "read_bytes %#x %d" a n
  | Perm (r, p) -> Printf.sprintf "set_perm %s %s" r (perm_name p)

(* Regions a and b are adjacent, b's size is not a whole number of pages,
   and c is mapped from a snapshot. *)
let diff_regions = [ ("a", 0x1000, 0x3000); ("b", 0x4000, 0x1800); ("c", 0x8000, 0x2000) ]

let gen_mem_addr ~masked =
  let open QCheck.Gen in
  let anchors =
    [ 0x0; 0x1000; 0x2000; 0x3000; 0x4000; 0x5000; 0x5800; 0x8000; 0x9000;
      0xA000; 0xFFFFFFF8 ]
  in
  let near = map2 ( + ) (oneofl anchors) (int_range (-9) 9) in
  let any = int_bound 0xB000 in
  let addr = frequency [ (6, near); (2, any) ] in
  if masked then
    map2 (fun a hi -> if hi then a + 0x1_0000_0000 else a) addr
      (frequencyl [ (9, false); (1, true) ])
  else addr

let gen_mem_op =
  let open QCheck.Gen in
  let value =
    frequency
      [ (4, map2 (fun a b -> Int64.logor (Int64.of_int a)
                     (Int64.shift_left (Int64.of_int b) 32)) int int);
        (1, oneofl [ 0L; -1L; 0x80000000L; Int64.min_int; 0x7FF8000000000001L ]) ]
  in
  frequency
    [ (6, map2 (fun w a -> Load (w, a)) (int_bound 5) (gen_mem_addr ~masked:true));
      (6, map3 (fun w a v -> Store (w, a, v)) (int_bound 5)
            (gen_mem_addr ~masked:true) value);
      (2, map2 (fun a s -> Blit (a, s)) (gen_mem_addr ~masked:false)
            (string_size ~gen:char
               (frequency [ (3, int_bound 16); (1, int_bound 9000) ])));
      (2, map2 (fun a n -> Read (a, n)) (gen_mem_addr ~masked:false)
            (frequency [ (3, int_bound 16); (1, int_bound 9000) ]));
      (1, map2 (fun r p -> Perm (r, p)) (oneofl [ "a"; "b"; "c" ]) (oneofl perms)) ]

(* Run one op, rendering its result (value, fault payload, or refusal). *)
let outcome f =
  match f () with
  | v -> v
  | exception
      Omnivm.Fault.Vm_fault (Omnivm.Fault.Access_violation { addr; access }) ->
      Printf.sprintf "fault %#x %s" addr
        (match access with
        | Omnivm.Fault.Read -> "read"
        | Omnivm.Fault.Write -> "write"
        | Omnivm.Fault.Execute -> "execute")
  | exception Invalid_argument m -> "invalid " ^ m

let bits f = Int64.to_string (Int64.bits_of_float f)

let paged_op mem op () =
  let module M = Omnivm.Memory in
  match op with
  | Load (0, a) -> string_of_int (M.load8 mem a)
  | Load (1, a) -> string_of_int (M.load16 mem a)
  | Load (2, a) -> string_of_int (M.load32 mem a)
  | Load (3, a) -> Int64.to_string (M.load64 mem a)
  | Load (4, a) -> bits (M.load_float mem a)
  | Load (_, a) -> bits (M.load_single mem a)
  | Store (0, a, v) -> M.store8 mem a (Int64.to_int v); "ok"
  | Store (1, a, v) -> M.store16 mem a (Int64.to_int v); "ok"
  | Store (2, a, v) -> M.store32 mem a (Int64.to_int v); "ok"
  | Store (3, a, v) -> M.store64 mem a v; "ok"
  | Store (4, a, v) -> M.store_float mem a (Int64.float_of_bits v); "ok"
  | Store (_, a, v) -> M.store_single mem a (Int64.float_of_bits v); "ok"
  | Blit (a, s) -> M.blit_in mem ~addr:a (Bytes.of_string s); "ok"
  | Read (a, n) -> Bytes.to_string (M.read_bytes mem ~addr:a ~len:n)
  | Perm (r, p) -> M.set_perm mem r p; "ok"

let flat_op regs op () =
  match op with
  | Load (0, a) -> string_of_int (flat_load regs a 1)
  | Load (1, a) -> string_of_int (flat_load regs a 2)
  | Load (2, a) -> string_of_int (W.of_int (flat_load regs a 4))
  | Load (3, a) -> Int64.to_string (flat_load64 regs a)
  | Load (4, a) -> bits (Int64.float_of_bits (flat_load64 regs a))
  | Load (_, a) ->
      bits (Int32.float_of_bits (Int32.of_int (flat_load regs a 4)))
  | Store (0, a, v) -> flat_store regs a 1 (Int64.to_int v); "ok"
  | Store (1, a, v) -> flat_store regs a 2 (Int64.to_int v); "ok"
  | Store (2, a, v) -> flat_store regs a 4 (Int64.to_int v); "ok"
  | Store (3, a, v) -> flat_store64 regs a v; "ok"
  | Store (4, a, v) ->
      flat_store64 regs a (Int64.bits_of_float (Int64.float_of_bits v)); "ok"
  | Store (_, a, v) ->
      flat_store regs a 4
        (Int32.to_int (Int32.bits_of_float (Int64.float_of_bits v)));
      "ok"
  | Blit (a, s) ->
      let r, off = flat_trusted regs "blit_in" a (String.length s) in
      Bytes.blit_string s 0 r.f_bytes off (String.length s);
      "ok"
  | Read (a, n) ->
      let r, off = flat_trusted regs "read_bytes" a n in
      Bytes.sub_string r.f_bytes off n
  | Perm (name, p) ->
      (List.find (fun r -> r.f_name = name) regs).f_perm <- p;
      "ok"

let same_contents mem regs =
  List.for_all
    (fun r ->
      Bytes.equal r.f_bytes
        (Omnivm.Memory.read_bytes mem ~addr:r.f_base ~len:r.f_size))
    regs

let paged_matches_flat =
  let open QCheck in
  let gen =
    Gen.(
      triple
        (string_size ~gen:char (int_bound 6000))
        (int_bound 0x2000)
        (list_size (int_range 1 80) gen_mem_op))
  in
  let print (init, at, ops) =
    Printf.sprintf "init %d bytes at %#x; %s" (String.length init) at
      (String.concat "; " (List.map show_op ops))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:300 ~name:"paged memory = flat model" (make ~print gen)
       (fun (init, at, ops) ->
         let at = min at (0x2000 - String.length init) in
         let snap =
           Omnivm.Memory.snapshot ~size:0x2000 ~at (Bytes.of_string init)
         in
         let mem = Omnivm.Memory.create () in
         let regs =
           List.map
             (fun (name, base, size) ->
               let from = if name = "c" then Some snap else None in
               ignore
                 (Omnivm.Memory.map ?init:from mem ~name ~base ~size
                    ~perm:Omnivm.Memory.perm_rw);
               let bytes = Bytes.make size '\000' in
               if name = "c" then
                 Bytes.blit_string init 0 bytes at (String.length init);
               { f_name = name; f_base = base; f_size = size;
                 f_perm = Omnivm.Memory.perm_rw; f_bytes = bytes })
             diff_regions
         in
         List.iter
           (fun op ->
             let before = Omnivm.Memory.committed_pages mem in
             let got = outcome (paged_op mem op) in
             let want = outcome (flat_op regs op) in
             if got <> want then
               Test.fail_reportf "%s: paged %S, flat %S" (show_op op) got want;
             let ok = got = "ok" in
             (match op with
             | Load _ | Read _ when Omnivm.Memory.committed_pages mem <> before ->
                 Test.fail_reportf "%s committed a page" (show_op op)
             | (Store _ | Blit _) when not ok ->
                 if Omnivm.Memory.committed_pages mem <> before then
                   Test.fail_reportf "faulting %s committed a page" (show_op op);
                 if not (same_contents mem regs) then
                   Test.fail_reportf "faulting %s changed memory" (show_op op)
             | _ -> ()))
           ops;
         if not (same_contents mem regs) then
           Test.fail_report "final contents differ";
         (* the snapshot's shared pages were never written *)
         let fresh = Omnivm.Memory.create () in
         ignore
           (Omnivm.Memory.map ~init:snap fresh ~name:"c" ~base:0x8000
              ~size:0x2000 ~perm:Omnivm.Memory.perm_r);
         let expect = Bytes.make 0x2000 '\000' in
         Bytes.blit_string init 0 expect at (String.length init);
         Bytes.equal expect
           (Omnivm.Memory.read_bytes fresh ~addr:0x8000 ~len:0x2000)))

(* --- wire format round-trip --- *)

let gen_reg = QCheck.Gen.int_bound 15

let gen_instr : int VI.t QCheck.Gen.t =
  let open QCheck.Gen in
  let imm = oneof [ int_bound 100; map W.of_int int; return 0 ] in
  let lab = map (fun i -> Omnivm.Layout.code_base + (4 * i)) (int_bound 1000) in
  let binop =
    oneofl
      [ VI.Add; Sub; Mul; Div; Divu; Rem; Remu; And; Or; Xor; Sll; Srl; Sra;
        Slt; Sltu ]
  in
  let cond =
    oneofl [ VI.Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ]
  in
  let width_s = oneofl [ (VI.W8, false); (W8, true); (W16, false); (W16, true); (W32, true) ] in
  let swidth = oneofl [ VI.W8; W16; W32 ] in
  let prec = oneofl [ VI.Single; VI.Double ] in
  oneof
    [ return VI.Nop;
      map2 (fun r i -> VI.Li (r, i)) gen_reg imm;
      (binop >>= fun op ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Binop (op, a, b, c)));
      (binop >>= fun op ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Binopi (op, a, b, i)));
      (width_s >>= fun (w, s) ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Load (w, s, a, b, i)));
      (swidth >>= fun w ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Store (w, a, b, i)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Fload (p, a, b, i)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Fstore (p, a, b, i)));
      (oneofl [ VI.Fadd; Fsub; Fmul; Fdiv ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Fbinop (op, p, a, b, c)));
      (oneofl [ VI.Fneg; Fabs; Fmov ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b -> return (VI.Funop (op, p, a, b)));
      (oneofl [ VI.Feq; Flt; Fle ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Fcmp (op, p, a, b, c)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       float_bound_inclusive 1000.0 >>= fun v -> return (VI.Fli (p, a, v)));
      (cond >>= fun c ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       lab >>= fun l -> return (VI.Br (c, a, b, l)));
      (cond >>= fun c ->
       gen_reg >>= fun a ->
       imm >>= fun i ->
       lab >>= fun l -> return (VI.Bri (c, a, i, l)));
      map (fun l -> VI.J l) lab;
      map (fun l -> VI.Jal l) lab;
      map (fun r -> VI.Jr r) gen_reg;
      map2 (fun a b -> VI.Jalr (a, b)) gen_reg gen_reg;
      (gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       int_bound 3 >>= fun pos ->
       int_range 1 (4 - pos) >>= fun len -> return (VI.Ext (a, b, pos, len)));
      (gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       int_bound 3 >>= fun pos ->
       int_range 1 (4 - pos) >>= fun len -> return (VI.Ins (a, b, pos, len)));
      map (fun n -> VI.Hcall n) (int_bound 8);
      map (fun n -> VI.Trap n) (int_bound 100)
    ]

let arb_exe =
  QCheck.make
    ~print:(fun (e : Omnivm.Exe.t) ->
      Format.asprintf "%a" Omnivm.Exe.pp e)
    QCheck.Gen.(
      list_size (int_range 1 40) gen_instr >>= fun instrs ->
      string_size (int_bound 64) >>= fun data ->
      int_bound 256 >>= fun bss ->
      let text = Array.of_list instrs in
      return
        {
          Omnivm.Exe.text;
          entry = Omnivm.Layout.code_base;
          data = Bytes.of_string data;
          bss_size = bss;
          symbols = [ ("main", Omnivm.Layout.code_base) ];
        })

let wire_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"wire encode/decode roundtrip" arb_exe
       (fun exe ->
         let exe' = Omnivm.Wire.decode (Omnivm.Wire.encode exe) in
         exe'.Omnivm.Exe.text = exe.Omnivm.Exe.text
         && exe'.entry = exe.entry
         && Bytes.equal exe'.data exe.data
         && exe'.bss_size = exe.bss_size
         && exe'.symbols = exe.symbols))

(* decoding arbitrary bytes must never raise anything except Bad_module
   (and decoded modules must re-encode) *)
let wire_decode_robust =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"wire decode is total"
       QCheck.(string_of_size (QCheck.Gen.int_bound 200))
       (fun s ->
         (* half the time, corrupt a valid module instead of random bytes *)
         let s =
           if String.length s > 0 && Char.code s.[0] land 1 = 0 then s
           else begin
             let good =
               Omnivm.Wire.encode
                 { Omnivm.Exe.text = [| VI.Li (1, 42); VI.Hcall 0 |];
                   entry = Omnivm.Layout.code_base;
                   data = Bytes.of_string "abc"; bss_size = 4;
                   symbols = [ ("main", Omnivm.Layout.code_base) ] }
             in
             let b = Bytes.of_string good in
             String.iteri
               (fun i c ->
                 if i < Bytes.length b then
                   Bytes.set b (i * 31 mod Bytes.length b) c)
               s;
             Bytes.to_string b
           end
         in
         match Omnivm.Wire.decode s with
         | exe -> String.length (Omnivm.Wire.encode exe) > 0
         | exception Omnivm.Wire.Bad_module _ -> true))

let wire_rejects_garbage () =
  Alcotest.check_raises "magic" (Omnivm.Wire.Bad_module "bad magic")
    (fun () -> ignore (Omnivm.Wire.decode "NOPE"));
  let good = Omnivm.Wire.encode
      { Omnivm.Exe.text = [| VI.Nop |]; entry = Omnivm.Layout.code_base;
        data = Bytes.create 0; bss_size = 0; symbols = [] } in
  let truncated = String.sub good 0 (String.length good - 1) in
  (match Omnivm.Wire.decode truncated with
  | exception Omnivm.Wire.Bad_module _ -> ()
  | _ -> Alcotest.fail "truncated module accepted")

let () =
  Alcotest.run "omnivm"
    [ ("interp",
       [ Alcotest.test_case "smoke" `Quick smoke;
         Alcotest.test_case "arith" `Quick arith;
         Alcotest.test_case "memory ops" `Quick memory_ops;
         Alcotest.test_case "float ops" `Quick float_ops;
         Alcotest.test_case "ext/ins" `Quick ext_ins;
         Alcotest.test_case "branches" `Quick branches;
         Alcotest.test_case "calls" `Quick calls ]);
      ("faults",
       [ Alcotest.test_case "unmapped read" `Quick fault_unmapped;
         Alcotest.test_case "write to code" `Quick fault_write_code;
         Alcotest.test_case "division by zero" `Quick fault_div0;
         Alcotest.test_case "bad indirect jump" `Quick fault_bad_jump;
         Alcotest.test_case "handler delivery" `Quick handler_delivery;
         Alcotest.test_case "unauthorized host call" `Quick unauthorized_hcall;
         Alcotest.test_case "sbrk heap" `Quick sbrk_heap ]);
      ("memory",
       [ Alcotest.test_case "unit" `Quick memory_unit;
         Alcotest.test_case "overlap rejected" `Quick overlap_rejected;
         paged_matches_flat ]);
      ("wire",
       [ wire_roundtrip;
         wire_decode_robust;
         Alcotest.test_case "rejects garbage" `Quick wire_rejects_garbage ])
    ]
