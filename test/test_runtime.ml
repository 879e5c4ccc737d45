(* Host-environment tests: service dispatch, authority, heap management,
   and loader behaviour. *)

module Host = Omni_runtime.Host
module Loader = Omni_runtime.Loader
module L = Omnivm.Layout

let mk_host ?(allow = Omnivm.Hostcall.all) ?(heap = 4096) () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"data" ~base:L.data_base ~size:L.data_size
       ~perm:Omnivm.Memory.perm_rw);
  let host =
    Host.create ~allow ~heap_start:(L.data_base + 0x1000)
      ~heap_limit:(L.data_base + 0x1000 + heap) ()
  in
  (host, mem)

let request host mem index args =
  let ret = ref 0 in
  let outcome =
    Host.handle host
      {
        Host.index;
        arg = (fun i -> try List.nth args i with _ -> 0);
        farg = (fun _ -> 0.0);
        set_ret = (fun v -> ret := v);
        mem;
      }
  in
  (outcome, !ret)

let output_services () =
  let host, mem = mk_host () in
  ignore (request host mem 1 [ Char.code 'h' ]);
  ignore (request host mem 1 [ Char.code 'i' ]);
  ignore (request host mem 2 [ -42 ]);
  Alcotest.(check string) "putchar + print_int" "hi-42" (Host.output host);
  Host.clear_output host;
  Alcotest.(check string) "cleared" "" (Host.output host);
  (* print_string reads a NUL-terminated string from module memory *)
  let addr = L.data_base + 64 in
  String.iteri
    (fun i c -> Omnivm.Memory.store8 mem (addr + i) (Char.code c))
    "str!\000";
  ignore (request host mem 3 [ addr ]);
  Alcotest.(check string) "print_string" "str!" (Host.output host)

let sbrk_behaviour () =
  let host, mem = mk_host ~heap:64 () in
  let _, a = request host mem 5 [ 16 ] in
  let _, b = request host mem 5 [ 16 ] in
  Alcotest.(check bool) "blocks distinct and ordered" true (b >= a + 16);
  Alcotest.(check int) "aligned" 0 (a land 7);
  (* exhaustion returns null, not a fault *)
  let _, c = request host mem 5 [ 1_000_000 ] in
  Alcotest.(check int) "exhausted -> 0" 0 c;
  (* negative requests are clamped *)
  let _, d = request host mem 5 [ -5 ] in
  Alcotest.(check bool) "negative clamped" true (d > 0)

let authority () =
  let host, mem = mk_host ~allow:[ Omnivm.Hostcall.Exit ] () in
  (match request host mem 0 [ 3 ] with
  | Host.Exit 3, _ -> ()
  | _ -> Alcotest.fail "exit allowed");
  Alcotest.check_raises "putchar denied"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 1 }))
    (fun () -> ignore (request host mem 1 [ 65 ]));
  Alcotest.check_raises "unknown call"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 99 }))
    (fun () -> ignore (request host mem 99 []))

let service_extension () =
  let host, mem = mk_host () in
  (* no service installed: host_service is a fault *)
  Alcotest.check_raises "no service"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 8 }))
    (fun () -> ignore (request host mem 8 [ 1; 2; 3; 4 ]));
  Host.set_service host (fun a b c d -> (a * 1000) + (b * 100) + (c * 10) + d);
  let _, v = request host mem 8 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "service result" 1234 v

let set_handler_outcome () =
  let host, mem = mk_host () in
  match request host mem 7 [ 0x10000040 ] with
  | Host.Set_handler a, _ -> Alcotest.(check int) "address" 0x10000040 a
  | _ -> Alcotest.fail "expected Set_handler"

let loader_layout () =
  let obj =
    Omni_asm.Parse.assemble ~name:"t"
      {|
        .data
        .globl g
g:      .word 0x11223344
        .text
        .globl main
main:   li r1, 0
        hcall 0
|}
  in
  let exe = Omni_asm.Link.link [ obj ] in
  let img = Loader.load exe in
  (* globals land above the reserved runtime area *)
  let gaddr = Option.get (Omnivm.Exe.lookup_symbol exe "g") in
  Alcotest.(check bool) "global above reserved area" true
    (gaddr >= L.data_base + L.reserved_data);
  Alcotest.(check int) "image copied" 0x11223344
    (Omnivm.Memory.load32 img.Loader.mem gaddr);
  (* heap starts after globals, stays below the stack reservation *)
  Alcotest.(check bool) "heap after globals" true
    (img.Loader.host.Host.brk > gaddr);
  Alcotest.(check bool) "heap below stack" true
    (img.Loader.host.Host.heap_limit
    <= L.data_base + L.data_size - L.default_stack_size);
  (* no host region unless requested *)
  Alcotest.(check bool) "no host region" true (img.Loader.host_region = None);
  let img2 = Loader.load ~map_host_region:true exe in
  Alcotest.(check bool) "host region on demand" true
    (img2.Loader.host_region <> None)

(* Images stamped from one blueprint share its data pages copy-on-write:
   a guest store or a host blit_in in one image is seen by no other image,
   neither one already live nor one instantiated afterwards, and the
   blueprint's pages keep the module's initial data. *)
let blueprint_isolation () =
  let obj =
    Omni_asm.Parse.assemble ~name:"t"
      {|
        .data
        .globl g
g:      .word 0x11223344
        .text
        .globl main
main:   la r2, g
        lw r3, 0(r2)
        addi r3, r3, 1
        sw r3, 0(r2)
        addi r1, r3, 0
        hcall 2
        li r1, 0
        hcall 0
|}
  in
  let exe = Omni_asm.Link.link [ obj ] in
  let g = Option.get (Omnivm.Exe.lookup_symbol exe "g") in
  let bp = Loader.blueprint exe in
  let img1 = Loader.instantiate bp and img2 = Loader.instantiate bp in
  let g_of (img : Loader.image) = Omnivm.Memory.load32 img.Loader.mem g in
  Alcotest.(check int) "instantiation commits no page" 0
    (Omnivm.Memory.committed_pages img1.Loader.mem);
  (* a guest store, through the checked path; each first write is counted
     in the ambient tracer's registry *)
  let m = Omni_obs.Metrics.create () in
  Omni_obs.Trace.with_current
    (Omni_obs.Trace.make ~metrics:m Omni_obs.Trace.Null)
    (fun () -> ignore (Loader.run_interp img1));
  Alcotest.(check int) "mem.pages_committed counts every first write"
    (Omnivm.Memory.committed_pages img1.Loader.mem)
    (Omni_obs.Metrics.value (Omni_obs.Metrics.counter m "mem.pages_committed"));
  Alcotest.(check bool) "the run committed pages" true
    (Omnivm.Memory.committed_pages img1.Loader.mem > 0);
  Alcotest.(check string) "guest saw its increment" "287454021"
    (Host.output img1.Loader.host);
  Alcotest.(check int) "guest store landed" 0x11223345 (g_of img1);
  Alcotest.(check int) "guest store invisible to a live sibling" 0x11223344
    (g_of img2);
  (* a host blit_in, through the trusted path *)
  Omnivm.Memory.blit_in img2.Loader.mem ~addr:g (Bytes.make 4 '\x7F');
  Omnivm.Memory.blit_in img2.Loader.mem ~addr:(L.data_base + 0x8000)
    (Bytes.make 8 '\x7F');
  Alcotest.(check int) "blit_in landed" 0x7F7F7F7F (g_of img2);
  Alcotest.(check int) "blit_in invisible to a live sibling" 0x11223345
    (g_of img1);
  Alcotest.(check int) "zero page still zero in the sibling" 0
    (Omnivm.Memory.load32 img1.Loader.mem (L.data_base + 0x8000));
  (* a later image reads the blueprint's pages, untouched *)
  let img3 = Loader.instantiate bp in
  Alcotest.(check int) "blueprint pages keep the initial data" 0x11223344
    (g_of img3);
  Alcotest.(check int) "blueprint zero page untouched" 0
    (Omnivm.Memory.load32 img3.Loader.mem (L.data_base + 0x8000));
  ignore (Loader.run_interp img3);
  Alcotest.(check string) "a later run starts from the initial data"
    "287454021" (Host.output img3.Loader.host)

let lcg_determinism () =
  let a = Omni_util.Lcg.create 42 in
  let b = Omni_util.Lcg.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Omni_util.Lcg.next a)
      (Omni_util.Lcg.next b)
  done;
  let c = Omni_util.Lcg.create 43 in
  Alcotest.(check bool) "different seed diverges" true
    (Omni_util.Lcg.next a <> Omni_util.Lcg.next c);
  for _ = 1 to 1000 do
    let v = Omni_util.Lcg.int a 10 in
    Alcotest.(check bool) "bounded" true (v >= 0 && v < 10)
  done

let () =
  Alcotest.run "runtime"
    [ ("host",
       [ Alcotest.test_case "output services" `Quick output_services;
         Alcotest.test_case "sbrk" `Quick sbrk_behaviour;
         Alcotest.test_case "authority" `Quick authority;
         Alcotest.test_case "service extension" `Quick service_extension;
         Alcotest.test_case "set_handler" `Quick set_handler_outcome ]);
      ("loader",
       [ Alcotest.test_case "layout" `Quick loader_layout;
         Alcotest.test_case "blueprint isolation" `Quick blueprint_isolation ]);
      ("util", [ Alcotest.test_case "lcg determinism" `Quick lcg_determinism ])
    ]
