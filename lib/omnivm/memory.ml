(* Segmented byte-addressed memory with host-imposed permissions.

   The address space is a small set of mapped regions (code, data, host,
   ...). Multi-byte values are stored little-endian: OmniVM data formats are
   endian-neutral (paper 3.3), so an implementation picks an order; ours is
   little-endian and the [Ext]/[Ins] instructions give programs portable
   byte access.

   Each region is backed by lazily committed 4 KiB pages. A region's page
   table starts with every slot pointing at one shared, never-written zero
   page (or at a snapshot's shared pages); the first store to a slot copies
   the page into a private one and marks it owned. Mapping a region is
   therefore a page-table allocation, not a zero-fill of its size, and
   shared pages are immutable so any number of regions, in any domain, can
   point at them. *)

module Trace = Omni_obs.Trace

type perm = { read : bool; write : bool; execute : bool }

let perm_rw = { read = true; write = true; execute = false }
let perm_r = { read = true; write = false; execute = false }
let perm_rx = { read = true; write = false; execute = true }
let perm_rwx = { read = true; write = true; execute = true }

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let page_count size = (size + page_mask) lsr page_bits

(* Read by every unwritten slot of every region; never written, because a
   store always commits a private copy of a page it does not own. *)
let zero_page = Bytes.make page_size '\000'

(* [f off pos n] for each page-bounded piece of the [len] bytes starting at
   region offset [off]; [pos] counts bytes already covered. *)
let iter_pages ~off ~len f =
  let rec go off pos =
    if pos < len then begin
      let n = min (page_size - (off land page_mask)) (len - pos) in
      f off pos n;
      go (off + n) (pos + n)
    end
  in
  go off 0

type region = {
  name : string;
  base : int;
  size : int;
  mutable perm : perm;
  pages : Bytes.t array;
  owned : Bytes.t; (* '\001' at slot i iff pages.(i) is private *)
}

let name r = r.name
let base r = r.base
let size r = r.size

type snapshot = { s_size : int; s_pages : Bytes.t array }

let snapshot ~size ~at src =
  let len = Bytes.length src in
  if size <= 0 || at < 0 || at + len > size then invalid_arg "Memory.snapshot";
  let pages = Array.make (page_count size) zero_page in
  iter_pages ~off:at ~len (fun off pos n ->
      let i = off lsr page_bits in
      if pages.(i) == zero_page then pages.(i) <- Bytes.make page_size '\000';
      Bytes.blit src pos pages.(i) (off land page_mask) n);
  { s_size = size; s_pages = pages }

type t = { mutable regions : region array }

let create () = { regions = [||] }

let map ?init t ~name ~base ~size ~perm =
  if size <= 0 then invalid_arg "Memory.map: size";
  if base land page_mask <> 0 then
    invalid_arg "Memory.map: base not page aligned";
  let pages =
    match init with
    | None -> Array.make (page_count size) zero_page
    | Some s ->
        if s.s_size <> size then invalid_arg "Memory.map: snapshot size";
        Array.copy s.s_pages
  in
  let r =
    { name; base; size; perm; pages;
      owned = Bytes.make (Array.length pages) '\000' }
  in
  Array.iter
    (fun r' ->
      if base < r'.base + r'.size && r'.base < base + size then
        invalid_arg "Memory.map: overlapping regions")
    t.regions;
  t.regions <- Array.append t.regions [| r |];
  r

let region_of t addr =
  let n = Array.length t.regions in
  let rec go i =
    if i >= n then None
    else
      let r = Array.unsafe_get t.regions i in
      if addr >= r.base && addr < r.base + r.size then Some r else go (i + 1)
  in
  go 0

let find_region t name =
  let n = Array.length t.regions in
  let rec go i =
    if i >= n then None
    else
      let r = t.regions.(i) in
      if String.equal r.name name then Some r else go (i + 1)
  in
  go 0

let set_perm t name perm =
  match find_region t name with
  | Some r -> r.perm <- perm
  | None -> invalid_arg "Memory.set_perm: unknown region"

let committed_pages t =
  Array.fold_left
    (fun n r ->
      let k = ref n in
      Bytes.iter (fun c -> if c <> '\000' then incr k) r.owned;
      !k)
    0 t.regions

let fault addr access = raise (Fault.Vm_fault (Access_violation { addr; access }))

(* The checked-access lookup: a direct walk of the region array that
   raises on a miss, so the hot path allocates nothing. *)
let rec find regions i addr access =
  if i >= Array.length regions then fault addr access
  else
    let r = Array.unsafe_get regions i in
    if addr >= r.base && addr < r.base + r.size then r
    else find regions (i + 1) addr access

let locate t addr access =
  let r = find t.regions 0 addr access in
  let ok =
    match access with
    | Fault.Read -> r.perm.read
    | Fault.Write -> r.perm.write
    | Fault.Execute -> r.perm.execute
  in
  if not ok then fault addr access;
  r

(* [page r off] is the page holding region offset [off], for reading.
   [writable r off] is the same page made private first: the one path by
   which any store reaches a page. *)

let page r off = Array.unsafe_get r.pages (off lsr page_bits)

let commit r i =
  let p = Bytes.copy (Array.unsafe_get r.pages i) in
  Array.unsafe_set r.pages i p;
  Bytes.unsafe_set r.owned i '\001';
  Trace.count "mem.pages_committed";
  p

let writable r off =
  let i = off lsr page_bits in
  if Bytes.unsafe_get r.owned i <> '\000' then Array.unsafe_get r.pages i
  else commit r i

let get_byte r off =
  Char.code (Bytes.unsafe_get (page r off) (off land page_mask))

let set_byte r off v =
  Bytes.unsafe_set (writable r off) (off land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* [fits off width]: an access of [width] bytes at region offset [off]
   stays inside one page; one that crosses goes byte by byte. *)
let fits off width = off land page_mask <= page_size - width

(* Unsigned byte loads/stores. Widths > 1 may straddle region boundaries
   only within one region; a straddle is an access violation, raised
   before any page is touched. *)

let load8 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Read in
  get_byte r (addr - r.base)

let store8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Write in
  set_byte r (addr - r.base) v

let check_span r addr width access =
  if addr - r.base + width > r.size then fault (addr + width - 1) access

let load16 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Read in
  check_span r addr 2 Fault.Read;
  let off = addr - r.base in
  if fits off 2 then Bytes.get_uint16_le (page r off) (off land page_mask)
  else get_byte r off lor (get_byte r (off + 1) lsl 8)

let store16 t addr v =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Write in
  check_span r addr 2 Fault.Write;
  let off = addr - r.base in
  if fits off 2 then
    Bytes.set_uint16_le (writable r off) (off land page_mask) (v land 0xFFFF)
  else begin
    set_byte r off v;
    set_byte r (off + 1) (v lsr 8)
  end

let load32 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Read in
  check_span r addr 4 Fault.Read;
  let off = addr - r.base in
  if fits off 4 then
    Int32.to_int (Bytes.get_int32_le (page r off) (off land page_mask))
  else
    Omni_util.Word32.of_bytes (get_byte r off) (get_byte r (off + 1))
      (get_byte r (off + 2)) (get_byte r (off + 3))

(* Write four checked bytes at region offset [off]. *)
let put32 r off v =
  if fits off 4 then
    Bytes.set_int32_le (writable r off) (off land page_mask) (Int32.of_int v)
  else begin
    set_byte r off v;
    set_byte r (off + 1) (v lsr 8);
    set_byte r (off + 2) (v lsr 16);
    set_byte r (off + 3) (v lsr 24)
  end

let store32 t addr v =
  let addr = addr land 0xFFFFFFFF in
  let r = locate t addr Fault.Write in
  check_span r addr 4 Fault.Write;
  put32 r (addr - r.base) v

(* 64-bit accesses are two 32-bit halves, low word first, and fault
   exactly as those two accesses would. The common case (both halves in
   one page of one region) is a single read or write. *)

let load64 t addr =
  let a = addr land 0xFFFFFFFF in
  let r = locate t a Fault.Read in
  let off = a - r.base in
  if off + 8 <= r.size && fits off 8 then
    Bytes.get_int64_le (page r off) (off land page_mask)
  else
    let lo = load32 t addr land 0xFFFFFFFF in
    let hi = load32 t (addr + 4) land 0xFFFFFFFF in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let store64 t addr v =
  let a = addr land 0xFFFFFFFF in
  let r = locate t a Fault.Write in
  let off = a - r.base in
  if off + 8 <= r.size && fits off 8 then
    Bytes.set_int64_le (writable r off) (off land page_mask) v
  else begin
    (* Both halves are checked before either is written, so a store that
       faults on its high half leaves memory unchanged. *)
    check_span r a 4 Fault.Write;
    let a2 = (addr + 4) land 0xFFFFFFFF in
    let r2 = locate t a2 Fault.Write in
    check_span r2 a2 4 Fault.Write;
    put32 r off (Int64.to_int v);
    put32 r2 (a2 - r2.base) (Int64.to_int (Int64.shift_right_logical v 32))
  end

let load_float t addr = Int64.float_of_bits (load64 t addr)
let store_float t addr f = store64 t addr (Int64.bits_of_float f)

let load_single t addr =
  Int32.float_of_bits (Int32.of_int (load32 t addr land 0xFFFFFFFF))

let store_single t addr f =
  store32 t addr (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)

(* Bulk access, bypassing permissions: used by the loader and the host,
   which are trusted. Both walk the span a page at a time; [blit_in]
   commits each page it writes, like any store. *)

let trusted_region t who ~addr ~len =
  match region_of t addr with
  | None -> invalid_arg ("Memory." ^ who ^ ": unmapped")
  | Some r ->
      if addr - r.base + len > r.size then
        invalid_arg ("Memory." ^ who ^ ": overflow");
      r

let blit_in t ~addr (src : Bytes.t) =
  let len = Bytes.length src in
  let r = trusted_region t "blit_in" ~addr ~len in
  iter_pages ~off:(addr - r.base) ~len (fun off pos n ->
      Bytes.blit src pos (writable r off) (off land page_mask) n)

let read_bytes t ~addr ~len =
  let r = trusted_region t "read_bytes" ~addr ~len in
  let dst = Bytes.create len in
  iter_pages ~off:(addr - r.base) ~len (fun off pos n ->
      Bytes.blit (page r off) (off land page_mask) dst pos n);
  dst

(* Read a NUL-terminated string (for host calls that take C strings). *)
let read_cstring t ~addr ~max_len =
  let buf = Buffer.create 32 in
  let rec go a n =
    if n >= max_len then Buffer.contents buf
    else
      let c = load8 t a in
      if c = 0 then Buffer.contents buf
      else (
        Buffer.add_char buf (Char.chr c);
        go (a + 1) (n + 1))
  in
  go addr 0
