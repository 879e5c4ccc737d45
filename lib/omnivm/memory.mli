(** Segmented, byte-addressed memory with host-imposed permissions.

    The address space is a set of non-overlapping mapped regions (code,
    data, host, ...). Multi-byte values are little-endian: OmniVM's data
    formats are endian-neutral (paper 3.3), so each implementation picks an
    order and programs use the [ext]/[ins] instructions for portable byte
    access.

    Access outside any region, against a region's permissions, or
    straddling a region boundary raises {!Fault.Vm_fault} with an
    access-violation payload.

    Regions are backed by lazily committed pages of {!page_size} bytes.
    An unwritten page reads from a shared immutable page (zeros, or a
    {!snapshot}'s contents); the first write to it, by a guest store or by
    {!blit_in}, copies it into a page private to that region. The copy is
    invisible to guests: every access reads and writes exactly the bytes a
    flat zero-filled region would, and faults identically. *)

type perm = { read : bool; write : bool; execute : bool }

val perm_rw : perm
val perm_r : perm
val perm_rx : perm
val perm_rwx : perm

val page_size : int
(** 4096. *)

type region

val name : region -> string
val base : region -> int
val size : region -> int

type snapshot
(** Immutable initial contents for a region, split into pages once and
    shared, without copying, by every region mapped from it. *)

val snapshot : size:int -> at:int -> Bytes.t -> snapshot
(** [snapshot ~size ~at b]: the contents of a [size]-byte region holding
    [b] at offset [at] and zeros elsewhere.
    @raise Invalid_argument if [b] does not fit. *)

type t

val create : unit -> t

val map :
  ?init:snapshot -> t -> name:string -> base:int -> size:int -> perm:perm ->
  region
(** Map a region that reads as zeros, or as [init] when given. Nothing of
    its size is allocated up front: only a page table, with pages
    committed one at a time on first write. [base] must be page aligned.
    @raise Invalid_argument on overlap, bad arguments, or an [init] of
    another size. *)

val region_of : t -> int -> region option
val find_region : t -> string -> region option

val set_perm : t -> string -> perm -> unit
(** Change a region's permissions by name (the host-imposed permission
    model of the paper's SDCA). *)

val committed_pages : t -> int
(** Pages made private by a first write so far, over all regions. *)

(** {2 Checked accesses} — loads return canonical {!Omni_util.Word32}
    values (unsigned for sub-word widths). *)

val load8 : t -> int -> int
val load16 : t -> int -> int
val load32 : t -> int -> int
val load64 : t -> int -> int64
val load_float : t -> int -> float
val load_single : t -> int -> float
val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit
val store64 : t -> int -> int64 -> unit
val store_float : t -> int -> float -> unit
val store_single : t -> int -> float -> unit

(** {2 Trusted bulk access} — used by the loader and host; bypasses
    permissions. *)

val blit_in : t -> addr:int -> Bytes.t -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t

val read_cstring : t -> addr:int -> max_len:int -> string
(** Read a NUL-terminated string (for host calls taking C strings). *)
