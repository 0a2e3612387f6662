(* The fast-path memory substrate: a flat, offset-addressed array of
   64-bit words with atomic access, behind which the call-path layout
   (Ipc_intf.Wire_abi) is position-independent.

   One representation: a Bigarray of int64 with atomicity supplied by
   C11 __atomic stubs on the data pointer.  Where the words live is the
   only difference between segments:

   - [create_heap]: a zero-filled Bigarray private to this process,
     allocated 64-byte-aligned so Wire_abi's one-writer-per-line layout
     lands on real cache lines.  Every protocol written against a
     segment runs here without touching the filesystem — Fastcall's
     queued channel path, the unit tests and the in-process baselines.

   - [map_file]: the same Bigarray over an mmap'd file
     ([Unix.map_file] with [shared:true]).  Two OS processes mapping the
     same file see one coherent word array — the modern "CXL fabric"
     shape of the paper's shared-memory call path.

   Words hold OCaml immediates (63-bit), stored sign-extended in 64
   bits, little-endian (see Wire_abi's endianness canary).  All
   accessors are allocation-free.  The stubs give acquire loads,
   release stores and sequentially consistent RMWs; a store followed by
   a load of a different word is therefore NOT ordered (store->load
   needs a fence), which is why protocols that publish-then-check lean
   on a [fetch_add] or [cas] between the two.

   [load_words]/[store_words] move a run of words to or from an int
   array in one C call, each word still an acquire load or a release
   store — the call path's per-call argument copies.  Their bounds are
   checked once per call, in OCaml, because a [@@noalloc] stub cannot
   raise. *)

type map = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { map : map; path : string option }

external seg_load : map -> int -> int = "ppc_seg_load" [@@noalloc]
external seg_store : map -> int -> int -> unit = "ppc_seg_store" [@@noalloc]

external seg_cas : map -> int -> int -> int -> bool = "ppc_seg_cas"
  [@@noalloc]

external seg_fetch_add : map -> int -> int -> int = "ppc_seg_fetch_add"
  [@@noalloc]

external seg_load_words : map -> int -> int array -> int -> unit
  = "ppc_seg_load_words"
  [@@noalloc]

external seg_store_words : map -> int -> int array -> int -> unit
  = "ppc_seg_store_words"
  [@@noalloc]

external seg_alloc_heap : int -> int -> map = "ppc_seg_alloc_heap"
external seg_msync : map -> int = "ppc_seg_msync"
external seg_madvise : map -> int -> int = "ppc_seg_madvise" [@@noalloc]
external pid_alive : int -> bool = "ppc_pid_alive" [@@noalloc]

let length t = Bigarray.Array1.dim t.map

let check t i =
  if i < 0 || i >= length t then
    invalid_arg (Printf.sprintf "Segment: word %d out of bounds" i)

let get t i = seg_load t.map i
let set t i v = seg_store t.map i v
let cas t i ~expected ~desired = seg_cas t.map i expected desired
let fetch_add t i d = seg_fetch_add t.map i d

(* Bounds-checked flavours for management paths; the call path uses the
   unchecked ones above (offsets are computed from a validated header,
   and a bad segment is rejected at attach, not per access). *)
let get_checked t i = check t i; get t i
let set_checked t i v = check t i; set t i v

(* The block ops' one bounds check covers the whole run, so the stub
   loops unchecked.  Constant messages: the passing path allocates
   nothing. *)
let range_ok t off a n =
  off >= 0 && n >= 0 && n <= Array.length a && off + n <= length t

let load_words t off dst n =
  if not (range_ok t off dst n) then
    invalid_arg "Segment.load_words: range out of bounds";
  seg_load_words t.map off dst n

let store_words t off src n =
  if not (range_ok t off src n) then
    invalid_arg "Segment.store_words: range out of bounds";
  seg_store_words t.map off src n

(* --- construction ---------------------------------------------------------- *)

let create_heap ~words =
  if words <= 0 then invalid_arg "Segment.create_heap: words must be > 0";
  let line_bytes = Ipc_intf.Wire_abi.line_words * 8 in
  { map = seg_alloc_heap words line_bytes; path = None }

(* Map [words] 64-bit words of [path].  [create] truncates (fresh
   segment, creator zeroes and lays it out); without it the file must
   already exist (attacher).  The mapping is MAP_SHARED either way. *)
let map_file ~path ~words ~create () =
  if words <= 0 then invalid_arg "Segment.map_file: words must be > 0";
  let flags =
    if create then Unix.[ O_RDWR; O_CREAT; O_TRUNC ] else Unix.[ O_RDWR ]
  in
  let fd = Unix.openfile path flags 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if create then Unix.ftruncate fd (words * 8);
      let g =
        Unix.map_file fd Bigarray.Int64 Bigarray.C_layout true [| words |]
      in
      { map = Bigarray.array1_of_genarray g; path = Some path })

let path t = t.path

(* The file-only operations are no-ops on a heap segment: its words are
   line-aligned but not page-aligned, and have no file to flush or
   remove. *)
let msync t = match t.path with None -> 0 | Some _ -> seg_msync t.map

type advice = Madv_normal | Madv_willneed | Madv_dontneed

let madvise t advice =
  match t.path with
  | None -> 0
  | Some _ ->
      seg_madvise t.map
        (match advice with
        | Madv_normal -> 0
        | Madv_willneed -> 1
        | Madv_dontneed -> 2)

let unlink t =
  match t.path with
  | None -> ()
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
