(** The fast-path memory substrate: a flat, offset-addressed array of
    63-bit words with atomic get/set/CAS/fetch-add, addressed by the
    position-independent layout in {!Ipc_intf.Wire_abi}.

    One backend: an int64 Bigarray driven by C11-atomic stubs, either
    private to this process ({!create_heap}) or over an mmap'd file
    shared by separate OS processes ({!map_file}).  Both start word 0
    on a 64-byte line, so the one-writer-per-line layout of
    {!Ipc_intf.Wire_abi} holds on real cache lines.  All word accessors
    are allocation-free.  Stores are release-only: a store followed by
    a load of another word is not ordered without an intervening
    {!fetch_add} or {!cas}. *)

type t

val create_heap : words:int -> t
(** A zero-filled in-process segment (no backing file), 64-byte-aligned. *)

val map_file : path:string -> words:int -> create:bool -> unit -> t
(** Map [words] 64-bit words of the file at [path], [MAP_SHARED].
    [create:true] creates/truncates (the creator then lays out the
    segment under the {!Ipc_intf.Wire_abi} generation seqlock);
    [create:false] attaches to an existing file.  Raises
    [Unix.Unix_error] on filesystem failure. *)

val length : t -> int
(** Words in the segment. *)

val get : t -> int -> int
(** Atomic acquire load.  Unchecked: the call path computes offsets
    from a validated header. *)

val set : t -> int -> int -> unit
(** Atomic release store. *)

val cas : t -> int -> expected:int -> desired:int -> bool
val fetch_add : t -> int -> int -> int
(** Sequentially consistent RMW; [fetch_add] returns the prior value. *)

val load_words : t -> int -> int array -> int -> unit
(** [load_words t off dst n] copies words [off .. off+n-1] into
    [dst.(0) .. dst.(n-1)] in one C call, each word an acquire load.
    Raises [Invalid_argument] unless [0 <= off], [0 <= n],
    [off + n <= length t] and [n <= Array.length dst].  Allocation-free. *)

val store_words : t -> int -> int array -> int -> unit
(** [store_words t off src n] copies [src.(0) .. src.(n-1)] into words
    [off .. off+n-1] in one C call, each word a release store, in
    ascending order.  Same checks as {!load_words}. *)

val get_checked : t -> int -> int
val set_checked : t -> int -> int -> unit
(** Bounds-checked flavours for management paths; raise
    [Invalid_argument] on an out-of-range word. *)

val path : t -> string option
(** The backing file, if any. *)

val msync : t -> int
(** Flush a file mapping to its file (synchronous).  Returns 0 or a
    negated errno; 0 and a no-op on a heap segment. *)

type advice = Madv_normal | Madv_willneed | Madv_dontneed

val madvise : t -> advice -> int
(** Paging advice for a file mapping; 0 and a no-op on a heap segment. *)

val unlink : t -> unit
(** Remove the backing file (best-effort); no-op on a heap segment. *)

val pid_alive : int -> bool
(** [kill(pid, 0)] liveness probe.  A zombie counts as alive, so a
    prober that forked its peer must reap it before trusting [false]. *)
