/* The runtime's C stubs: the waiting primitives of the wait ladder
 * (Shm_channel), then the shared-segment word operations behind
 * Segment (see the second header comment below).
 *
 * The OCaml stdlib offers no timed condition wait and no boxing-free
 * monotonic clock, so waits bounded in time get three tiny stubs:
 *
 *   - now_ns: CLOCK_MONOTONIC in integer nanoseconds.  [@@noalloc] —
 *     the result is an immediate (63-bit nanoseconds since boot fit
 *     with centuries to spare), so a warm deadline call reads the
 *     clock without touching the minor heap.
 *   - yield: sched_yield(2).  Hands the core to another runnable
 *     thread — on a single-core host this is what lets the server
 *     domain produce the reply the caller is waiting for.  Does not
 *     release the domain lock: other domains do not share it, and the
 *     call returns in microseconds.
 *   - nap_ns: nanosleep(2) inside enter/leave_blocking_section, so a
 *     sleeping client never stalls a stop-the-world section.  Not
 *     [@@noalloc]: leaving the blocking section may run pending
 *     actions.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <errno.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>

CAMLprim value ppc_runtime_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value ppc_runtime_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}

CAMLprim value ppc_runtime_nap_ns(value ns)
{
  struct timespec ts;
  intnat v = Long_val(ns);
  if (v < 0) v = 0;
  ts.tv_sec = v / 1000000000;
  ts.tv_nsec = v % 1000000000;
  caml_enter_blocking_section();
  nanosleep(&ts, NULL);
  caml_leave_blocking_section();
  return Val_unit;
}

/* --- shared-segment words (Wire_abi) ------------------------------------
 *
 * The segment is a Bigarray of int64 words, either allocated in-heap
 * or an mmap'd file shared between processes; both go through these
 * stubs.  OCaml's Atomic module only covers heap refs, so the word
 * operations are C11 __atomic builtins on the bigarray's data pointer
 * (plain stores compile to a mov, where Atomic.set is an xchg).
 * Stored values are OCaml immediates (63-bit), so every result fits
 * Val_long and every word stub is [@@noalloc].
 *
 * Memory orders: acquire loads, release stores, seq_cst RMW — strong
 * enough for the publish-then-bump-tail ring discipline on both x86
 * and ARM.  Not strong enough for store->load (Dekker) handshakes: a
 * protocol that publishes a word and then reads another needs a
 * seq_cst RMW in between (see Shm_channel.submit_raw).
 *
 * Block ops.  ppc_seg_load_words / ppc_seg_store_words move a run of
 * words between the segment and an OCaml int array in one call, each
 * word with the same acquire load / release store as the single-word
 * stubs — the call path's argument copies cost one C call, not one
 * per word.  Bounds are checked on the OCaml side (a [@@noalloc] stub
 * must not raise).  The int array holds immediates only, so its fields
 * are written without caml_modify.
 *
 * Line ownership.  Wire_abi gives every 64-byte line one writer, which
 * only holds if word 0 sits on a line boundary: mmap'd files are page-
 * aligned, and ppc_seg_alloc_heap allocates heap segments 64-byte-
 * aligned (posix_memalign) and zero-filled, handing the block to the
 * bigarray as CAML_BA_MANAGED so the GC frees it.
 */

static inline int64_t *seg_word(value ba, value idx)
{
  return (int64_t *)Caml_ba_data_val(ba) + Long_val(idx);
}

CAMLprim value ppc_seg_load(value ba, value idx)
{
  return Val_long((intnat)__atomic_load_n(seg_word(ba, idx), __ATOMIC_ACQUIRE));
}

CAMLprim value ppc_seg_store(value ba, value idx, value v)
{
  __atomic_store_n(seg_word(ba, idx), (int64_t)Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value ppc_seg_cas(value ba, value idx, value expected, value desired)
{
  int64_t exp = (int64_t)Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      seg_word(ba, idx), &exp, (int64_t)Long_val(desired), 0,
      __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

CAMLprim value ppc_seg_fetch_add(value ba, value idx, value delta)
{
  return Val_long((intnat)__atomic_fetch_add(
      seg_word(ba, idx), (int64_t)Long_val(delta), __ATOMIC_SEQ_CST));
}

CAMLprim value ppc_seg_load_words(value ba, value off, value dst, value n)
{
  const int64_t *p = seg_word(ba, off);
  intnat k = Long_val(n);
  for (intnat j = 0; j < k; j++)
    Field(dst, j) = Val_long((intnat)__atomic_load_n(p + j, __ATOMIC_ACQUIRE));
  return Val_unit;
}

CAMLprim value ppc_seg_store_words(value ba, value off, value src, value n)
{
  int64_t *p = seg_word(ba, off);
  intnat k = Long_val(n);
  for (intnat j = 0; j < k; j++)
    __atomic_store_n(p + j, (int64_t)Long_val(Field(src, j)), __ATOMIC_RELEASE);
  return Val_unit;
}

/* [align] is the line size in bytes (Wire_abi.line_words * 8). */
CAMLprim value ppc_seg_alloc_heap(value words, value align)
{
  size_t bytes = (size_t)Long_val(words) * sizeof(int64_t);
  void *p = NULL;
  if (posix_memalign(&p, (size_t)Long_val(align), bytes) != 0)
    caml_raise_out_of_memory();
  memset(p, 0, bytes);
  return caml_ba_alloc_dims(CAML_BA_INT64 | CAML_BA_C_LAYOUT | CAML_BA_MANAGED,
                            1, p, (intnat)Long_val(words));
}

/* Flush the whole mapping to its backing file.  Returns 0 / -errno;
 * harmless (EINVAL) on an in-heap bigarray, which is not page-aligned.
 * Synchronous, so not [@@noalloc]-hot — callers use it at shutdown. */
CAMLprim value ppc_seg_msync(value ba)
{
  void *p = Caml_ba_data_val(ba);
  intnat bytes = Caml_ba_array_val(ba)->dim[0] * 8;
  int r;
  caml_enter_blocking_section();
  r = msync(p, (size_t)bytes, MS_SYNC);
  caml_leave_blocking_section();
  return Val_long(r == 0 ? 0 : -errno);
}

/* madvise with a tiny advice enum: 0 normal, 1 willneed, 2 dontneed.
 * Returns 0 / -errno. */
CAMLprim value ppc_seg_madvise(value ba, value advice)
{
  void *p = Caml_ba_data_val(ba);
  intnat bytes = Caml_ba_array_val(ba)->dim[0] * 8;
  int adv = MADV_NORMAL;
  switch (Long_val(advice)) {
  case 1: adv = MADV_WILLNEED; break;
  case 2: adv = MADV_DONTNEED; break;
  default: break;
  }
  return Val_long(madvise(p, (size_t)bytes, adv) == 0 ? 0 : -errno);
}

/* Peer-liveness probe: kill(pid, 0).  True while the process exists —
 * including as a zombie, so a prober that forked its peer must reap it
 * (waitpid) before the probe can go negative.  The heartbeat-frozen
 * precondition keeps this syscall off the warm path. */
CAMLprim value ppc_pid_alive(value pid)
{
  int r = kill((pid_t)Long_val(pid), 0);
  return Val_bool(r == 0 || errno == EPERM);
}
