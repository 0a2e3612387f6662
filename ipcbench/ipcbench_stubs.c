/* C helpers for the benchmark: a byte-exact range comparison for
   checking what the copy engine wrote, and thread CPU affinity for
   keeping the two busy sides of a workload on CPUs of their own. */

#define _GNU_SOURCE
#include <sched.h>
#include <string.h>
#include <caml/mlvalues.h>

/* memcmp reads a 1 MiB range several times faster than an OCaml word
   loop, which keeps the check cheaper than the copy it checks.  The
   caller checks the bounds. */
value ipcbench_bytes_equal_range(value a, value aoff, value b, value boff,
                                 value len)
{
  return Val_bool(memcmp(Bytes_val(a) + Long_val(aoff),
                         Bytes_val(b) + Long_val(boff),
                         Long_val(len)) == 0);
}

/* The [k]th CPU (from 0) that the calling thread may run on, or -1. */
value ipcbench_nth_allowed_cpu(value k)
{
  cpu_set_t set;
  long seen = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set) && seen++ == Long_val(k)) return Val_long(cpu);
  return Val_long(-1);
}

/* Restrict the calling thread to [cpu].  Threads and processes it
   creates afterwards start with the same restriction. */
value ipcbench_pin_thread(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
