/* Host-side counters for the served-path benchmark.

   - a user-mode "instructions retired" hardware counter on the calling
     thread (perf_event_open, PERF_COUNT_HW_INSTRUCTIONS, kernel and
     hypervisor excluded), read with read(2);
   - CLOCK_MONOTONIC in nanoseconds;
   - the process's peak resident set (VmHWM) in kilobytes.

   The readers are [@@noalloc] and [@untagged] on the OCaml side, so a
   read costs one C call and, for the counter, one system call. */

#define _GNU_SOURCE
#include <errno.h>
#include <linux/perf_event.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <caml/mlvalues.h>

static int instr_fd = -1;

/* 0 on success, else the errno of the failed perf_event_open. */
value perfbench_instr_open(value unit)
{
  (void)unit;
  struct perf_event_attr a;
  memset(&a, 0, sizeof a);
  a.type = PERF_TYPE_HARDWARE;
  a.size = sizeof a;
  a.config = PERF_COUNT_HW_INSTRUCTIONS;
  a.exclude_kernel = 1;
  a.exclude_hv = 1;
  int fd = (int)syscall(SYS_perf_event_open, &a, 0, -1, -1, 0);
  if (fd < 0) return Val_int(errno);
  if (instr_fd >= 0) close(instr_fd);
  instr_fd = fd;
  return Val_int(0);
}

intnat perfbench_instr_read_untagged(value unit)
{
  (void)unit;
  uint64_t v;
  if (instr_fd < 0 || read(instr_fd, &v, sizeof v) != (ssize_t)sizeof v)
    return -1;
  return (intnat)v;
}

value perfbench_instr_read(value unit)
{
  return Val_long(perfbench_instr_read_untagged(unit));
}

intnat perfbench_now_ns_untagged(value unit)
{
  (void)unit;
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return (intnat)t.tv_sec * 1000000000 + (intnat)t.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_untagged(unit));
}

/* Peak resident set in kB from /proc/self/status, -1 if unreadable. */
value perfbench_peak_rss_kb(value unit)
{
  (void)unit;
  FILE *f = fopen("/proc/self/status", "r");
  if (f == NULL) return Val_long(-1);
  char line[256];
  long kb = -1;
  while (fgets(line, sizeof line, f) != NULL) {
    if (strncmp(line, "VmHWM:", 6) == 0) {
      sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  fclose(f);
  return Val_long(kb);
}
