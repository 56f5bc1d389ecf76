/* sigprof: a sampling profiler for hosts without `perf`.
 *
 * LD_PRELOAD this into a frame-pointer build. The constructor arms
 * ITIMER_PROF at 1 kHz; each SIGPROF records the interrupted PC, the
 * word at the stack pointer (the return address when the PC sits in a
 * frame-pointer-less leaf such as libc's memmove) and the frame-pointer
 * chain, bounded by the [stack] mapping. At exit /proc/self/maps, the
 * resolved addresses of libc's IFUNC-dispatched hot routines (a stripped
 * libc names them nowhere else) and the raw samples go to $SIGPROF_OUT
 * (default sigprof.raw) for report.py. Main thread, x86-64 Linux only. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 48
#define MAX_WORDS (64u << 20) /* 512 MB of address space, touched lazily */

static uint64_t *buf, words, dropped;
static uint64_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig; (void)info;
    ucontext_t *uc = uc_;
    uint64_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uint64_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    if (words + MAX_DEPTH + 3 > MAX_WORDS) { dropped++; return; }
    uint64_t *count = &buf[words++], n = 0;
    buf[words + n++] = pc;
    buf[words + n++] = (sp >= stack_lo && sp + 8 <= stack_hi) ? *(uint64_t *)sp : 0;
    while (n < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && !(fp & 7)) {
        uint64_t next = ((uint64_t *)fp)[0];
        buf[words + n++] = ((uint64_t *)fp)[1];
        if (next <= fp) break;
        fp = next;
    }
    *count = n;
    words += n;
}

__attribute__((constructor)) static void arm(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]"))
            sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    buf = calloc(MAX_WORDS, sizeof *buf);
    if (!buf || !stack_hi) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.raw", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    static const char *const libc[] = {"memmove", "memcpy", "memset", "memcmp", "malloc",
                                       "free", "realloc", "calloc", "exp", "log10"};
    for (unsigned i = 0; i < sizeof libc / sizeof *libc; i++)
        fprintf(out, "--sym %lx %s\n", (uint64_t)dlsym(RTLD_DEFAULT, libc[i]), libc[i]);
    fprintf(out, "--samples dropped=%lu\n", dropped);
    for (uint64_t i = 0; i < words; i += buf[i] + 1) {
        for (uint64_t j = 1; j <= buf[i]; j++) fprintf(out, "%lx ", buf[i + j]);
        fputc('\n', out);
    }
    fclose(out);
}
