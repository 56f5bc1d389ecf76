/* sigprof --heap: what the heap is made of at its peak.
 *
 * LD_PRELOAD this into a frame-pointer build. It interposes the malloc
 * family (Rust's `System` allocator goes through it), keeps live blocks
 * and bytes per size class — sizes are glibc usable sizes: the request
 * rounded up to 16n + 8, or to whole pages less 16 once mmapped; one
 * class per 16 bytes below 128 KiB, one per page above — and copies the
 * class table aside each time live bytes stand 5 % above the last copy.
 * One allocation in SAMPLE per class also logs its frame-pointer chain.
 * At exit /proc/self/maps, the class table at the peak and the sampled
 * stacks go to $SIGPROF_OUT (default sigprof.raw) for `report.py --heap`.
 * Main thread, x86-64 glibc only. */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define SMALL 8192u /* 16-byte classes, below 128 KiB */
#define LARGE 4096u /* page classes; blocks of 16 MiB and up share the last */
#define SAMPLE 8
#define MAX_DEPTH 24
#define MAX_WORDS (16u << 20) /* 128 MB of address space, touched lazily */

void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t), __libc_free(void *);

/* Signed: a block from before the constructor ran may be freed after. */
static struct cls { int64_t live, bytes; uint64_t seen; } now[SMALL + LARGE], peak[SMALL + LARGE];
static int64_t total, peak_total;
static uint64_t *buf, words, stack_lo, stack_hi;
static int busy = 1; /* bookkeeping off until armed, and while dumping */

static void note(void *p, int sign, uint64_t *fp) {
    if (!p || busy) return;
    int64_t size = malloc_usable_size(p), page = size >> 12;
    uint64_t i = size < SMALL * 16 ? size >> 4 : SMALL + (page < LARGE ? page : LARGE - 1);
    struct cls *c = &now[i];
    c->live += sign;
    c->bytes += sign * size;
    total += sign * size;
    if (sign < 0) return;
    if (total > peak_total + peak_total / 20) {
        peak_total = total;
        memcpy(peak, now, sizeof now);
    }
    if (c->seen++ % SAMPLE || words + MAX_DEPTH + 2 > MAX_WORDS) return;
    uint64_t *count = &buf[words++], n = 0, at = (uint64_t)fp;
    buf[words + n++] = i;
    while (n < MAX_DEPTH && at >= stack_lo && at + 16 <= stack_hi && !(at & 7)) {
        buf[words + n++] = ((uint64_t *)at)[1];
        if (((uint64_t *)at)[0] <= at) break;
        at = ((uint64_t *)at)[0];
    }
    *count = n;
    words += n;
}

#define FP __builtin_frame_address(0)
void *malloc(size_t n) { void *p = __libc_malloc(n); note(p, 1, FP); return p; }
void *calloc(size_t k, size_t n) { void *p = __libc_calloc(k, n); note(p, 1, FP); return p; }
void free(void *p) { note(p, -1, FP); __libc_free(p); }
void *memalign(size_t a, size_t n) { void *p = __libc_memalign(a, n); note(p, 1, FP); return p; }
void *aligned_alloc(size_t a, size_t n) { return memalign(a, n); }
int posix_memalign(void **out, size_t a, size_t n) {
    return (*out = memalign(a, n)) || !n ? 0 : ENOMEM;
}
void *realloc(void *old, size_t n) {
    note(old, -1, FP);
    void *p = __libc_realloc(old, n);
    note(p ? p : old, 1, FP); /* a failed realloc leaves the old block live */
    return p;
}

__attribute__((constructor)) static void arm(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    buf = __libc_calloc(MAX_WORDS, sizeof *buf);
    busy = !buf || !stack_hi;
}

__attribute__((destructor)) static void dump(void) {
    if (busy) return;
    busy = 1;
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.raw", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    for (unsigned i = 0; i < SMALL + LARGE; i++)
        if (peak[i].live > 0) fprintf(out, "--class %u %ld %ld\n", i, peak[i].live, peak[i].bytes);
    fprintf(out, "--samples peak=%ld\n", peak_total);
    for (uint64_t i = 0; i < words; i += buf[i] + 1) {
        for (uint64_t j = 1; j <= buf[i]; j++) fprintf(out, "%lx ", buf[i + j]);
        fputc('\n', out);
    }
    fclose(out);
}
