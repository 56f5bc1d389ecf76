/* sigprof --heap: what the heap is made of at its peak.
 *
 * LD_PRELOAD this into a frame-pointer build. It interposes the malloc
 * family (Rust's `System` allocator goes through it), keeps live blocks
 * and bytes per size class — sizes are glibc usable sizes: the request
 * rounded up to 16n + 8, or to whole pages less 16 once mmapped; one
 * class per 16 bytes below 128 KiB, one per page above — and copies the
 * class table aside each time live bytes stand 5 % above the last copy.
 * One allocation in SAMPLE per class, and every block of a page or more
 * (few, and each weighs), also logs its frame-pointer chain, and the
 * block is tracked until it is freed. At exit /proc/self/maps,
 * the class table at the peak and the stacks of the sampled blocks live
 * at the peak (allocated before the last copy, freed after it or never)
 * go to $SIGPROF_OUT (default sigprof.raw) for `report.py --heap`, so a
 * frequent short-lived allocation site is not mistaken for an owner.
 * When the sample buffer fills, the samples that can no longer be live
 * at a peak are compacted away; a sample that still finds no room is
 * refused and counted in the dump (`--refused n`).
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
#define SLOT_BITS 20         /* sampled blocks live at once: SLOTS / 2 at most */
#define SLOTS (1u << SLOT_BITS)

void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t), __libc_free(void *);

/* Signed: a block from before the constructor ran may be freed after. */
static struct cls { int64_t live, bytes; uint64_t seen; } now[SMALL + LARGE], peak[SMALL + LARGE];
static int64_t total, peak_total;
/* A sample is [n, born, died, class, n - 1 return addresses] in buf; born
 * and died are `ticks` readings, died UINT64_MAX while the block lives. */
static uint64_t *buf, words, stack_lo, stack_hi, ticks, peak_ticks, tracked;
/* Samples refused for want of room, and the tick before which a buffer
 * that a compaction left mostly full is not compacted again. */
static uint64_t refused, retry;
/* Sampled blocks still live: open addressing on the block's address. */
static struct slot { uint64_t ptr, sample; } *table;
/* The filled slots, sorted by sample offset while compacting. */
static uint32_t order[SLOTS / 2];
static int busy = 1; /* bookkeeping off until armed, and while dumping */

static uint64_t home(uint64_t p) { return (p >> 4) * 0x9e3779b97f4a7c15ull >> (64 - SLOT_BITS); }

/* A tracked block was freed: stamp its sample and drop the slot, moving
 * later entries of the probe run back so no lookup stops short. */
static void untrack(uint64_t p) {
    uint64_t i = home(p);
    for (; table[i].ptr != p; i = (i + 1) % SLOTS)
        if (!table[i].ptr) return;
    buf[table[i].sample + 2] = ticks;
    tracked--;
    for (uint64_t j = (i + 1) % SLOTS; table[j].ptr; j = (j + 1) % SLOTS) {
        uint64_t k = home(table[j].ptr);
        if ((j > i) ? (k <= i || k > j) : (k <= i && k > j)) {
            table[i] = table[j];
            i = j;
        }
    }
    table[i].ptr = 0;
}

static int by_sample(const void *a, const void *b) {
    uint64_t x = table[*(const uint32_t *)a].sample, y = table[*(const uint32_t *)b].sample;
    return (x > y) - (x < y);
}

/* Drops the samples that died before the current peak or were born after
 * it: they cannot be live at this peak or any later one. The rest move
 * down in order, so the k-th live sample is the k-th filled slot sorted
 * by offset, and that slot is re-pointed. A compaction that leaves the
 * buffer over 3/4 full backs off until `ticks` has doubled. */
static void compact(void) {
    uint64_t n = 0, k = 0, to = 0;
    busy = 1; /* qsort may allocate */
    for (uint64_t s = 0; s < SLOTS; s++)
        if (table[s].ptr) order[n++] = s;
    qsort(order, n, sizeof *order, by_sample);
    for (uint64_t i = 0, len; i < words; i += len) {
        uint64_t born = buf[i + 1], died = buf[i + 2];
        len = buf[i] + 3;
        if (died != UINT64_MAX && (died <= peak_ticks || born > peak_ticks)) continue;
        if (k < n && table[order[k]].sample == i) table[order[k++]].sample = to;
        memmove(&buf[to], &buf[i], len * sizeof *buf);
        to += len;
    }
    words = to;
    if (words > MAX_WORDS / 4 * 3) retry = 2 * ticks;
    busy = 0;
}

static void note(void *p, int sign, uint64_t *fp) {
    if (!p || busy) return;
    int64_t size = malloc_usable_size(p), page = size >> 12;
    uint64_t i = size < SMALL * 16 ? size >> 4 : SMALL + (page < LARGE ? page : LARGE - 1);
    struct cls *c = &now[i];
    c->live += sign;
    c->bytes += sign * size;
    total += sign * size;
    ticks++;
    if (sign < 0) {
        untrack((uint64_t)p);
        return;
    }
    if (total > peak_total + peak_total / 20) {
        peak_total = total;
        peak_ticks = ticks;
        memcpy(peak, now, sizeof now);
    }
    if (size < 4096 && c->seen++ % SAMPLE) return;
    if (words + MAX_DEPTH + 4 > MAX_WORDS && ticks >= retry) compact();
    if (words + MAX_DEPTH + 4 > MAX_WORDS || tracked >= SLOTS / 2) {
        refused++;
        return;
    }
    uint64_t *count = &buf[words], n = 0, at = (uint64_t)fp, h = home((uint64_t)p);
    while (table[h].ptr) h = (h + 1) % SLOTS;
    table[h] = (struct slot){(uint64_t)p, words};
    tracked++;
    buf[++words] = ticks;
    buf[++words] = UINT64_MAX;
    words++;
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
    table = __libc_calloc(SLOTS, sizeof *table);
    busy = !buf || !table || !stack_hi;
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
    if (refused) fprintf(out, "--refused %lu\n", refused);
    fprintf(out, "--samples peak=%ld\n", peak_total);
    for (uint64_t i = 0; i < words; i += buf[i] + 3) {
        if (buf[i + 1] > peak_ticks || buf[i + 2] <= peak_ticks) continue;
        for (uint64_t j = 3; j < buf[i] + 3; j++) fprintf(out, "%lx ", buf[i + j]);
        fputc('\n', out);
    }
    fclose(out);
}
