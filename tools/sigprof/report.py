#!/usr/bin/env python3
"""Symbolise a sigprof.raw dump: self, inclusive and top-stack tables,
or (--heap, for a heap.c dump) the size classes live at the heap's peak,
each with the stacks that allocated its sampled blocks still live at the
peak (heap.c drops a sample's stack once its block is freed before it).

usage: report.py [--heap] sigprof.raw [top-n]

Every executable file-backed mapping is symbolised with `nm` (libc
included, via its dynamic symbols); a PC is attributed to the nearest
symbol at or below it. Return addresses are looked up at `pc - 1`.
"""
import bisect
import collections
import re
import subprocess
import sys


def load(path):
    maps, extra, classes, samples, refused = [], [], [], [], 0
    with open(path) as f:
        for line in f:
            if line.startswith("--samples"):
                break
            if line.startswith("--sym"):
                _, addr, name = line.split()
                extra.append((int(addr, 16), name))
                continue
            if line.startswith("--class"):  # heap.c: class, live blocks, live bytes
                classes.append(tuple(int(w) for w in line.split()[1:]))
                continue
            if line.startswith("--refused"):  # heap.c: samples that found no room
                refused = int(line.split()[1])
                continue
            m = re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ \S+\s*(\S*)", line)
            if m and m.group(5).startswith("/"):
                lo, hi, perms, off, name = m.groups()
                maps.append((int(lo, 16), int(hi, 16), "x" in perms, int(off, 16), name))
        dropped = line.strip()
        for line in f:
            samples.append([int(w, 16) for w in line.split()])
    return maps, extra, classes, samples, dropped, refused


def symbols(path):
    """(address, size, name) of one ELF file's defined functions."""
    out = set()
    for flags in (["-C", "-S", "--defined-only"], ["-C", "-S", "-D", "--defined-only"]):
        run = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
        for line in run.stdout.splitlines():
            parts = line.split(None, 3)
            if len(parts) == 4 and parts[2] in "TtWw":
                out.add((int(parts[0], 16), int(parts[1], 16), parts[3]))
    return out


class Symboliser:
    def __init__(self, maps, extra):
        self.extra = extra  # absolute (address, name) pairs from the sampler
        # A file's load bias is the start of its offset-0 mapping (PIE
        # executables and shared objects are linked at address 0).
        self.bias = {name: lo for lo, _, _, off, name in maps if off == 0}
        self.exec = sorted((lo, hi, name) for lo, hi, x, _, name in maps if x)
        self.main_path = maps[0][4] if maps else None  # the executable maps first
        self.tables = {}

    def mapping(self, pc):
        i = bisect.bisect_right(self.exec, (pc, float("inf"), "")) - 1
        if i >= 0 and self.exec[i][0] <= pc < self.exec[i][1]:
            return self.exec[i][2]
        return None

    def name(self, pc):
        path = self.mapping(pc)
        if path is None:
            return None
        bias = self.bias.get(path, 0)
        if path not in self.tables:
            syms = symbols(path)
            # Sampler-resolved routines have no size: allow them a page.
            syms |= {(a - bias, 4096, n) for a, n in self.extra if self.mapping(a) == path}
            self.tables[path] = sorted(syms)
        table = self.tables[path]
        i = bisect.bisect_right(table, (pc - bias, float("inf"), "")) - 1
        short = path.rsplit("/", 1)[-1]
        # Past the end of the nearest symbol is unnamed code (a stripped
        # library's internals), not that symbol.
        if i < 0 or pc - bias >= table[i][0] + max(table[i][1], 1):
            return f"[{short}]"
        # Drop the legacy-mangling hash suffix: one row per function.
        name = re.sub(r"::h[0-9a-f]{16}$", "", table[i][2])
        return name if self.is_main(path) else f"{name} [{short}]"

    def is_main(self, path):
        return path == self.main_path


def stacks(samples, sym):
    """Leaf-first symbol stacks, one per sample."""
    for words in samples:
        if not words:
            continue
        pc, at_sp, chain = words[0], words[1], words[2:]
        frames = [sym.name(pc) or "[unknown]"]
        leaf_map = sym.mapping(pc)
        # A leaf outside the main binary keeps no frame pointer: the word
        # at its stack pointer is the return address into its caller.
        if leaf_map and not sym.is_main(leaf_map) and at_sp and sym.mapping(at_sp - 1):
            frames.append(sym.name(at_sp - 1))
        for ret in chain:
            name = sym.name(ret - 1)
            if name is None:
                break
            if name != frames[-1]:
                frames.append(name)
        yield frames


def table(title, counter, total, top):
    print(f"\n== {title} (of {total} samples)")
    for name, n in counter.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def heap(classes, samples, sym, top, header, refused):
    """Size classes at the peak, largest first, each with the two stacks
    that allocated most of its sampled blocks live at the peak."""
    if refused:
        print(f"warning: {refused} samples refused for want of room; "
              "classes may lack stacks")
    plumbing = re.compile(r"\[heap\.so\]|^alloc::(raw_vec|alloc)::|^std::sys::alloc::|^__r")
    owners = collections.defaultdict(collections.Counter)
    for cls, *chain in samples:
        frames = [sym.name(ret - 1) or "[unknown]" for ret in chain]
        frames = [f for f in frames if not plumbing.search(f)]
        # Generic arguments triple the width and say nothing about ownership.
        short = [re.sub(r"(?<=\w)<[^<>]*(<[^<>]*>[^<>]*)*>", "", f) for f in frames[:4]]
        owners[cls][" <- ".join(short)] += 1
    total = sum(b for _, _, b in classes)
    print(f"{header}: {total / 1e6:.1f} MB live in {len(classes)} size classes")
    print(f"{'bytes':>12} {'blocks':>8} {'block size':>10}")
    for cls, live, nbytes in sorted(classes, key=lambda c: -c[2])[:top]:
        print(f"{nbytes:12d} {live:8d} {nbytes // live:10d}")
        for stack, n in owners[cls].most_common(2):
            print(f"{'':12} {100 * n / sum(owners[cls].values()):5.1f}%  {stack}")


def main():
    args = [a for a in sys.argv[1:] if a != "--heap"]
    if not args:
        sys.exit(__doc__)
    top = int(args[1]) if len(args) > 1 else 25
    maps, extra, classes, samples, dropped, refused = load(args[0])
    sym = Symboliser(maps, extra)
    if "--heap" in sys.argv:
        return heap(classes, samples, sym, top, dropped, refused)
    self_c, incl_c, stack_c = (collections.Counter() for _ in range(3))
    total = 0
    for frames in stacks(samples, sym):
        total += 1
        self_c[frames[0]] += 1
        incl_c.update(set(frames))
        stack_c[" <- ".join(frames[:4])] += 1
    if not total:
        sys.exit("no samples")
    print(f"{total} samples, {dropped}")
    table("self", self_c, total, top)
    table("inclusive", incl_c, total, top)
    table("top stacks (leaf <- callers)", stack_c, total, top)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # `report.py ... | head`: the reader has what it wants
        sys.stderr.close()  # or the interpreter's exit flush complains too
