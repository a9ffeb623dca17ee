#!/usr/bin/env python3
"""Sample where a command spends its CPU time, without perf_event.

    python3 tools/sample_profile.py [--hz 1000] [--top 20] [--exe NAME] \\
        -- COMMAND [ARGS...]

The tool compiles a small SIGPROF sampler with the system C compiler
(`$CC`, default `cc`) into a temporary directory and runs COMMAND with
it preloaded (LD_PRELOAD), so every process the command starts is
sampled too. The sampler arms a CPU-time interval timer and records the
interrupted program counter on each tick; at exit each process writes
its samples and its memory map. The tool then maps every sample to an
object file and address and symbolises it with `addr2line -i`, and
prints three tables of sample shares:

  - by outermost function: the function the code was compiled into;
  - by inline chain: outermost function down to the inlined callee;
  - by source line: the innermost file:line.

Inline chains and source lines need debug info (`-g`); without it only
the function table is meaningful. The kernel delivers ticks at its own
timer resolution, so `--hz` above it (often 250) gives fewer samples
than asked for. `--exe NAME` keeps only processes whose executable path
contains NAME (for example `hostbench`, to drop the build steps a
wrapper script runs first).

A share is an upper bound on what speeding up that path can save, not
an estimate of it. Exits nonzero when the command fails or no sample
could be attributed to a function.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys
import tempfile

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uint64_t *samples;
static atomic_uint count;
static pid_t owner;

static void
on_prof(int sig, siginfo_t *si, void *ctx)
{
    (void)sig;
    (void)si;
    const ucontext_t *uc = ctx;
    uint64_t pc = 0;
#if defined(__x86_64__)
    pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uint64_t)uc->uc_mcontext.pc;
#endif
    unsigned i = atomic_fetch_add_explicit(&count, 1, memory_order_relaxed);
    if (i < MAX_SAMPLES)
        samples[i] = pc;
}

__attribute__((constructor)) static void
sampler_start(void)
{
    const char *dir = getenv("SAMPLE_PROFILE_DIR");
    const char *hz_s = getenv("SAMPLE_PROFILE_HZ");
    if (!dir)
        return;
    void *p = mmap(NULL, MAX_SAMPLES * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED)
        return;
    samples = p;
    owner = getpid();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    long hz = hz_s ? atol(hz_s) : 1000;
    if (hz < 1 || hz > 10000)
        hz = 1000;
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / hz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
sampler_stop(void)
{
    /* A forked child inherits the buffer but not the timer: only the
     * process that armed the timer reports. */
    if (!samples || getpid() != owner)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.samples",
             getenv("SAMPLE_PROFILE_DIR"), (int)owner);
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    fprintf(f, "exe %s\n", exe);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[8192];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    if (maps)
        fclose(maps);
    unsigned total = atomic_load(&count);
    if (total > MAX_SAMPLES)
        total = MAX_SAMPLES;
    for (unsigned i = 0; i < total; ++i)
        fprintf(f, "pc %llx\n", (unsigned long long)samples[i]);
    fclose(f);
}
"""


def build_sampler(tmp):
    src = os.path.join(tmp, "sampler.c")
    lib = os.path.join(tmp, "sampler.so")
    with open(src, "w") as f:
        f.write(SAMPLER_C)
    cc = os.environ.get("CC", "cc")
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", lib, src],
                   check=True)
    return lib


def read_process(path):
    """Return (exe, maps, pcs) from one process's sample file."""
    exe, maps, pcs = "", [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map":
                fields = rest.split(None, 5)
                if len(fields) < 5:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) == 6 else ""
                maps.append((lo, hi, int(fields[2], 16), name))
            elif kind == "exe":
                exe = rest
    return exe, maps, pcs


_load_segments = {}


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) of a 64-bit little-endian ELF."""
    if path not in _load_segments:
        segs = []
        try:
            with open(path, "rb") as f:
                hdr = f.read(64)
                if hdr[:4] == b"\x7fELF" and hdr[4] == 2 and hdr[5] == 1:
                    phoff, = struct.unpack_from("<Q", hdr, 32)
                    phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = \
                            struct.unpack_from("<IIQQQQ", table,
                                               i * phentsize)
                        if p_type == 1:
                            segs.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        _load_segments[path] = segs
    return _load_segments[path]


def locate(pc, maps):
    """Map a sampled pc to (object path, address inside the object)."""
    for lo, hi, off, name in maps:
        if lo <= pc < hi:
            if not name.startswith("/"):
                return name or "[anon]", None
            file_off = pc - lo + off
            for p_offset, p_vaddr, p_filesz in load_segments(name):
                if p_offset <= file_off < p_offset + p_filesz:
                    return name, p_vaddr + file_off - p_offset
            return name, None
    return "[unmapped]", None


def symbolise(obj, addrs):
    """addr -> list of (function, file:line), innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True, text=True).stdout.splitlines()
    frames, cur = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            frames[cur] = []
            i += 1
            continue
        if cur is not None and i + 1 < len(out):
            frames[cur].append((out[i], out[i + 1]))
        i += 2
    return frames


def short_loc(loc):
    loc = loc.split(" (discriminator")[0]
    if loc.startswith(("?", ":")):
        return "?? (no debug info)"
    parts = loc.split("/")
    return "/".join(parts[-2:]) if len(parts) > 2 else loc


def print_table(title, counts, total, top):
    print("%s (%d samples)" % (title, total))
    for key, n in counts.most_common(top):
        print("  %6.2f%%  %s" % (100.0 * n / total, key))
    print()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [--hz N] [--top N] [--exe NAME] -- COMMAND ...")
    ap.add_argument("--hz", type=int, default=1000,
                    help="samples per CPU second (1..10000)")
    ap.add_argument("--top", type=int, default=20,
                    help="rows per table")
    ap.add_argument("--exe", default="",
                    help="keep processes whose executable contains this")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    if not command:
        ap.error("no command given")
    if not 1 <= args.hz <= 10000:
        ap.error("--hz must be 1..10000")

    with tempfile.TemporaryDirectory(prefix="sample_profile.") as tmp:
        lib = build_sampler(tmp)
        env = dict(os.environ)
        env["LD_PRELOAD"] = (lib + " " + env["LD_PRELOAD"]).strip() \
            if env.get("LD_PRELOAD") else lib
        env["SAMPLE_PROFILE_DIR"] = tmp
        env["SAMPLE_PROFILE_HZ"] = str(args.hz)
        rc = subprocess.run(command, env=env).returncode

        by_obj = collections.defaultdict(collections.Counter)
        unresolved = collections.Counter()
        for name in sorted(os.listdir(tmp)):
            if not name.endswith(".samples"):
                continue
            exe, maps, pcs = read_process(os.path.join(tmp, name))
            if args.exe and args.exe not in exe:
                continue
            for pc in pcs:
                obj, addr = locate(pc, maps)
                if addr is None:
                    unresolved[obj] += 1
                else:
                    by_obj[obj][addr] += 1

    funcs, chains, lines = (collections.Counter() for _ in range(3))
    for obj, addrs in by_obj.items():
        frames = symbolise(obj, list(addrs))
        lib_name = os.path.basename(obj)
        for addr, n in addrs.items():
            chain = frames.get(addr) or [("??", "??:0")]
            outer = chain[-1][0]
            if outer == "??":
                outer = "?? (%s)" % lib_name
            funcs[outer] += n
            chains[" > ".join(f for f, _ in reversed(chain))] += n
            lines[short_loc(chain[0][1])] += n
    for obj, n in unresolved.items():
        funcs[obj] += n

    total = sum(funcs.values())
    if rc != 0:
        print("sample_profile: command exited %d" % rc, file=sys.stderr)
    named = sum(n for f, n in funcs.items() if not f.startswith(("??", "[")))
    if total == 0 or named == 0:
        print("sample_profile: no samples attributed to a function",
              file=sys.stderr)
        return 1
    print_table("By outermost function", funcs, total, args.top)
    print_table("By inline chain (outer > inner)", chains, total, args.top)
    print_table("By source line (innermost)", lines, total, args.top)
    return 1 if rc != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
