#!/usr/bin/env python3
"""Sample a command's instruction pointer and print its hottest symbols.

    python3 tools/hotspots.py [--top 10] [--min-samples N]
        [--expect TEXT] -- COMMAND [ARGS...]

Runs COMMAND under ptrace, stops its main thread every 0.5 ms, reads
the instruction pointer and lets it go on.  When the command exits, it
prints how many samples it took and the --top symbols by share of
samples, each with the source line (``file:line``) of the symbol's
first instruction.  An anonymous OCaml closure such as
``camlPrivateer_interp__Interp.fun_2000`` is thus named by the line
that defines it.  Samples that land in a shared library are counted
under the library's name.

Under each top symbol of the executable a second line gives its
instruction count, its indirect jumps (``jmp *``; how many of them are
jump tables, that is, load their target from a table of offsets) and
its indirect calls (``call *``), read from ``objdump -d``.  A node
specialised by literal arguments that failed to fold shows up there as
jump tables that its source does not ask for.

Unlike a SIGPROF sampler, which can only stop the program where it is
willing to take a signal, a ptrace stop lands on any instruction, so
allocation points are not over-counted.

With --min-samples, it exits 1 when fewer samples were taken; with
--expect, it exits 1 unless TEXT occurs in one of the top symbols.
Otherwise it exits with the command's own status.  The command's
output passes through unchanged; the report goes to stderr.

Linux x86-64 only.  Standard library only: ptrace through ctypes,
symbol names from ``nm``, source lines from ``addr2line`` and
instructions from ``objdump`` (binutils).
Profile a built executable directly (``_build/default/bin/X.exe``), not
``dune exec``, which would be the process sampled.
"""

import argparse
import bisect
import collections
import ctypes
import os
import platform
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_PEEKUSER = 3
PTRACE_CONT = 7
RIP_OFFSET = 16 * 8  # user_regs_struct.rip, x86-64
SYS_TGKILL = 234  # x86-64
INTERVAL_S = 0.0005  # sampling period

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.syscall.restype = ctypes.c_long


def ptrace(request, pid, addr=0, data=0):
    ctypes.set_errno(0)
    r = libc.ptrace(request, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data))
    err = ctypes.get_errno()
    if r == -1 and err != 0:
        raise OSError(err, os.strerror(err))
    return r


def start(argv):
    """Fork COMMAND traced; return its pid, stopped at its exec."""
    pid = os.fork()
    if pid == 0:
        try:
            ptrace(PTRACE_TRACEME, 0)
            os.execvp(argv[0], argv)
        except OSError as e:
            sys.stderr.write("hotspots: cannot run %s: %s\n" % (argv[0], e))
        os._exit(127)
    _, status = os.waitpid(pid, 0)
    if not os.WIFSTOPPED(status):
        sys.exit("hotspots: %s did not start" % argv[0])
    return pid


def mappings(pid):
    """(start, end, file offset, path) of each file-backed mapping."""
    maps = []
    with open("/proc/%d/maps" % pid) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].strip().startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    return maps


def sample(pid):
    """Sample until the command exits; return (ips, exit status, maps).
    The maps are re-read when an address falls outside every known
    mapping (shared libraries are mapped after the exec stop)."""
    ips = []
    maps = mappings(pid)
    rereads = 0
    ptrace(PTRACE_CONT, pid)
    status = None
    while status is None:
        time.sleep(INTERVAL_S)
        libc.syscall(SYS_TGKILL, pid, pid, signal.SIGSTOP)
        while True:
            _, st = os.waitpid(pid, 0)
            if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                status = os.WEXITSTATUS(st) if os.WIFEXITED(st) else 128 + os.WTERMSIG(st)
                break
            sig = os.WSTOPSIG(st)
            if sig == signal.SIGSTOP:
                ip = ptrace(PTRACE_PEEKUSER, pid, RIP_OFFSET) & (2**64 - 1)
                ips.append(ip)
                if rereads < 50 and not any(lo <= ip < hi for lo, hi, _, _ in maps):
                    maps = sorted(set(maps) | set(mappings(pid)))
                    rereads += 1
                ptrace(PTRACE_CONT, pid)
                break
            # Someone else's signal: deliver it and wait for our stop.
            ptrace(PTRACE_CONT, pid, 0, sig)
    return ips, status, maps


def symbols(path):
    """Sorted (address, name) of the defined text symbols of an ELF file."""
    out = subprocess.run(["nm", "-n", "--defined-only", path],
                         capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    return syms


def is_pie(path):
    with open(path, "rb") as f:
        head = f.read(18)
    return head[16] == 3  # e_type ET_DYN


def source_line(path, addr):
    out = subprocess.run(["addr2line", "-e", path, "%x" % addr],
                         capture_output=True, text=True).stdout.strip()
    if not out or out.startswith("??"):
        return "?"
    return os.path.basename(out.split(" ")[0])


def disasm(path, start, stop):
    """Instruction count, indirect jumps, jump tables and indirect calls
    of the code in [start, stop)."""
    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn",
                          "--start-address=0x%x" % start, "--stop-address=0x%x" % stop, path],
                         capture_output=True, text=True).stdout
    insns = []
    for line in out.splitlines():
        addr, sep, insn = line.partition(":\t")
        if sep and addr.strip() and all(c in "0123456789abcdef" for c in addr.strip()):
            insns.append(insn.strip())
    jumps = tables = calls = 0
    for i, insn in enumerate(insns):
        if insn.startswith("call") and "*" in insn:
            calls += 1
        elif insn.startswith("jmp") and "*" in insn:
            jumps += 1
            # A jump table loads its target as a 4-byte offset scaled
            # by the case index, just before the jump.
            if any(x.startswith("movslq") and ",4)" in x for x in insns[max(0, i - 3):i]):
                tables += 1
    return len(insns), jumps, tables, calls


def report(ips, maps, exe, top):
    base = min(lo - off for lo, hi, off, path in maps if path == exe)
    bias = base if is_pie(exe) else 0
    syms = symbols(exe)
    starts = [a for a, _ in syms]
    counts = collections.Counter()
    first = {}
    for ip in ips:
        owner = next((path for lo, hi, _, path in maps if lo <= ip < hi), None)
        if owner == exe and syms:
            i = bisect.bisect_right(starts, ip - bias) - 1
            if i >= 0:
                addr, name = syms[i]
                counts[name] += 1
                first[name] = addr
                continue
        counts["[%s]" % os.path.basename(owner) if owner else "[unknown]"] += 1
    n = len(ips)
    lines = ["hotspots: %d samples of %s" % (n, os.path.basename(exe))]
    ranked = counts.most_common(top)
    for name, c in ranked:
        where = source_line(exe, first[name]) if name in first else ""
        lines.append("%6.1f%%  %-60s %s" % (100.0 * c / max(n, 1), name, where))
        if name in first:
            start = first[name]
            i = bisect.bisect_right(starts, start)
            stop = starts[i] if i < len(starts) else start + 1
            lines.append("         %d instructions, %d indirect jumps (%d jump tables), "
                         "%d indirect calls" % disasm(exe, start, stop))
    return lines, [name for name, _ in ranked]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=10)
    ap.add_argument("--min-samples", type=int, default=0)
    ap.add_argument("--expect", default=None)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        ap.error("no command")
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        sys.exit("hotspots: Linux x86-64 only")
    pid = start(argv)
    exe = os.path.realpath("/proc/%d/exe" % pid)
    ips, status, maps = sample(pid)
    lines, ranked = report(ips, maps, exe, args.top)
    sys.stderr.write("\n".join(lines) + "\n")
    if len(ips) < args.min_samples:
        sys.stderr.write("hotspots: %d samples, fewer than %d\n" % (len(ips), args.min_samples))
        return 1
    if args.expect is not None and not any(args.expect in name for name in ranked):
        sys.stderr.write("hotspots: no top-%d symbol contains %r\n" % (args.top, args.expect))
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
