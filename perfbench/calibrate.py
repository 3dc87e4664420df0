"""A fixed reference kernel that measures how fast the box runs right now.

The benchmark shares a few cores of a host with other tenants, and
their load changes the speed of the same Python code by up to about
1.7x within tens of seconds, with no steal time to show for it (CPU time
slows down as much as wall time).  ``reference_seconds`` runs a fixed
pure-Python kernel shaped like the program's hot loops (watched-literal
unit propagation with chronological backtracking over a fixed random
3-CNF, and bit-parallel simulation of a fixed random gate network) and
returns its wall time.  The kernel lives in the benchmark's own files
and never imports the program, so a change to the program does not
change it; a slower or faster box does.

The engine and width workloads time this kernel next to every timed
job and report times in *reference seconds*: the measured time scaled by
``REFERENCE_S / kernel time``, i.e. the time the job would have taken on
a box where the kernel takes ``REFERENCE_S``.  ``Calibrator`` runs it on
the cores the job runs on.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import struct
import time

#: Nominal kernel time that defines one reference second's scale: about
#: the kernel's time on the unloaded 2-vCPU box the benchmark was tuned on.
REFERENCE_S = 0.05

_VARS = 90
_CLAUSES = 380
_GATES = 700
_INPUTS = 40
_MASK = (1 << 64) - 1


def _cnf() -> list[tuple[int, int, int]]:
    rng = random.Random("perfbench-calibration-cnf")
    clauses = []
    for _ in range(_CLAUSES):
        chosen = rng.sample(range(1, _VARS + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return clauses


def _network() -> list[tuple[int, int, int]]:
    rng = random.Random("perfbench-calibration-net")
    gates = []
    for index in range(_GATES):
        width = _INPUTS + index
        gates.append((rng.randrange(4), rng.randrange(width), rng.randrange(width)))
    return gates


_CNF = _cnf()
_NETWORK = _network()


def _search(clauses, limit: int) -> int:
    """DPLL with two watched literals and chronological backtracking;
    stops after ``limit`` decisions.  Returns the propagation count."""
    n = _VARS
    value = [0] * (n + 1)
    watches: dict[int, list[int]] = {}
    lits = [list(c) for c in clauses]
    for index, c in enumerate(lits):
        watches.setdefault(c[0], []).append(index)
        watches.setdefault(c[1], []).append(index)
    trail: list[int] = []
    marks: list[tuple[int, bool]] = []
    props = 0

    def true(lit):
        v = value[abs(lit)]
        return v == (1 if lit > 0 else -1)

    def false(lit):
        v = value[abs(lit)]
        return v == (-1 if lit > 0 else 1)

    def assign(lit):
        value[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)

    def propagate(head):
        nonlocal props
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watching = watches.get(falsified, [])
            keep = []
            conflict = False
            for index in watching:
                if conflict:
                    keep.append(index)
                    continue
                c = lits[index]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if true(c[0]):
                    keep.append(index)
                    continue
                for k in range(2, len(c)):
                    if not false(c[k]):
                        c[1], c[k] = c[k], c[1]
                        watches.setdefault(c[1], []).append(index)
                        break
                else:
                    keep.append(index)
                    if false(c[0]):
                        conflict = True
                    else:
                        assign(c[0])
                        props += 1
            watches[falsified] = keep
            if conflict:
                return False
        return True

    decisions = 0
    head = 0
    while decisions < limit:
        if not propagate(head):
            # chronological backtrack: flip the last unflipped decision
            while marks and marks[-1][1]:
                size, _ = marks.pop()
                for lit in trail[size:]:
                    value[abs(lit)] = 0
                del trail[size:]
            if not marks:
                return props
            size, _ = marks.pop()
            lit = trail[size]
            for undo in trail[size:]:
                value[abs(undo)] = 0
            del trail[size:]
            marks.append((size, True))
            assign(-lit)
            head = size
            continue
        head = len(trail)
        free = next((v for v in range(1, n + 1) if value[v] == 0), 0)
        if not free:
            return props
        decisions += 1
        marks.append((len(trail), False))
        assign(-free if decisions % 3 else free)
    return props


def _simulate(gates, rounds: int) -> int:
    rng = random.Random(7)
    acc = 0
    for _ in range(rounds):
        values = [rng.getrandbits(64) for _ in range(_INPUTS)]
        for kind, a, b in gates:
            x, y = values[a], values[b]
            if kind == 0:
                values.append(x & y)
            elif kind == 1:
                values.append(x | y)
            elif kind == 2:
                values.append(x ^ y)
            else:
                values.append(~(x & y) & _MASK)
        acc ^= values[-1]
    return acc


def kernel() -> int:
    """The fixed work; its result only keeps it from being optimised away."""
    return _search(_CNF, 600) + _simulate(_NETWORK, 120)


def reference_seconds() -> float:
    """Wall time of one run of the kernel.  The cyclic garbage collector
    is off while it runs, so its time does not depend on how large a heap
    the program left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Times the kernel where the workload runs.

    The two cores of the box slow down independently of each other, so
    the kernel has to run on the core the work runs on.  With no helpers
    it runs in the calling process, the one that runs a single-process
    workload (with the collector off, see ``reference_seconds``).  With
    ``helpers`` > 0 that many helper processes, forked here before the
    workload starts, run it at once, one per core a multi-process job
    keeps busy, and ``seconds()`` returns the mean of their times; they
    block on a pipe between calls.  ``close()`` kills and reaps them.
    """

    def __init__(self, helpers: int = 0) -> None:
        self._helpers: list[tuple[int, int, int]] = []  # pid, go, result
        try:
            for _ in range(helpers):
                self._helpers.append(self._fork())
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _fork() -> tuple[int, int, int]:
        go_read, go_write = os.pipe()
        result_read, result_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                os.close(go_write)
                os.close(result_read)
                kernel()  # fault in the pages the kernel touches
                while os.read(go_read, 1):
                    os.write(result_write, struct.pack("d", reference_seconds()))
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(go_read)
        os.close(result_write)
        return pid, go_write, result_read

    def seconds(self) -> float:
        if not self._helpers:
            return reference_seconds()
        for _, go, _ in self._helpers:
            os.write(go, b"g")
        times = [struct.unpack("d", os.read(result, 8))[0]
                 for _, _, result in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        # Processes forked meanwhile may hold the pipes open, so the
        # helpers are killed rather than left to read end of file.
        for pid, go, result in self._helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(go)
            os.close(result)
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
