"""Host-speed references: every timed step is scaled to a nominal host speed.

The host this benchmark runs on is a shared VM whose CPU speed changes
by up to 2x, from one few-millisecond stretch to the next and for
seconds or minutes at a time, as other tenants load the machine.  CPU
time does not help: the process is not descheduled, each instruction
just takes longer.  So the benchmark times fixed references of its own,
which never touch the program, next to every step it times, and scales
the step's wall time by ``nominal / reference time``: the seconds the
step would have taken at the speed at which the reference takes its
nominal time.  A change to the program moves the step but not the
reference, so it shows at full size; a slow spell moves both, so it
largely cancels.

* In-process steps are scaled by :func:`reference_kernel`, a few
  milliseconds of pure-Python work, run between them.
* Child processes are scaled by a reference child, this file run as a
  script: interpreter start-up, stdlib imports and a few kernel runs,
  plus durable file writes next to children that write many files.
  A child slows with the host the way a start-up does, not the way a
  hot loop does.

Run as a script, this file is the reference child.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

#: The references' times on a quiet host (Intel Xeon Sapphire Rapids
#: KVM vCPU, Python 3.11.7).  Only the unit of the scaled times depends
#: on them.
NOMINAL_S = 0.0035
CHILD_KERNEL_RUNS = 3
#: Durable writes of the reference child next to a ``ledger`` campaign,
#: which spends a quarter to 40% of its time creating files and fsyncing.
IO_WRITES = 100
#: Reference child's nominal time, by the number of durable writes it makes.
CHILD_NOMINAL_S = {0: 0.100, IO_WRITES: 0.140}


def reference_kernel() -> int:
    """Modular big-int powers, dict inserts, a sort and JSON encoding."""
    p = (1 << 61) - 1
    acc = 0
    xs = range(1, 400)
    for r in range(12):
        s = 0
        for x in xs:
            s = (s + pow(x, r + 2, p) * (x ^ r)) % p
        acc ^= s
    d = {}
    for i in range(3000):
        d[(i * 2654435761) & 0xFFFF] = (i, str(i))
    return acc + len(json.dumps(sorted(d.items())[:800]))


class Meter:
    """Reference times of one run, and the scale they give to raw times."""

    def __init__(self, env: dict | None = None) -> None:
        self.env = env
        self.samples: list[float] = []
        self.children: dict[int, list[float]] = {}

    def sample(self) -> float:
        """One kernel run's time."""
        t0 = clock()
        reference_kernel()
        self.samples.append(clock() - t0)
        return self.samples[-1]

    def timed(self, fn):
        """In-process ``fn()`` between two bursts of 3 kernel runs.

        Returns ``(scaled s, raw s, result)``; the scale is the median of
        the burst samples.
        """
        mark = len(self.samples)
        for _ in range(3):
            self.sample()
        t0 = clock()
        result = fn()
        raw = clock() - t0
        for _ in range(3):
            self.sample()
        return raw * NOMINAL_S / statistics.median(self.samples[mark:]), raw, result

    def timed_child(self, fn, cwd: pathlib.Path, writes: int = 0):
        """``fn()``, which runs one child process, between two reference
        children making ``writes`` durable writes: ``(scaled s, raw s,
        result)``."""
        before = self.reference_child(cwd, writes)
        t0 = clock()
        result = fn()
        raw = clock() - t0
        after = self.reference_child(cwd, writes)
        return raw * CHILD_NOMINAL_S[writes] / statistics.fmean((before, after)), raw, result

    def reference_child(self, cwd: pathlib.Path, writes: int = 0) -> float:
        t0 = clock()
        subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()), str(writes)],
                       cwd=cwd, env=self.env, check=True, capture_output=True, timeout=60)
        self.children.setdefault(writes, []).append(clock() - t0)
        return self.children[writes][-1]


def child_main(writes: int) -> None:
    """The reference child: stdlib imports a CLI would make, kernel runs,
    then ``writes`` new files each written durably (write, fsync, rename)."""
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import hashlib  # noqa: F401
    import os
    import random  # noqa: F401
    import shutil

    for _ in range(CHILD_KERNEL_RUNS):
        reference_kernel()
    if writes:
        out = pathlib.Path(f"speed-ref-{os.getpid()}")
        out.mkdir()
        body = json.dumps({"pad": "x" * 2000})
        for i in range(writes):
            tmp = out / f"{i}.tmp"
            with open(tmp, "w") as fh:
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, out / f"{i}.json")
        shutil.rmtree(out)


if __name__ == "__main__":
    child_main(int(sys.argv[1]))
