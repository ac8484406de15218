"""Host-speed probe: a fixed pure-Python kernel timed in a child process.

The benchmark's shared host runs fast or slow for seconds to minutes at
a time, and every statistic of raw operation times moves with it (the
interquartile mean of n = 8 attack attempts spread 0.30 of its median
over ten runs of the same code).  The measuring loop therefore asks a
child process to run REFERENCE_LOOPS rounds of a fixed kernel every
PROBE_EVERY seconds, while the benchmark waits, and the gated latencies
are each lane's time divided by the kernel's.  The kernel uses nothing
from the package, so a change to the package cannot speed it up, and it
runs in its own interpreter, so a thread the package leaves running does
not slow it down.

Run as a script it is the child: one line in, one kernel run, its
duration in seconds as one line out, until its standard input closes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

REFERENCE_LOOPS = 500  # about 1 ms on a 2-core shared x86-64 virtual machine
PROBE_EVERY = 0.025  # seconds of measuring between two probes
WARM_UP = 20  # untimed probes after the child starts


def kernel(loops: int = REFERENCE_LOOPS) -> int:
    """Carry-less multiply-and-reduce on 32-bit words: small-int arithmetic,
    branches and loop overhead, the interpreter work GF(2^32) code does."""
    acc = 0x9E3779B9
    for i in range(loops):
        a = (acc ^ (i * 0x85EBCA6B)) & 0xFFFFFFFF
        r = 0
        for _ in range(4):
            if a & 1:
                r ^= acc
            a >>= 1
            acc = ((acc << 1) ^ (0x8D if acc >> 31 else 0)) & 0xFFFFFFFF
        acc ^= r
    return acc


class HostProbe:
    """The child process and the kernel times it reported, in seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            for _ in range(WARM_UP):
                self._ask()
        except BaseException:
            self.close()
            raise

    def _ask(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference child exited with code {self.proc.wait()}")
        return float(line)

    def sample(self) -> None:
        self.samples.append(self._ask())

    def close(self) -> None:
        """Stop the child and wait for it, on every path out of a run."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
