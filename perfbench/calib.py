"""Calibration kernels: fixed work that times the host, not foldrate.

The shared host this benchmark runs on changes speed in phases that last
from seconds to minutes, and an operation's wall time moves with them by
up to 2x.  Each workload uses the kernel of its domain, whose work
resembles its own hot loop, and the loop times that kernel between
operations, so each operation has a kernel time just before and just
after it.  Dividing the operation's time by the mean of the two and
multiplying by REFERENCE_S gives the time the operation would take on
the reference machine.

Set-up time, which is spent importing in a fresh interpreter, is scaled
the same way by IMPORT_CODE timed in fresh interpreters just before and
after each sample.

The kernels use only the standard library and numpy, never foldrate, so
no change to the program can move them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

EXACT_N = 128
LOG_LEN = 8192
LOG_STEP = 4

# Median seconds of each kernel on the reference machine (2-vCPU Intel
# Xeon virtual machine, Python 3.11.7, numpy 2.4.6).  Fixed: changing
# them rescales every normalised time.
REFERENCE_S = {"exact": 0.045, "log": 0.185, "import": 0.140}

# Run in a fresh interpreter beside each set-up sample: the imports foldrate
# makes outside its own package (numpy and the standard modules it used when
# this benchmark was added).  numpy is most of foldrate's set-up time, so a
# host phase moves both alike; time foldrate adds on top still shows.
IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import numpy, argparse, csv, dataclasses, fractions, hashlib, json, logging, struct, zlib
print(repr(time.perf_counter() - t0))
"""


def exact_kernel() -> float:
    """A sum fold and a max fold on integer-valued Fractions, whose values
    grow about as fast as those of the benchmark's exact workload."""
    t0 = time.perf_counter()
    s, c, d = [Fraction(1)], [], []
    for m in range(EXACT_N):
        c.append(sum(s[x] * s[m - x] for x in range(m + 1)))
        d.append(max(s[x] * c[m - x] for x in range(m + 1)))
        s.append(40 * c[m] + 50 * d[m])
    return time.perf_counter() - t0


_rng = np.random.default_rng(0)
_S = _rng.standard_normal(LOG_LEN).cumsum()
_C = _rng.standard_normal(LOG_LEN).cumsum()
_BUF = np.empty(LOG_LEN)


def log_kernel() -> float:
    """ln-domain cells: a reversed add, then logaddexp.reduce and max."""
    t0 = time.perf_counter()
    for m in range(LOG_STEP - 1, LOG_LEN, LOG_STEP):
        buf = _BUF[: m + 1]
        np.add(_S[: m + 1], _C[m::-1], out=buf)
        float(np.logaddexp.reduce(buf))
        float(buf.max())
    return time.perf_counter() - t0


KERNELS = {"exact": exact_kernel, "log": log_kernel}
