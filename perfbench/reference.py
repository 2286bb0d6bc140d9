"""A fixed reference workload that measures how fast the host is right now.

The host this benchmark runs on is shared: for seconds to minutes at a time
it runs the same code up to twice as slowly, with no stolen time visible to
the guest.  Each timing is therefore divided by the time of this reference,
measured right before and right after it, and multiplied by
``NOMINAL_S``: the benchmark's time metrics read as seconds on a host where
the reference takes ``NOMINAL_S``.  The reference mixes the kinds of work the
program does -- dict and string handling, object attribute access and
float arithmetic, small NumPy arrays, JSON and ``struct`` framing, dense
matrix products and zlib compression -- because each slows by a different
factor when the host is contended.  It does not call the program, so a
change to the program leaves it unchanged.
"""

from __future__ import annotations

import json
import math
import statistics
import struct
import time
import zlib

import numpy as np

#: Seconds the reference takes on this benchmark's nominal host (the fast
#: state of a 2-core x86_64 container, measured while defining it).
NOMINAL_S = 0.018
#: Times each kernel runs per measurement (their mean is used).
REPEATS = 1


def _dicts() -> int:
    table = {}
    total = 0
    for i in range(4_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        total += len(str(key))
    return total + len(sorted(table.items(), key=lambda item: (item[1], item[0])))


class _Node:
    def __init__(self, prior: float, parent=None) -> None:
        self.prior = prior
        self.parent = parent
        self.visits = 0
        self.value = 0.0

    def score(self, c: float) -> float:
        q = self.value / self.visits if self.visits else 0.0
        return q + c * self.prior * math.sqrt(self.parent.visits + 1) / (1 + self.visits)


def _objects() -> int:
    root = _Node(1.0)
    root.visits = 1
    children = [_Node((i % 7 + 1) / 28.0, root) for i in range(40)]
    for step in range(150):
        best = max(children, key=lambda node: node.score(1.5))
        best.visits += 1
        best.value += ((step * 31) % 17) / 17.0 - 0.5
        root.visits += 1
    return root.visits


def _arrays() -> float:
    base = np.arange(600, dtype=np.float32).reshape(8, 75)
    total = 0.0
    for i in range(150):
        batch = np.concatenate([base[:4], base[4:]], axis=0) * 1.5 + 1.0
        total += float(batch[i % 8, i % 75]) + int(np.prod(batch.shape))
    return total


def _frames() -> int:
    total = 0
    for i in range(200):
        header = json.dumps({"id": i, "client": f"client_{i % 256:04d}",
                             "shape": [1, 75], "status": "ok"}).encode()
        frame = struct.pack("<4sBI", b"RLSV", 1, len(header)) + header + bytes(300)
        _, _, size = struct.unpack_from("<4sBI", frame)
        total += len(json.loads(frame[9:9 + size])["client"])
    return total


_WEIGHTS = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
_INPUTS = np.random.default_rng(1).standard_normal((64, 256)).astype(np.float32)


def _matmuls() -> float:
    hidden = _INPUTS
    for _ in range(20):
        hidden = np.tanh(hidden @ _WEIGHTS * 0.05)
    return float(hidden.sum())


_RECORDS = json.dumps([[i * 0.37, "cudaLaunchKernel", i % 13] for i in range(3_000)]).encode()


def _deflate() -> int:
    return len(zlib.compress(_RECORDS, 6))


KERNELS = (_dicts, _objects, _arrays, _frames, _matmuls, _deflate)


def reference_s() -> float:
    """Geometric mean over the kernels of their mean time, times the kernel count."""
    logs = []
    for kernel in KERNELS:
        start = time.perf_counter()
        for _ in range(REPEATS):
            kernel()
        logs.append(math.log((time.perf_counter() - start) / REPEATS))
    return len(KERNELS) * math.exp(statistics.fmean(logs))
