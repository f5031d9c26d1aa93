"""Fixed reference work that measures how fast the machine runs right now.

The host this benchmark runs on is shared, and its speed for a given piece of
code drifts by 10 to 30 % over minutes, longer than a run lasts. A
repetition's wall time divided by the time of a fixed reference, measured in
the same process right before and right after it, cancels most of that drift.
Nothing here calls fedboost, so no change to the program can change the
reference.

The kernel is modular exponentiation of the size of a Paillier decryption
under a 1024-bit key, run on as many threads as the workload has clients
sharing the worker's interpreter: every client on loopback, where the
clients are threads contending for the GIL with long C calls, and one on
TCP, where each client is a process of its own. Over ten-minute traces on a
2-vCPU machine this followed the run time of each workload more closely than
the other thread count, than two processes, or than numpy MLP steps on one
or two threads (see NOTES.md).
"""

from __future__ import annotations

import random
import threading
import time

_rng = random.Random(20200715)
# A 2048-bit modulus and a 1024-bit exponent: pow(c, lambda, n^2).
_N = _rng.getrandbits(1024) | (1 << 1023) | 1
_N_SQ = _N * _N
_EXP = _rng.getrandbits(1024) | (1 << 1023)
_BASES = [_rng.getrandbits(2047) for _ in range(24)]


def _modpow() -> None:
    for base in _BASES:
        pow(base, _EXP, _N_SQ)


def reference_s(threads: int) -> float:
    """Wall time of ``threads`` threads each running the kernel once, per
    thread: about one kernel's time on the machine however many threads."""
    workers = [threading.Thread(target=_modpow) for _ in range(threads)]
    start = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return (time.perf_counter() - start) / threads
