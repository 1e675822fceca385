"""A fixed reference computation, timed between blocks of checks, that
scales every CPU time the benchmark reports to one reference speed.

A 2-vCPU Xeon virtual machine shared with other tenants switches, for
stretches of a few milliseconds to tens of seconds, between two speeds
about 1.7 times apart, and CPU time does not hide it: the vCPU runs
slower, it is not descheduled.  Ten 8-second runs of `pairs` on one
seed gave 377 to 521 checks per CPU second.

The computation does the kinds of work modwd does, in code of its own:
arithmetic on small Python objects, dict and tuple building, sorting, and
numpy products over mod-Q lookup tables in the gather-and-reduce form of
`FMat.__matmul__`.  A change to modwd therefore never changes its time.
It runs with the garbage collector off, so that a program's collector
settings do not move it either, and it is timed on its second run, so
that the caches a check leaves behind do not move it: timed cold after
`roundtrip` checks, it ran about 5% slower.

`factor()` times it once and returns that time over `REFERENCE_S`: 1 at
the reference speed, above 1 on a slower machine.  Divide a CPU time
measured next to it by the factor.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# median CPU time of `_work()` on the slower of the two speeds of a 2-vCPU
# Xeon virtual machine (Python 3.11.7, numpy 2.4.6); a fixed constant, so
# scaled figures from different runs and commits compare
REFERENCE_S = 1.75e-3

_P = 251
_Q = 25
_MUL = (np.arange(_Q)[:, None] * np.arange(_Q)[None, :] % _Q).astype(np.int32)
_ADD = ((np.arange(_Q)[:, None] + np.arange(_Q)[None, :]) % _Q).astype(np.int32)
_MATS = [((np.arange(n)[:, None] * 7 + np.arange(n)[None, :] ** 2 * 3 + n)
          % _Q).astype(np.int32) for n in (32, 8)]


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % _P)

    def __mul__(self, other):
        return _Elem(self.v * other.v % _P)


def _objects(n=8):
    a = [[_Elem((i * 7 + j * 13) % _P) for j in range(n)] for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            s = _Elem(0)
            for k in range(n):
                s = s + a[i][k] * a[k][j]
            out[i, j] = s
    return sorted(out, key=lambda ij: out[ij].v)


def _matmul(A, B):
    P = _MUL[A[:, :, None], B[None, :, :]]
    while P.shape[1] > 1:
        h = P.shape[1] // 2
        R = _ADD[P[:, 0:2 * h:2, :], P[:, 1:2 * h:2, :]]
        if P.shape[1] & 1:
            R = np.concatenate([R, P[:, -1:, :]], axis=1)
        P = R
    return P[:, 0, :]


def _work():
    _objects()
    big, small = _MATS
    _matmul(big, big)
    for _ in range(12):
        small = _matmul(small, small)


def factor():
    """CPU time of one `_work()` over REFERENCE_S, timed after an untimed
    one, so that caches the checks left cold do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t = time.process_time()
        _work()
        return (time.process_time() - t) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()
