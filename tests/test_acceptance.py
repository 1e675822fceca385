"""Acceptance criteria, one test per criterion.

Every check is an exact symbolic identity (no tolerances); the stated
runtime budgets are asserted as upper bounds.  Run with `pytest -s
tests/test_acceptance.py` to see one PASS/FAIL line per criterion.
"""

import time

from modwd import make_ctx
from modwd.verify import (run_correspondence, run_epsilon,
                          run_multiplicativity, run_preservation,
                          run_profile_law, run_random_transport,
                          run_roundtrip, run_tensor_oracle, run_witness)

PRESERVATION_PARAMS = ((5, 2), (3, 2), (2, 3), (3, 4))


def _report(label, t0, summaries, bound=None):
    elapsed = time.time() - t0
    ok = all(s.passed for s in summaries)
    checked = sum(s.checked for s in summaries)
    status = "PASS" if ok else "FAIL"
    budget = f", budget {bound:.0f}s" if bound else ""
    print(f"{status} {label}: {checked} checks in {elapsed:.1f}s{budget}",
          flush=True)
    for s in summaries:
        if not s.passed:
            print("  " + s.line(), flush=True)
    assert ok, f"{label}: " + "; ".join(s.line() for s in summaries if not s.passed)
    if bound is not None:
        assert elapsed < bound, f"{label} exceeded its runtime budget"


def test_criterion_1_non_preservation_witness():
    t0 = time.time()
    s = run_witness(make_ctx(5, 2))
    _report("criterion 1 (non-preservation witness)", t0, [s], bound=1.0)


def test_criterion_2_preservation_sweep():
    t0 = time.time()
    summaries = [run_preservation(ell, q, max_segments=3, max_len=4, max_k=1,
                                  processes=2)
                 for ell, q in PRESERVATION_PARAMS]
    _report("criterion 2 (preservation of L/gamma/epsilon)", t0, summaries,
            bound=120.0)


def test_criterion_3_multiplicativity():
    t0 = time.time()
    s = run_multiplicativity(params=((5, 2), (3, 2), (2, 3)), nmax=5)
    _report("criterion 3 (L multiplicativity with matrix route)", t0, [s],
            bound=10.0)


def test_criterion_4_classification_roundtrip():
    t0 = time.time()
    summaries = [
        run_roundtrip(5, 2, max_dim=12, processes=2),
        run_roundtrip(2, 3, max_dim=12, processes=2),
        run_random_transport(5, 2, count=500),
        run_random_transport(2, 3, count=500),
    ]
    _report("criterion 4 (Krull-Schmidt roundtrip oracle)", t0, summaries,
            bound=60.0)


def test_criterion_5_tensor_oracle():
    t0 = time.time()
    summaries = [run_tensor_oracle(ell, q, rmax=4)
                 for ell, q in PRESERVATION_PARAMS]
    _report("criterion 5 (tensor_ss == matrix oracle)", t0, summaries,
            bound=60.0)


def test_criterion_6_epsilon_invertibility():
    t0 = time.time()
    summaries = []
    for ell, q in ((5, 2), (2, 3)):
        summaries.append(run_epsilon(ell, q, max_dim=12))
    _report("criterion 6 (epsilon invertibility + cycle units)", t0, summaries)


def test_criterion_7_correspondence_properties():
    t0 = time.time()
    summaries = [run_correspondence(ell, q, max_segments=3, max_len=4)
                 for ell, q in PRESERVATION_PARAMS]
    _report("criterion 7 (C commutes with twists/duals/det)", t0, summaries)


def test_criterion_8_profile_laws():
    t0 = time.time()
    s = run_profile_law(ells=(2, 3, 5, 7), nmax=6)
    _report("criterion 8 (interval profile endpoint laws)", t0, [s])
