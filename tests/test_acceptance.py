"""Acceptance criteria, one test per criterion.

Every check is an exact symbolic identity (no tolerances); the stated
runtime budgets are asserted as upper bounds.  Each criterion runs the
full grid of its `modwd verify` sweeps (verify.SWEEPS).  Run with
`pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import time

from modwd.verify import run_named


def _report(label, what, bound=None):
    t0 = time.time()
    summaries = run_named(what, "full")
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
    _report("criterion 1 (non-preservation witness)", "witness", bound=1.0)


def test_criterion_2_preservation_sweep():
    _report("criterion 2 (preservation of L/gamma/epsilon)", "preservation",
            bound=120.0)


def test_criterion_3_multiplicativity():
    _report("criterion 3 (L multiplicativity with matrix route)",
            "multiplicativity", bound=10.0)


def test_criterion_4_classification_roundtrip():
    _report("criterion 4 (Krull-Schmidt roundtrip oracle)", "roundtrip",
            bound=60.0)


def test_criterion_5_tensor_oracle():
    _report("criterion 5 (tensor_ss == matrix oracle)", "tensor", bound=60.0)


def test_criterion_6_epsilon_invertibility():
    _report("criterion 6 (epsilon invertibility + cycle units)", "epsilon")


def test_criterion_7_correspondence_properties():
    _report("criterion 7 (C commutes with twists/duals/det)", "correspondence")


def test_criterion_8_profile_laws():
    _report("criterion 8 (interval profile endpoint laws)", "profile")
