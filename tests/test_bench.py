"""The round loop of bench/run_bench.py, driven by stub sides that build
no modwd rows."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "run_bench", Path(__file__).resolve().parent.parent / "bench" / "run_bench.py")
run_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_bench)


class Stub:
    """A side whose passes take the given CPU microseconds per call, row by
    row and round by round, and that logs every pass it runs."""

    def __init__(self, name, rows, us, log):
        self.name, self.rows, self.us, self.log = name, rows, us, log

    def header(self):
        return {"rows": self.rows}

    def time(self, row):
        self.log.append((row, self.name))
        return [self.us[row].pop(0), 1.0]


def rows(**digests):
    return {"a": {"rounds": 4, "result_sha256": digests.get("a", "x")},
            "b": {"rounds": 2, "result_sha256": digests.get("b", "y")}}


def test_first_side_alternates_and_ratios():
    log = []
    sides = {"change": Stub("change", rows(), {"a": [1, 2, 3, 4], "b": [3, 3]}, log),
             "parent": Stub("parent", rows(), {"a": [2, 2, 2, 2], "b": [2, 4]}, log)}
    timed, headers = run_bench.interleave(sides)
    c, p = "change", "parent"
    assert log == [("a", c), ("a", p), ("b", c), ("b", p),
                   ("a", p), ("a", c), ("b", p), ("b", c),
                   ("a", c), ("a", p),
                   ("a", p), ("a", c)]
    a, b = timed["a"], timed["b"]
    assert a["change_us"] == [1, 2, 3, 4] and a["parent_wall_us"] == [1.0] * 4
    # ratios 0.5, 1, 1.5, 2: the tie counts for neither side
    assert a["ratios"] == [0.5, 1, 1.5, 2] and a["median_ratio"] == 1.25
    assert (a["wins"], a["losses"], a["median_us"]) == (1, 2, 2.5)
    assert b["ratios"] == [1.5, 0.75] and (b["wins"], b["losses"]) == (1, 1)
    assert a["result_sha256"] == "x" and headers["parent"] == {"rows": rows()}


def test_one_side_has_no_ratios():
    log = []
    timed, _ = run_bench.interleave(
        {"change": Stub("change", rows(), {"a": [4, 1, 3, 2], "b": [5, 5]}, log)})
    assert [side for _, side in log] == ["change"] * 6
    assert timed["a"]["median_us"] == 2.5 and "ratios" not in timed["a"]


@pytest.mark.parametrize("other", [rows(b="z"), {"a": rows()["a"]}])
def test_differing_rows_raise(other):
    sides = {"change": Stub("change", rows(), {}, []),
             "parent": Stub("parent", other, {}, [])}
    with pytest.raises(RuntimeError, match=r"differ on rows \['b'\]"):
        run_bench.interleave(sides)
