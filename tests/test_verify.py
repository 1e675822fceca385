from modwd.verify import run_preservation, run_roundtrip


def test_sweep_serial_and_pooled_agree():
    serial = run_roundtrip(5, 2, max_dim=4, processes=1)
    pooled = run_roundtrip(5, 2, max_dim=4, processes=2)
    assert serial.checked == pooled.checked > 0
    assert serial.failures == pooled.failures
    assert serial.line() == pooled.line()


def test_preservation_sweep_counts_every_pair():
    s = run_preservation(3, 2, max_segments=1, max_len=2, processes=2)
    n = int(s.note.split()[0])
    assert s.passed and s.checked == n * (n + 1) // 2
