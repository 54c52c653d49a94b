"""The clock scales each operation by the kernel times around it.  Run with
``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import clock  # noqa: E402


@pytest.fixture
def fake_kernel(monkeypatch):
    """A kernel that takes no time; the tests set the kernel times."""
    monkeypatch.setattr(clock, "kernel", lambda: None)


def test_operation_scaled_by_the_kernels_around_it(fake_kernel):
    c = clock.Clock(interval_s=1e9)
    with c.op() as op:
        pass
    c.close()
    c.kernel_s[:] = [clock.NOMINAL_S, 3 * clock.NOMINAL_S]   # mean: twice nominal
    assert op.seconds == pytest.approx(op.wall / 2)


def test_calibrates_after_the_interval_and_on_close(fake_kernel):
    c = clock.Clock(interval_s=0.0)
    ops = []
    for _ in range(3):
        with c.op() as op:
            pass
        ops.append(op)
    assert len(c.kernel_s) == 4          # one at the start, one after each
    c.close()
    assert len(c.kernel_s) == 4          # nothing left to close
    c.kernel_s[:] = [1.0, 2.0, 4.0, 8.0]
    assert [op.seconds / op.wall for op in ops] == pytest.approx(
        [clock.NOMINAL_S / 1.5, clock.NOMINAL_S / 3.0, clock.NOMINAL_S / 6.0])


def test_an_operation_that_raises_is_timed(fake_kernel):
    c = clock.Clock()
    op = c.op()
    with pytest.raises(ValueError):
        with op:
            raise ValueError("failed")
    c.close()
    assert op.index == 0 and op.wall >= 0.0
