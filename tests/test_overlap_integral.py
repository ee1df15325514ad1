"""``overlap_integral`` stops at the window's end without changing a float.

Rate segments are time-ordered and disjoint (``FlowFact.segments``), so
the scan may stop at the first segment starting at or after the window's
end. The reference here is the full scan it replaced, which visits every
segment; both must agree exactly (``==`` and the same ``repr``, so even
the sign of a zero matches) on seeded random histories and windows,
including empty, inverted, unbounded and segment-aligned windows.
"""

import random

import pytest

from repro.obs.diagnosis.attribution import overlap_integral

_INF = float("inf")


def _full_scan(segments, lo, hi):
    total = 0.0
    for start, end, rate in segments:
        left = start if start > lo else lo
        right = end if end < hi else hi
        if right > left:
            total += rate * (right - left)
    return total


def _history(rng):
    """Disjoint, time-ordered [start, end, rate] spans, as the recorder
    writes them: gaps of idle time between some of them."""
    segments = []
    now = rng.uniform(-1.0, 1.0)
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.4:
            now += rng.uniform(0.0, 0.5)
        end = now + rng.choice([rng.uniform(1e-9, 1e-6), rng.uniform(0.01, 2.0)])
        segments.append([now, end, rng.choice([rng.uniform(0.1, 10.0), 1e-12, 3.0])])
        now = end
    return segments


def _windows(rng, segments):
    points = [point for start, end, _rate in segments for point in (start, end)]
    points += [rng.uniform(-2.0, 30.0) for _ in range(4)] + [-_INF, _INF]
    for _ in range(25):
        lo, hi = rng.choice(points), rng.choice(points)
        yield lo, hi
        yield hi, lo
        yield lo, lo


@pytest.mark.parametrize("seed", range(20))
def test_early_stop_equals_full_scan(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(50):
        segments = _history(rng)
        for lo, hi in _windows(rng, segments):
            got = overlap_integral(segments, lo, hi)
            want = _full_scan(segments, lo, hi)
            assert got == want and repr(got) == repr(want), (segments, lo, hi)
            checked += 1
    assert checked == 50 * 75
