"""The benchmark's own arithmetic: tail percentile and growth."""

import math

import pytest

from metrics import epoch_growth, growth_windows, percentile, tail_percentile


@pytest.mark.parametrize("n, p, beyond", [
    (100, 90, 10),   # exactly ten beyond p90
    (110, 90, 11),   # p91 would leave ceil(100.1) = 101 -> 9 beyond
    (60, 83, 10),    # p83: ceil(49.8) = 50 -> 10 beyond; p84 leaves 9
    (1000, 99, 10),  # the ladder stops at p99
    (20, 50, 10),
    (5, 50, 2),      # too few samples: fall back to the median
])
def test_tail_percentile(n, p, beyond):
    assert tail_percentile(n) == (p, beyond)


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 400):
        p, beyond = tail_percentile(n)
        assert beyond >= 10
        assert n - math.ceil(p * n / 100) == beyond
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile(0)


def test_percentile_leaves_the_counted_samples_beyond():
    values = list(range(1, 101))
    p, beyond = tail_percentile(len(values))
    cut = percentile(values, p)
    assert cut == 90
    assert sum(1 for v in values if v > cut) == beyond
    assert percentile(values, 50) == 50


def test_epoch_growth_flat_and_linear():
    assert epoch_growth([0.1] * 60) == pytest.approx(1.0)
    times = [1.0 + e for e in range(60)]
    # epochs 10..29 average 20.5; the last 20 (40..59) average 50.5
    assert epoch_growth(times) == pytest.approx(50.5 / 20.5)


def test_epoch_growth_needs_the_windows():
    with pytest.raises(ValueError):
        epoch_growth([0.1] * 25)


def test_growth_windows():
    assert growth_windows(100) == ((10, 30), 20)
    assert growth_windows(40) == ((10, 30), 20)
    early, last = growth_windows(6)
    times = [1.0] * 6
    assert epoch_growth(times, early, last) == pytest.approx(1.0)
    for epochs in range(2, 40):
        early, last = growth_windows(epochs)
        epoch_growth([1.0] * epochs, early, last)

