"""Scaling of measured times by the host-speed samples around them."""

import pytest

import hostspeed

REF = 0.01


def test_steady_host_at_reference_speed_keeps_raw_times():
    # t0 = 0; a sample [0.0, 0.0]; cycle 1-2; sample 2-2.5; cycle 3-5; sample 5-5.5; end 6
    samples = [(0.0, 0.0, REF), (2.0, 2.5, REF), (5.0, 5.5, REF)]
    plan, wall = hostspeed.scale([(0.0, 6.0, [(1.0, 2.0), (3.0, 5.0)], samples)], REF)
    assert plan == pytest.approx([1.0, 2.0])
    assert wall == pytest.approx(6.0 - 0.5 - 0.5)


def test_half_speed_host_halves_times():
    samples = [(0.0, 0.0, 2 * REF), (2.0, 2.5, 2 * REF)]
    plan, wall = hostspeed.scale([(0.0, 3.0, [(1.0, 2.0)], samples)], REF)
    assert plan == pytest.approx([0.5])
    assert wall == pytest.approx((2.0 + 0.5) / 2)


def test_span_between_samples_uses_the_mean_factor():
    samples = [(0.0, 0.0, REF), (1.0, 1.0, REF / 3)]
    plan, _ = hostspeed.scale([(0.0, 1.0, [(0.0, 1.0)], samples)], REF)
    assert plan == pytest.approx([(1.0 + 3.0) / 2])


def test_lone_outlying_sample_is_dropped_and_a_lasting_change_kept():
    assert hostspeed._median3([1, 1, 5, 1, 1]) == [1, 1, 1, 1, 1]
    assert hostspeed._median3([1, 1, 1, 2, 2, 2]) == [1, 1, 1, 2, 2, 2]


def test_smoothing_runs_across_operations():
    # The second operation's first sample is an outlier; its neighbours sit
    # in the operation before and in its own cycle.
    ops = [(0.0, 1.0, [(0.0, 1.0)], [(0.0, 0.0, REF), (1.0, 1.0, REF)]),
           (2.0, 3.0, [(2.0, 3.0)], [(2.0, 2.0, REF / 10), (3.0, 3.0, REF)])]
    plan, _ = hostspeed.scale(ops, REF)
    assert plan == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_sample_is_a_positive_time(kernel):
    assert 0.0 < hostspeed.sample(kernel) < 1.0
