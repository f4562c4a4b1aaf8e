"""Unit tests for :class:`repro.core.rpc.RttEstimator` (RFC 6298).

The one estimator behind the liveness watcher's probe timeout and every
reliability stage's retransmit timer: first-sample seeding, the smoothed
update, and the margin/floor/ceiling rules of :meth:`rto`.
"""

import pytest

from repro.core.rpc import RTO_MIN_MARGIN, RttEstimator


class TestSamples:
    def test_unsampled_estimator_answers_the_ceiling(self):
        rtt = RttEstimator()
        assert rtt.srtt is None
        assert rtt.rto(1e-6, 400e-6) == 400e-6

    def test_first_sample_seeds_srtt_and_half_variance(self):
        rtt = RttEstimator()
        rtt.observe(40e-6)
        assert rtt.srtt == 40e-6
        assert rtt.rttvar == 20e-6

    def test_update_uses_the_rfc_gains(self):
        rtt = RttEstimator()
        rtt.observe(40e-6)
        rtt.observe(80e-6)
        # rttvar is updated against the *old* srtt, then srtt moves.
        assert rtt.rttvar == pytest.approx(0.75 * 20e-6 + 0.25 * 40e-6)
        assert rtt.srtt == pytest.approx(0.875 * 40e-6 + 0.125 * 80e-6)


class TestRto:
    def test_rto_is_srtt_plus_four_variances(self):
        rtt = RttEstimator()
        rtt.observe(40e-6)
        assert rtt.rto(0.0, 1.0) == pytest.approx(40e-6 + 4 * 20e-6)

    def test_floor_and_ceiling_clamp(self):
        rtt = RttEstimator()
        rtt.observe(40e-6)  # unclamped rto: 120 us
        assert rtt.rto(500e-6, 1e-3) == 500e-6
        assert rtt.rto(0.0, 100e-6) == 100e-6

    def test_steady_path_keeps_the_minimum_margin(self):
        rtt = RttEstimator()
        for _ in range(200):
            rtt.observe(50e-6)
        assert rtt.rttvar < RTO_MIN_MARGIN / 4
        assert rtt.rto(0.0, 1.0) == pytest.approx(50e-6 + RTO_MIN_MARGIN)
