"""Tests for the queueing models: params, MVA, M/M/1, network model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing import (
    ReplicationNetworkModel,
    StrategyTraffic,
    T1,
    T3,
    mm1_metrics,
    router_service_time,
    solve_mva,
    transmission_delay,
)
from repro.queueing.mva import response_time_curve
from repro.queueing.params import (
    LineRate,
    nodal_processing_delay,
    packet_count,
    propagation_delay,
)


class TestParams:
    def test_paper_line_rates(self):
        # Sec. 3.3: T1 = 154.4 KB/s, T3 = 4473.6 KB/s (10 bits per byte)
        assert T1.bytes_per_second == pytest.approx(154_400)
        assert T3.bytes_per_second == pytest.approx(4_473_600)

    def test_transmission_delay_formula(self):
        # Dtrans = (Sd + Sd/1.5 * 0.112) / Net_BW, with Sd = 8 KB on T1
        sd = 8192
        expected = (sd + sd / 1500 * 112) / 154_400
        assert transmission_delay(sd, T1) == pytest.approx(expected)

    def test_t3_faster_than_t1(self):
        assert transmission_delay(8192, T3) < transmission_delay(8192, T1)

    def test_propagation_is_1ms(self):
        # 200 km / 2e8 m/s = 1 ms (Sec. 3.3)
        assert propagation_delay() == pytest.approx(1e-3)

    def test_processing_delay_per_packet(self):
        assert nodal_processing_delay(1500) == pytest.approx(5e-6)
        assert nodal_processing_delay(15000) == pytest.approx(50e-6)
        assert nodal_processing_delay(10) == pytest.approx(5e-6)  # min 1 packet

    def test_router_service_time_eq4(self):
        sd = 8192
        expected = (
            transmission_delay(sd, T1)
            + nodal_processing_delay(sd)
            + propagation_delay()
        )
        assert router_service_time(sd, T1) == pytest.approx(expected)

    def test_packet_count_continuous(self):
        assert packet_count(3000) == pytest.approx(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transmission_delay(-1, T1)
        with pytest.raises(ValueError):
            LineRate("bad", 0)


class TestMva:
    def test_population_one_no_queueing(self):
        """With one customer there is never queueing: R = sum of service."""
        result = solve_mva([0.05, 0.05], think_time=0.1, population=1)
        assert result.response_time == pytest.approx(0.1)
        assert result.throughput == pytest.approx(1 / 0.2)

    def test_asymptotic_throughput_bounded_by_bottleneck(self):
        service = [0.04, 0.08]
        result = solve_mva(service, think_time=0.1, population=500)
        assert result.throughput <= 1 / 0.08 + 1e-9
        assert result.throughput == pytest.approx(1 / 0.08, rel=0.01)

    def test_response_time_monotone_in_population(self):
        service = [0.05, 0.05]
        curve = response_time_curve(service, 0.1, list(range(1, 60, 5)))
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_high_population_asymptote(self):
        """R(n) -> n/X_max - Z for large n (the standard closed-network law)."""
        service = [0.05, 0.05]
        n = 400
        result = solve_mva(service, 0.1, n)
        assert result.response_time == pytest.approx(n * 0.05 - 0.1, rel=0.02)

    def test_zero_population(self):
        result = solve_mva([0.05], 0.1, 0)
        assert result.response_time == 0.0
        assert result.throughput == 0.0

    def test_queue_lengths_sum_to_population_minus_thinkers(self):
        result = solve_mva([0.05, 0.05], 0.1, 30)
        thinkers = result.throughput * 0.1  # Little's law at the delay center
        assert sum(result.queue_lengths) + thinkers == pytest.approx(30, rel=1e-6)

    def test_no_centers(self):
        result = solve_mva([], 0.1, 10)
        assert result.response_time == 0.0
        assert result.throughput == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_mva([0.05], 0.1, -1)
        with pytest.raises(ValueError):
            solve_mva([-0.05], 0.1, 1)
        with pytest.raises(ValueError):
            solve_mva([0.05], -0.1, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        service=st.lists(st.floats(0.001, 0.2), min_size=1, max_size=4),
        population=st.integers(1, 80),
    )
    def test_littles_law_property(self, service, population):
        """X * (Z + R) == N exactly, for any configuration."""
        result = solve_mva(service, 0.1, population)
        assert result.throughput * result.cycle_time == pytest.approx(population)


class TestMM1:
    def test_stable_queue_metrics(self):
        metrics = mm1_metrics(arrival_rate=5, service_time=0.1)
        assert metrics.utilization == pytest.approx(0.5)
        assert metrics.response_time == pytest.approx(0.2)
        assert metrics.queueing_time == pytest.approx(0.1)
        assert metrics.mean_queue_length == pytest.approx(1.0)

    def test_saturation_gives_inf(self):
        metrics = mm1_metrics(arrival_rate=11, service_time=0.1)
        assert not metrics.stable
        assert math.isinf(metrics.queueing_time)
        assert math.isinf(metrics.response_time)

    def test_saturation_rate(self):
        assert mm1_metrics(1, 0.05).saturation_rate == pytest.approx(20)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1_metrics(-1, 0.1)
        with pytest.raises(ValueError):
            mm1_metrics(1, 0)

    def test_queueing_time_grows_toward_saturation(self):
        times = [mm1_metrics(rate, 0.05).queueing_time for rate in (5, 10, 15, 19)]
        assert times == sorted(times)


class TestReplicationNetworkModel:
    def _models(self, line=T1):
        return {
            name: ReplicationNetworkModel(StrategyTraffic(name, payload), line)
            for name, payload in [
                ("traditional", 8192),
                ("compressed", 2730),
                ("prins", 400),
            ]
        }

    def test_fig8_ordering_holds_at_every_population(self):
        models = self._models(T1)
        for population in (1, 20, 50, 100):
            traditional = models["traditional"].response_time(population)
            compressed = models["compressed"].response_time(population)
            prins = models["prins"].response_time(population)
            assert prins < compressed < traditional

    def test_prins_stays_flat_traditional_blows_up(self):
        models = self._models(T1)
        prins_curve = models["prins"].response_time_curve([1, 100])
        traditional_curve = models["traditional"].response_time_curve([1, 100])
        assert prins_curve[1] / prins_curve[0] < 50
        assert traditional_curve[1] > 4.0  # paper fig8: ~6 s at pop 100

    def test_fig9_t3_much_faster(self):
        t1 = self._models(T1)["traditional"].response_time(100)
        t3 = self._models(T3)["traditional"].response_time(100)
        assert t3 < t1 / 5

    def test_fig10_saturation_ordering(self):
        models = self._models(T1)
        assert (
            models["traditional"].saturation_write_rate
            < models["compressed"].saturation_write_rate
            < models["prins"].saturation_write_rate
        )

    def test_paper_think_time_default(self):
        model = self._models()["prins"]
        assert model.think_time == pytest.approx(0.1)
        assert model.routers == 2

    def test_queueing_time_curve_saturates(self):
        model = self._models(T1)["traditional"]
        curve = model.queueing_time_curve([1.0, 30.0])
        assert math.isinf(curve[1])  # traditional saturates T1 below 30/s

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationNetworkModel(StrategyTraffic("x", 100), T1, routers=0)
        with pytest.raises(ValueError):
            StrategyTraffic("x", -1)
