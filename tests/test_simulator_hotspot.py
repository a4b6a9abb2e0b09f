"""Tests for the hotspot key distribution through the drivers."""

from repro.simulator import SimulationConfig, run_simulation
from repro.workload import HotspotKeysSpec, WorkloadSpec


def _config(hot_probability=None, **overrides):
    defaults = dict(algorithm="naive-lock-coupling", arrival_rate=0.2,
                    n_items=3_000, n_operations=400,
                    warmup_operations=50, seed=31)
    if hot_probability is not None:
        defaults["workload"] = WorkloadSpec(
            keys=HotspotKeysSpec(hot_probability=hot_probability))
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestHotspotRuns:
    def test_run_completes(self):
        result = run_simulation(_config(hot_probability=0.8))
        assert not result.overflowed
        assert result.measured_operations >= 400

    def test_skew_concentrates_contention(self):
        """At the same arrival rate, a strong hotspot produces clearly
        more lock waiting than a uniform workload under lock-coupling."""
        uniform = run_simulation(_config(arrival_rate=0.3,
                                         n_operations=800))
        skewed = run_simulation(_config(arrival_rate=0.3,
                                        n_operations=800,
                                        hot_probability=0.95))
        assert skewed.mean_response["insert"] \
            > 1.1 * uniform.mean_response["insert"]

    def test_link_type_shrugs_off_skew(self):
        uniform = run_simulation(_config(algorithm="link-type",
                                         arrival_rate=0.3,
                                         n_operations=800))
        skewed = run_simulation(_config(algorithm="link-type",
                                        arrival_rate=0.3,
                                        n_operations=800,
                                        hot_probability=0.95))
        assert skewed.mean_response["insert"] \
            < 1.3 * uniform.mean_response["insert"]

    def test_closed_mode_accepts_hotspot(self):
        from repro.simulator.closed import run_closed_simulation
        result = run_closed_simulation(
            _config(hot_probability=0.8), multiprogramming_level=4)
        assert result.throughput > 0
