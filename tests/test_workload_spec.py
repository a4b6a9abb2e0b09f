"""WorkloadSpec plumbing: validation, registry, cache keys, model.

The load-bearing contract: the default :class:`WorkloadSpec` (the
config default) and a bare hotspot spec must hash exactly like the
pre-spec configurations they replaced — cache keys unchanged, no
CODE_SALT bump — while any other spec is content-hashed into the key
like every other config field.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.model.workload import effective_load, piecewise_response
from repro.parallel.cache import config_key
from repro.simulator.config import SimulationConfig
from repro.workload import (
    DEFAULT_WORKLOAD,
    HotspotKeysSpec,
    MMPPArrivals,
    MigratingHotspotKeysSpec,
    PoissonArrivals,
    ScheduleArrivals,
    SpikeArrivals,
    TransactionSpec,
    UniformKeysSpec,
    WorkloadSpec,
    ZipfKeysSpec,
    all_arrival_processes,
    all_key_distributions,
    get_arrival_process,
    get_key_distribution,
    mix_thresholds,
)


def _config(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="link-type", n_items=1_000,
                    n_operations=100, warmup_operations=10, seed=3)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# Spec semantics
# ----------------------------------------------------------------------
class TestSpecSemantics:

    def test_default_spec_flags(self):
        spec = WorkloadSpec()
        assert spec == DEFAULT_WORKLOAD
        assert spec.is_default()
        assert spec.arrival.stationary()

    @pytest.mark.parametrize("spec", [
        WorkloadSpec(arrival=MMPPArrivals()),
        WorkloadSpec(arrival=ScheduleArrivals()),
        WorkloadSpec(arrival=SpikeArrivals()),
        WorkloadSpec(keys=HotspotKeysSpec()),
        WorkloadSpec(keys=ZipfKeysSpec()),
        WorkloadSpec(keys=MigratingHotspotKeysSpec()),
        WorkloadSpec(transaction=TransactionSpec(size=3)),
    ], ids=["mmpp", "schedule", "spike", "hotspot", "zipf",
            "migrating", "txn"])
    def test_component_spec_is_not_default(self, spec):
        assert not spec.is_default()

    def test_mmpp_defaults_are_mean_preserving(self):
        assert MMPPArrivals().mean_factor() == pytest.approx(1.0)

    def test_spec_rejects_wrong_component_types(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival=UniformKeysSpec())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(keys=PoissonArrivals())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(transaction=3)

    def test_zipf_theta_bounds(self):
        with pytest.raises(ConfigurationError):
            ZipfKeysSpec(theta=0.0)
        with pytest.raises(ConfigurationError):
            ZipfKeysSpec(theta=1.0)

    def test_mix_thresholds_hoists_and_validates(self):
        good = SimpleNamespace(q_search=0.3, q_insert=0.5, q_delete=0.2)
        assert mix_thresholds(good) == \
            (pytest.approx(0.3), pytest.approx(0.8))
        bad = SimpleNamespace(q_search=0.9, q_insert=0.5, q_delete=0.2)
        with pytest.raises(ConfigurationError,
                           match=r"q_search=0.9.*sums to"):
            mix_thresholds(bad)


# ----------------------------------------------------------------------
# Config integration
# ----------------------------------------------------------------------
class TestConfigIntegration:

    def test_effective_workload_resolution(self):
        assert _config().workload is DEFAULT_WORKLOAD
        explicit = WorkloadSpec(arrival=MMPPArrivals())
        assert _config(workload=explicit).workload is explicit

    @pytest.mark.parametrize("workload", ["mmpp", None],
                             ids=["string", "none"])
    def test_config_rejects_non_spec_workload(self, workload):
        with pytest.raises(ConfigurationError, match="WorkloadSpec"):
            _config(workload=workload)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestCacheKeys:

    # Keys computed before key skew moved from the retired
    # key_distribution/hot_fraction/hot_probability config fields into
    # the workload spec; a cache filled then must still be served.
    @pytest.mark.parametrize("config,kind,extra,expected", [
        (SimulationConfig(), "open", None,
         "7f0942ac2b60fb05d71b453dd3d78112bc85ffc556ab0e07eb2b2ff7585db99e"),
        (SimulationConfig(), "closed", {"mpl": 4},
         "091cf0fbe4f9f81730f4b447cb4dcb7991487a41a9b7a16409c7a5caa730a615"),
        # One ext05 point (paper scale, 95% of accesses on 20% of keys).
        (SimulationConfig(
            algorithm="naive-lock-coupling", arrival_rate=0.35,
            n_items=8_000, n_operations=1_500, warmup_operations=150,
            seed=23, workload=WorkloadSpec(
                keys=HotspotKeysSpec(0.2, 0.95))), "open", None,
         "3db3d1587244f193c091fea44e467cb772cc06026ca51096903e61f91726c45e"),
        (SimulationConfig(workload=WorkloadSpec(keys=HotspotKeysSpec())),
         "open", None,
         "389a0f455978f050b62c4830bfb64d5b7566d5f4b55fd4c308a3dc083aac68c2"),
        (SimulationConfig(workload=WorkloadSpec(arrival=MMPPArrivals())),
         "open", None,
         "4ff2ae875c9c66cddb7521effa3aa47047207c4817c5e01621de97dcbf49a60d"),
        (SimulationConfig(algorithm="link-type", workload=WorkloadSpec(
            keys=ZipfKeysSpec(theta=0.9))), "open", None,
         "dd93afa315baf11016568048ef3ff7e3dff8d862ee09fc79f746399f518c638e"),
    ], ids=["default", "closed-mpl4", "ext05-hotspot", "hotspot-80-20",
            "mmpp", "zipf"])
    def test_keys_match_pre_spec_configs(self, config, kind, extra,
                                         expected):
        assert config_key(config, kind=kind, extra=extra) == expected

    def test_default_spec_key_equals_no_spec_key(self):
        assert config_key(_config(workload=WorkloadSpec())) == \
            config_key(_config())
        assert config_key(_config(workload=DEFAULT_WORKLOAD),
                          kind="closed") == \
            config_key(_config(), kind="closed")

    def test_non_default_specs_are_content_hashed(self):
        base = config_key(_config())
        keys = {config_key(_config(workload=spec)) for spec in (
            WorkloadSpec(arrival=MMPPArrivals()),
            WorkloadSpec(arrival=MMPPArrivals(on_factor=4.0)),
            WorkloadSpec(keys=ZipfKeysSpec()),
            WorkloadSpec(transaction=TransactionSpec(size=3)),
            # A hotspot hashes in the pre-spec form only on its own.
            WorkloadSpec(keys=HotspotKeysSpec()),
            WorkloadSpec(arrival=MMPPArrivals(), keys=HotspotKeysSpec()),
        )}
        assert len(keys) == 6
        assert base not in keys

    def test_same_non_default_spec_hashes_stably(self):
        spec = WorkloadSpec(arrival=MMPPArrivals(),
                            keys=ZipfKeysSpec(theta=0.7))
        assert config_key(_config(workload=spec)) == \
            config_key(_config(workload=WorkloadSpec(
                arrival=MMPPArrivals(), keys=ZipfKeysSpec(theta=0.7))))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:

    def test_every_component_listed_once(self):
        arrivals = all_arrival_processes()
        keys = all_key_distributions()
        assert [c.name for c in arrivals] == \
            ["poisson", "mmpp", "schedule", "spike"]
        assert [c.name for c in keys] == \
            ["uniform", "hotspot", "zipf", "migrating"]

    def test_unknown_component_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="poisson"):
            get_arrival_process("fractal")
        with pytest.raises(ConfigurationError, match="uniform"):
            get_key_distribution("gaussian")


# ----------------------------------------------------------------------
# Model-layer composition
# ----------------------------------------------------------------------
class TestEffectiveLoadModel:

    def test_poisson_is_exact_and_stationary(self):
        load = effective_load(PoissonArrivals())
        assert load.stationary
        assert load.mean_factor == pytest.approx(1.0)
        assert load.peak_factor == pytest.approx(1.0)
        assert load.burstiness == pytest.approx(0.0)
        assert load.divergence is None

    def test_mmpp_summary_is_honestly_flagged(self):
        load = effective_load(MMPPArrivals())
        assert not load.stationary
        assert load.mean_factor == pytest.approx(1.0)
        assert load.peak_factor == pytest.approx(3.0)
        assert load.burstiness > 0.0
        assert load.divergence is not None
        assert "quasi-static" in load.divergence

    def test_spike_summary_is_honestly_flagged(self):
        load = effective_load(SpikeArrivals())
        assert load.divergence is not None
        assert "transient" in load.divergence

    def test_schedule_composition_is_trusted(self):
        load = effective_load(ScheduleArrivals())
        assert not load.stationary
        assert load.divergence is None

    def test_piecewise_response_weights_segments(self):
        def analyze(config, rate):
            return SimpleNamespace(response=lambda op: rate * 10.0)
        arrival = ScheduleArrivals(segments=((100.0, 0.5), (100.0, 1.5)))
        composed = piecewise_response(analyze, None, 1.0, arrival,
                                      "insert")
        assert composed == pytest.approx(0.5 * 5.0 + 0.5 * 15.0)

    def test_piecewise_response_saturated_segment_is_infinite(self):
        def analyze(config, rate):
            value = float("inf") if rate > 1.0 else rate
            return SimpleNamespace(response=lambda op: value)
        composed = piecewise_response(analyze, None, 1.0,
                                      MMPPArrivals(), "search")
        assert composed == float("inf")
