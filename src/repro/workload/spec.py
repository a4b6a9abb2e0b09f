"""Declarative workload specifications.

A :class:`WorkloadSpec` is a frozen, picklable, content-hashable
description of *who arrives when and asks for what*: an
:class:`ArrivalSpec` (the arrival process), a :class:`KeySpec` (the key
distribution) and a :class:`TransactionSpec` (how many consecutive
operations one arrival bundles under held transaction locks).  Specs
carry no RNG state — the drivers build runtime samplers from them (see
:mod:`repro.workload.arrivals`, :mod:`repro.workload.keys` and
:mod:`repro.workload.runtime`), so the same spec replayed under the
same seed draws the identical stream.

Arrival-process rates are expressed as dimensionless *factors* applied
to ``SimulationConfig.arrival_rate``: the config's rate stays the
single load knob a sweep varies, and a spec describes the *shape* of
the traffic around it (``PoissonArrivals()`` is factor 1 everywhere —
today's stationary stream).

``DEFAULT_WORKLOAD`` (`WorkloadSpec()` with every default) is the
paper's workload and the default of ``SimulationConfig.workload``.  It
and a bare ``WorkloadSpec(keys=HotspotKeysSpec(f, p))`` hash into
result-cache keys exactly as configs did before key skew moved into the
spec (:func:`repro.parallel.cache.config_key`), so older cached results
stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalSpec",
    "PoissonArrivals",
    "MMPPArrivals",
    "ScheduleArrivals",
    "SpikeArrivals",
    "KeySpec",
    "UniformKeysSpec",
    "HotspotKeysSpec",
    "ZipfKeysSpec",
    "MigratingHotspotKeysSpec",
    "TransactionSpec",
    "WorkloadSpec",
    "DEFAULT_WORKLOAD",
    "mix_thresholds",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


# ---------------------------------------------------------------------------
# Arrival processes


@dataclass(frozen=True)
class ArrivalSpec:
    """Base of the arrival-process specs.

    ``kind`` names the process in the registry / CLI listing.
    """

    kind: ClassVar[str] = "arrival"

    def build(self, rate: float, rng):
        """A runtime sampler for this process at base ``rate``."""
        raise NotImplementedError

    def factor_segments(self) -> Tuple[Tuple[float, float], ...]:
        """``(weight, factor)`` pairs describing the process as a
        piecewise-stationary mixture (weights sum to 1).  The model
        layer composes per-segment M/G/1 responses over these."""
        raise NotImplementedError

    def mean_factor(self) -> float:
        """Time-averaged rate factor of the process."""
        return sum(w * f for w, f in self.factor_segments())

    def stationary(self) -> bool:
        """True when the process is a plain Poisson stream (the regime
        the paper's Theorems 1-6 assume)."""
        return len(self.factor_segments()) == 1


@dataclass(frozen=True)
class PoissonArrivals(ArrivalSpec):
    """Stationary Poisson arrivals — the paper's (and the legacy
    driver's) process, at exactly ``config.arrival_rate``."""

    kind: ClassVar[str] = "poisson"

    def build(self, rate: float, rng):
        from repro.workload.arrivals import PoissonSampler
        return PoissonSampler(rate, rng)

    def factor_segments(self) -> Tuple[Tuple[float, float], ...]:
        return ((1.0, 1.0),)


@dataclass(frozen=True)
class MMPPArrivals(ArrivalSpec):
    """Two-state Markov-modulated Poisson process (ON/OFF bursts).

    The stream alternates between an ON state (rate ``on_factor`` x
    the base rate, mean sojourn ``mean_on``) and an OFF state
    (``off_factor`` x base, mean sojourn ``mean_off``); sojourns are
    exponential.  The defaults are mean-preserving: the time-averaged
    factor is 1.0, so an MMPP sweep stresses *burstiness* at the same
    offered load as the stationary baseline.
    """

    kind: ClassVar[str] = "mmpp"

    on_factor: float = 3.0
    off_factor: float = 0.5
    mean_on: float = 50.0
    mean_off: float = 200.0

    def __post_init__(self) -> None:
        _require(self.on_factor >= 0.0 and self.off_factor >= 0.0,
                 "MMPP rate factors must be >= 0")
        _require(self.on_factor > 0.0 or self.off_factor > 0.0,
                 "MMPP needs a positive rate in at least one state")
        _require(self.mean_on > 0.0 and self.mean_off > 0.0,
                 "MMPP mean sojourn times must be positive")

    def build(self, rate: float, rng):
        from repro.workload.arrivals import MMPPSampler
        return MMPPSampler(rate, rng, self)

    def factor_segments(self) -> Tuple[Tuple[float, float], ...]:
        total = self.mean_on + self.mean_off
        return ((self.mean_on / total, self.on_factor),
                (self.mean_off / total, self.off_factor))


@dataclass(frozen=True)
class ScheduleArrivals(ArrivalSpec):
    """Piecewise-constant (diurnal) rate schedule, cycling forever.

    ``segments`` is a tuple of ``(duration, factor)`` pairs in
    simulated time.  Zero-duration segments are permitted and skipped
    (convenient when a schedule is generated programmatically).
    """

    kind: ClassVar[str] = "schedule"

    segments: Tuple[Tuple[float, float], ...] = (
        (200.0, 0.5), (200.0, 1.5))

    def __post_init__(self) -> None:
        _require(len(self.segments) > 0, "schedule needs >= 1 segment")
        for duration, factor in self.segments:
            _require(duration >= 0.0 and math.isfinite(duration),
                     f"segment duration must be finite and >= 0, "
                     f"got {duration}")
            _require(factor >= 0.0 and math.isfinite(factor),
                     f"segment rate factor must be finite and >= 0, "
                     f"got {factor}")
        live = [(d, f) for d, f in self.segments if d > 0.0]
        _require(bool(live), "schedule needs a positive-duration segment")
        _require(any(f > 0.0 for _, f in live),
                 "schedule needs a positive rate in some segment")

    def live_segments(self) -> Tuple[Tuple[float, float], ...]:
        """The segments with positive duration, in order."""
        return tuple((d, f) for d, f in self.segments if d > 0.0)

    def build(self, rate: float, rng):
        from repro.workload.arrivals import PiecewiseSampler
        return PiecewiseSampler(rate, rng, self.live_segments(),
                                cycle=True)

    def factor_segments(self) -> Tuple[Tuple[float, float], ...]:
        live = self.live_segments()
        total = sum(d for d, _ in live)
        return tuple((d / total, f) for d, f in live)


@dataclass(frozen=True)
class SpikeArrivals(ArrivalSpec):
    """Flash-crowd spike: base-rate Poisson with one transient burst of
    ``multiplier`` x the base rate during ``[start, start + duration)``.

    Transient by construction (never repeats), so a pre-drawn
    stationary stream cannot represent it.
    """

    kind: ClassVar[str] = "spike"

    multiplier: float = 8.0
    start: float = 200.0
    duration: float = 100.0

    def __post_init__(self) -> None:
        _require(self.multiplier > 0.0 and math.isfinite(self.multiplier),
                 "spike multiplier must be positive and finite")
        _require(self.start >= 0.0, "spike start must be >= 0")
        _require(self.duration > 0.0 and math.isfinite(self.duration),
                 "spike duration must be positive and finite")

    def build(self, rate: float, rng):
        from repro.workload.arrivals import PiecewiseSampler
        head = []
        if self.start > 0.0:
            head.append((self.start, 1.0))
        head.append((self.duration, self.multiplier))
        return PiecewiseSampler(rate, rng, tuple(head), cycle=False,
                                tail_factor=1.0)

    def factor_segments(self) -> Tuple[Tuple[float, float], ...]:
        # The spike is transient; weight it over one "incident window"
        # of 10x its duration around the burst, the scale on which its
        # queueing impact is felt.
        return ((0.9, 1.0), (0.1, self.multiplier))


# ---------------------------------------------------------------------------
# Key distributions


@dataclass(frozen=True)
class KeySpec:
    """Base of the key-distribution specs."""

    kind: ClassVar[str] = "keys"

    def build(self, key_space: int, rng):
        """A runtime :class:`~repro.workload.keys.KeyPicker`."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformKeysSpec(KeySpec):
    """Uniform keys over ``[0, key_space)`` — the paper's workload."""

    kind: ClassVar[str] = "uniform"

    def build(self, key_space: int, rng):
        from repro.workload.keys import UniformKeys
        return UniformKeys(key_space, rng)


@dataclass(frozen=True)
class HotspotKeysSpec(KeySpec):
    """Static hotspot: ``hot_probability`` of the accesses target the
    first ``hot_fraction`` of the key space (default 80/20)."""

    kind: ClassVar[str] = "hotspot"

    hot_fraction: float = 0.2
    hot_probability: float = 0.8

    def __post_init__(self) -> None:
        _require(0.0 < self.hot_fraction < 1.0,
                 "hot_fraction must be in (0, 1)")
        _require(0.0 <= self.hot_probability <= 1.0,
                 "hot_probability must be in [0, 1]")

    def build(self, key_space: int, rng):
        from repro.workload.keys import HotspotKeys
        return HotspotKeys(key_space, rng,
                           hot_fraction=self.hot_fraction,
                           hot_probability=self.hot_probability)


@dataclass(frozen=True)
class ZipfKeysSpec(KeySpec):
    """Zipf-like skew via the continuous bounded-Pareto inverse CDF
    (density proportional to ``x**-theta`` over the key space).

    ``theta`` in ``(0, 1)`` controls the skew (0 -> uniform, 0.99 ->
    YCSB-style heavy skew).  By default the hot mass sits on the low
    keys (a contiguous hot subtree, comparable to the hotspot picker);
    ``scramble=True`` applies a Fibonacci-hash permutation so the hot
    keys scatter across the whole space instead.
    """

    kind: ClassVar[str] = "zipf"

    theta: float = 0.9
    scramble: bool = False

    def __post_init__(self) -> None:
        _require(0.0 < self.theta < 1.0, "zipf theta must be in (0, 1)")

    def build(self, key_space: int, rng):
        from repro.workload.keys import ZipfKeys
        return ZipfKeys(key_space, rng, theta=self.theta,
                        scramble=self.scramble)


@dataclass(frozen=True)
class MigratingHotspotKeysSpec(KeySpec):
    """A hotspot whose center drifts over *simulated time*.

    The hot range starts at fraction ``center_start`` of the key space
    and moves by ``velocity`` key-space fractions per simulated time
    unit (wrapping modulo the space), modelling attention shifting
    across the keyspace.  Time-dependent, so a pre-drawn
    stationary stream cannot represent it.
    """

    kind: ClassVar[str] = "migrating"

    hot_fraction: float = 0.2
    hot_probability: float = 0.8
    center_start: float = 0.0
    velocity: float = 1e-3

    def __post_init__(self) -> None:
        _require(0.0 < self.hot_fraction < 1.0,
                 "hot_fraction must be in (0, 1)")
        _require(0.0 <= self.hot_probability <= 1.0,
                 "hot_probability must be in [0, 1]")
        _require(0.0 <= self.center_start < 1.0,
                 "center_start must be in [0, 1)")
        _require(math.isfinite(self.velocity),
                 "velocity must be finite")

    def build(self, key_space: int, rng):
        from repro.workload.keys import MigratingHotspotKeys
        return MigratingHotspotKeys(
            key_space, rng, hot_fraction=self.hot_fraction,
            hot_probability=self.hot_probability,
            center_start=self.center_start, velocity=self.velocity)


# ---------------------------------------------------------------------------
# Transactions


@dataclass(frozen=True)
class TransactionSpec:
    """Multi-operation transaction envelope.

    ``size`` consecutive operations execute under one envelope that
    acquires per-key transaction locks (reads share, updates exclude)
    for *all* member keys up front — in sorted key order, so envelopes
    never deadlock — and holds them until the last member completes.
    ``size=1`` is the legacy behaviour: independent operations, no
    transaction locks, bit-identical to the pre-workload driver.
    """

    size: int = 1

    def __post_init__(self) -> None:
        _require(self.size >= 1, "transaction size must be >= 1")


# ---------------------------------------------------------------------------
# The composite spec


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: arrival process + key distribution + transactions.

    Frozen and content-hashable: the ``workload`` of every
    :class:`~repro.simulator.config.SimulationConfig` (default
    :data:`DEFAULT_WORKLOAD`).  The result-cache key folds in any spec
    except the default and a bare hotspot, which hash in the pre-spec
    form (see :func:`repro.parallel.cache.config_key`).
    """

    arrival: ArrivalSpec = field(default_factory=PoissonArrivals)
    keys: KeySpec = field(default_factory=UniformKeysSpec)
    transaction: TransactionSpec = field(default_factory=TransactionSpec)

    def __post_init__(self) -> None:
        _require(isinstance(self.arrival, ArrivalSpec),
                 f"arrival must be an ArrivalSpec, "
                 f"got {type(self.arrival).__name__}")
        _require(isinstance(self.keys, KeySpec),
                 f"keys must be a KeySpec, got {type(self.keys).__name__}")
        _require(isinstance(self.transaction, TransactionSpec),
                 f"transaction must be a TransactionSpec, "
                 f"got {type(self.transaction).__name__}")

    def is_default(self) -> bool:
        """True when this is the paper's workload (stationary Poisson,
        uniform keys, single operations)."""
        return self == DEFAULT_WORKLOAD


#: The paper's workload: stationary Poisson, uniform keys,
#: single-operation transactions.
DEFAULT_WORKLOAD = WorkloadSpec()


def mix_thresholds(mix) -> Tuple[float, float]:
    """The cumulative draw thresholds ``(q_s, q_s + q_i)`` of an
    operation mix, validated once per run.

    The drivers hoist this out of their per-arrival loops: an invalid
    mix (probabilities not summing to 1 — possible when a mix object
    was built around :class:`~repro.model.params.OperationMix`'s own
    validation) raises a structured
    :class:`~repro.errors.ConfigurationError` naming the offending mix
    up front instead of silently skewing draws deep in the arrival
    loop.
    """
    q_search, q_insert, q_delete = \
        mix.q_search, mix.q_insert, mix.q_delete
    total = q_search + q_insert + q_delete
    if not (min(q_search, q_insert, q_delete) >= 0.0
            and math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9)):
        raise ConfigurationError(
            f"operation mix (q_search={q_search}, q_insert={q_insert}, "
            f"q_delete={q_delete}) sums to {total}, not 1")
    return q_search, q_search + q_insert

