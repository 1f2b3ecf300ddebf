"""Stochastic oracles for the closed forms.

Every estimator here simulates the model directly — exponential energy
packets or a planar Poisson beacon field, and codeword energy as a sum of
squared Gaussian symbols — so agreement with the analytic modules is
evidence, not circularity.

Determinism contract v1: draws come from counter-based Philox streams.
Trials are processed in fixed blocks of :data:`BLOCK` trials; block ``b`` of
seed ``s`` uses the 128-bit key ``(s << 64) | b``, and within a block the
draw order is fixed (energy variables first, then channel symbols in chunks
of 256). Estimates are therefore bit-identical for a given (seed,
parameters) regardless of how blocks are scheduled. Every stream comes from
one generator of blocks, :func:`_blocks`, and every codeword from
:func:`_codeword_energies`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multi_pb import NetworkParams
from .single_pb import _check_count, _check_positive, _check_power
from .specfun import DomainError

__all__ = [
    "BLOCK",
    "McConfig",
    "McEstimate",
    "estimate_supply_prob_single",
    "check_prefix_equivalence",
    "truncation_radius",
    "sample_ppp_energies",
    "estimate_supply_prob_mp",
]

BLOCK = 4096
_SYMBOL_CHUNK = 256

# For Poisson-field sampling, the admissible ratio of neglected far-field
# mean energy to the total mean (see truncation_radius).
_TRUNCATION_TAIL = 1e-4


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration.

    Attributes:
        trials: Number of independent trials (>= 1).
        seed: 64-bit unsigned stream identifier.
    """

    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("trials", self.trials)
        if not _check_count("seed", self.seed, 0) < 2 ** 64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its binomial standard error."""

    mean: float
    std_err: float
    trials: int
    seed: int


def _blocks(seed: int, trials: int):
    """(generator, size) for each block of ``trials`` under the determinism
    contract: block b of seed s draws from the Philox key (s << 64) | b."""
    for block, start in enumerate(range(0, trials, BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | block))
        yield rng, min(BLOCK, trials - start)


def _check_frame(m: int, n: int, p_t: float) -> tuple[int, int]:
    """Slot counts >= 1 (a chi-squared(n) energy needs no even n) and p_t."""
    _check_power(p_t)
    return _check_count("harvest blocklength m", m), _check_count("transmit blocklength n", n)


def _codeword_energies(
    rng: np.random.Generator, size: int, n: int, p_t: float, budget: np.ndarray | None
):
    """Total codeword energy per trial; optionally also prefix violations.

    Symbols are drawn as standard normals in fixed chunks and squared, so
    the per-trial energy is p_t times a chi-squared(n) sum. When ``budget``
    is given, also reports whether any running prefix of the cumulative
    energy exceeded it (possible only where the total does, since the
    cumulative energy never decreases).
    """
    total = np.zeros(size)
    prefix_violated = np.zeros(size, dtype=bool) if budget is not None else None
    done = 0
    while done < n:
        chunk = min(_SYMBOL_CHUNK, n - done)
        x = rng.standard_normal((size, chunk))
        energies = p_t * np.square(x)
        if budget is not None:
            running = total[:, None] + np.cumsum(energies, axis=1)
            prefix_violated |= (running > budget[:, None]).any(axis=1)
        total += energies.sum(axis=1)
        done += chunk
    return total, prefix_violated


def _supply_estimate(m: int, n: int, p_t: float, cfg: McConfig, harvest) -> McEstimate:
    """Fraction of trials in which ``m`` slots of harvested energy cover the
    codeword, with its binomial standard error.

    Per block, ``harvest(rng, size)`` draws the per-slot energies first;
    the codeword symbols follow from the same stream.
    """
    count = 0
    for rng, size in _blocks(cfg.seed, cfg.trials):
        budget = m * harvest(rng, size)
        total, _ = _codeword_energies(rng, size, n, p_t, None)
        count += int((total <= budget).sum())
    p = count / cfg.trials
    return McEstimate(
        mean=p,
        std_err=math.sqrt(p * (1.0 - p) / cfg.trials),
        trials=cfg.trials,
        seed=cfg.seed,
    )


def estimate_supply_prob_single(
    m: int, n: int, p_t: float, p_e: float, cfg: McConfig
) -> McEstimate:
    """Empirical probability that harvested energy covers the codeword.

    Per trial: one exponential energy packet of mean ``p_e`` scaled by the
    ``m`` harvesting slots, against the summed squared-Gaussian symbol
    energies of an ``n``-slot codeword at power ``p_t``.
    """
    m, n = _check_frame(m, n, p_t)
    _check_positive("p_e", p_e)
    return _supply_estimate(
        m, n, p_t, cfg, lambda rng, size: rng.exponential(scale=p_e, size=size)
    )


def check_prefix_equivalence(
    m: int, n: int, p_t: float, p_e: float, cfg: McConfig
) -> tuple[int, int]:
    """Count prefix-sum energy violations against final-sum violations.

    Returns (trials where some prefix exceeded the budget, trials where the
    final total exceeded it). Cumulative symbol energy is non-decreasing,
    so the two counts must agree exactly — checked trial by trial here
    rather than assumed.
    """
    m, n = _check_frame(m, n, p_t)
    _check_positive("p_e", p_e)
    prefix_count = 0
    final_count = 0
    for rng, size in _blocks(cfg.seed, cfg.trials):
        budget = m * rng.exponential(scale=p_e, size=size)
        total, prefix_violated = _codeword_energies(rng, size, n, p_t, budget)
        prefix_count += int(prefix_violated.sum())
        final_count += int((total > budget).sum())
    return prefix_count, final_count


def truncation_radius(net: NetworkParams) -> float:
    """Sampling disk radius keeping the neglected far-field mean small.

    Beacons beyond radius R contribute mean energy
    2*pi*density*mu*p_pb*R^(2-eta)/(eta-2); requiring that to be at most
    :data:`_TRUNCATION_TAIL` of the total mean gives
    R = (2/(eta*tail))^(1/(eta-2)), independent of density and beacon power.
    Never below the unit disk.
    """
    r = (2.0 / (net.eta * _TRUNCATION_TAIL)) ** (1.0 / (net.eta - 2.0))
    return max(r, 1.0)


def _far_field_mean(net: NetworkParams, radius: float) -> float:
    """Mean energy of the beacons beyond the sampling disk."""
    return (
        2.0 * math.pi * net.density * net.mu * net.p_pb
        * radius ** (2.0 - net.eta) / (net.eta - 2.0)
    )


def _ppp_block(rng: np.random.Generator, size: int, net: NetworkParams, radius: float) -> np.ndarray:
    """One block of per-slot harvested energies from the beacon field.

    Beacons beyond the sampling disk are folded in as their deterministic
    mean: their variance decays like R^(2-2*eta), so at the default radius
    the replacement error is far below Monte Carlo noise, while dropping
    them entirely would bias every estimate low by the tail mean.
    """
    counts = rng.poisson(lam=net.density * math.pi * radius * radius, size=size)
    points = int(counts.sum())
    # Uniform placement in the disk, then unit-mean exponential fades.
    radii = radius * np.sqrt(rng.random(points))
    fades = rng.standard_exponential(points)
    contrib = net.mu * net.p_pb * fades / np.maximum(1.0, radii ** net.eta)
    owner = np.repeat(np.arange(size), counts)
    return np.bincount(owner, weights=contrib, minlength=size) + _far_field_mean(net, radius)


def sample_ppp_energies(net: NetworkParams, cfg: McConfig, count: int) -> np.ndarray:
    """Batch of ``count`` per-slot harvested energy draws (deterministic)."""
    count = _check_count("count", count)
    radius = truncation_radius(net)
    blocks = _blocks(cfg.seed, count)
    return np.concatenate([_ppp_block(rng, size, net, radius) for rng, size in blocks])


def estimate_supply_prob_mp(
    m: int, n: int, p_t: float, net: NetworkParams, cfg: McConfig
) -> McEstimate:
    """Empirical supply probability for the Poisson-field link.

    Per trial: one beacon-field energy draw scaled by the ``m`` harvesting
    slots, against a chi-squared(n) codeword energy at power ``p_t``.
    """
    m, n = _check_frame(m, n, p_t)
    radius = truncation_radius(net)
    return _supply_estimate(m, n, p_t, cfg, lambda rng, size: _ppp_block(rng, size, net, radius))
