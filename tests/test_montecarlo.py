# Tests for the Monte Carlo verification harness: determinism, agreement
# with the closed forms, and the beacon-field sampler.

import math

import numpy as np
import pytest

from wplink.montecarlo import (
    McConfig,
    McEstimate,
    check_prefix_equivalence,
    estimate_supply_prob_mp,
    estimate_supply_prob_single,
    sample_ppp_energies,
    truncation_radius,
)
from wplink.multi_pb import NetworkParams, energy_supply_prob_mp, mean_harvested
from wplink.single_pb import energy_supply_prob
from wplink.specfun import DomainError

NET = NetworkParams(density=1e-3, p_pb=1e3, mu=1.0, eta=3.6)


def _z(est: McEstimate, truth: float) -> float:
    return abs(est.mean - truth) / max(est.std_err, 1e-12)


# ----------------------------------------------------------------
# Configuration and determinism


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(trials=0)
    with pytest.raises(DomainError):
        McConfig(trials=100, seed=-1)


def test_same_seed_reproduces_bitwise():
    cfg = McConfig(trials=20_000, seed=42)
    a = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    b = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    assert a.mean == b.mean and a.std_err == b.std_err
    fa = sample_ppp_energies(NET, cfg, 4096)
    fb = sample_ppp_energies(NET, cfg, 4096)
    np.testing.assert_array_equal(fa, fb)


def test_streams_match_frozen_values():
    # Determinism contract v1, frozen: seed 7 with 10 000 trials spans two
    # full blocks and a partial third one.
    cfg = McConfig(trials=10_000, seed=7)
    assert estimate_supply_prob_single(100, 50, 0.1, 1.0, cfg).mean == 0.9546
    assert estimate_supply_prob_mp(1500, 1000, 1.0, NET, cfg).mean == 0.1705
    assert check_prefix_equivalence(10, 20, 0.5, 1.0, cfg) == (6188, 6188)
    total = sample_ppp_energies(NET, cfg, 10_000).sum()
    assert total == pytest.approx(83091.98217185156, rel=1e-12)


def test_different_seeds_differ():
    a = estimate_supply_prob_single(50, 20, 0.2, 1.0, McConfig(trials=20_000, seed=1))
    b = estimate_supply_prob_single(50, 20, 0.2, 1.0, McConfig(trials=20_000, seed=2))
    assert a.mean != b.mean


def test_estimate_carries_run_metadata():
    cfg = McConfig(trials=5_000, seed=9)
    est = estimate_supply_prob_single(10, 10, 0.1, 1.0, cfg)
    assert est.trials == 5_000 and est.seed == 9
    assert est.std_err <= 0.5 / math.sqrt(5_000)


# ----------------------------------------------------------------
# Single-beacon supply probability


def test_single_supply_matches_closed_form():
    cfg = McConfig(trials=100_000, seed=0)
    for m, n, a in ((100, 50, 0.1), (2, 2, 1.0), (10, 100, 0.05)):
        est = estimate_supply_prob_single(m, n, a, 1.0, cfg)
        assert _z(est, energy_supply_prob(m, n, a)) < 3.0


def test_single_supply_zero_power_is_certain():
    est = estimate_supply_prob_single(10, 10, 0.0, 1.0, McConfig(trials=1_000))
    assert est.mean == 1.0 and est.std_err == 0.0


def test_prefix_and_final_violation_counts_match():
    # Cumulative symbol energy is non-decreasing, so a violated prefix
    # implies a violated final sum and vice versa, trial by trial.
    cfg = McConfig(trials=50_000, seed=3)
    prefix_bad, final_bad = check_prefix_equivalence(10, 20, 0.5, 1.0, cfg)
    assert prefix_bad == final_bad
    assert 0 < final_bad < 50_000


def test_prefix_counts_zero_power():
    # a free codeword can never violate the budget
    prefix_bad, final_bad = check_prefix_equivalence(5, 4, 0.0, 1.0, McConfig(trials=100))
    assert prefix_bad == final_bad == 0


# ----------------------------------------------------------------
# Beacon-field sampler


def test_truncation_radius_formula():
    tail = 1e-4  # the fixed far-field tail budget
    r = truncation_radius(NET)
    assert r == pytest.approx((2.0 / (NET.eta * tail)) ** (1.0 / (NET.eta - 2.0)))
    # radius is a pure function of eta
    other = NetworkParams(density=0.5, p_pb=7.0, mu=0.3, eta=NET.eta)
    assert truncation_radius(other) == r
    # never collapses below the unit disc where path loss saturates
    assert truncation_radius(NetworkParams(density=1e-3, p_pb=1e3, eta=1e5)) == 1.0


def test_ppp_mean_matches_closed_form():
    cfg = McConfig(trials=1, seed=11)
    samples = sample_ppp_energies(NET, cfg, 20_000)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - mean_harvested(NET)) < 3.0 * se


def test_ppp_vanishing_density_yields_vanishing_energy():
    ghost = NetworkParams(density=1e-15, p_pb=1e3, mu=1.0, eta=3.6)
    samples = sample_ppp_energies(ghost, McConfig(trials=1, seed=5), 2_000)
    # almost surely no beacon lands in the truncated disc; only the tiny
    # deterministic far-field mean remains
    assert np.all(samples >= 0.0)
    assert samples.max() < 1e-10


def test_ppp_denser_field_harvests_more():
    # paired seeds: doubling the density adds beacons without removing any
    cfg = McConfig(trials=1, seed=17)
    base = sample_ppp_energies(NET, cfg, 5_000).mean()
    denser = NetworkParams(density=2e-3, p_pb=1e3, mu=1.0, eta=3.6)
    more = sample_ppp_energies(denser, cfg, 5_000).mean()
    assert more > base


def test_field_supply_matches_series():
    cfg = McConfig(trials=40_000, seed=0)
    m, n, p_t = 1500, 1000, 1.0
    est = estimate_supply_prob_mp(m, n, p_t, NET, cfg)
    assert _z(est, energy_supply_prob_mp(m, n, p_t, NET)) < 3.0


def test_field_supply_zero_power():
    est = estimate_supply_prob_mp(10, 10, 0.0, NET, McConfig(trials=500))
    assert est.mean == 1.0 and est.std_err == 0.0
