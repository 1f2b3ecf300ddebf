# Tests for the Monte Carlo verification harness: determinism, agreement
# with the closed forms, and the beacon-field sampler.

import math

import numpy as np
import pytest

from wplink.montecarlo import (
    BLOCK,
    McConfig,
    McEstimate,
    _field_supply,
    check_prefix_equivalence,
    estimate_supply_prob_mp,
    estimate_supply_prob_single,
    sample_ppp_energies,
    truncation_radius,
)
from wplink.multi_pb import NetworkParams, StabilityError, energy_supply_prob_mp, mean_harvested
from wplink.single_pb import energy_supply_prob
from wplink.single_pb import DomainError

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
    with pytest.raises(DomainError, match="within the double range"):
        McConfig(trials=10 ** 400)


def test_same_seed_reproduces_bitwise():
    cfg = McConfig(trials=20_000, seed=42)
    a = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    b = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    assert a.mean == b.mean and a.std_err == b.std_err
    fa = sample_ppp_energies(NET, cfg, 4096)
    fb = sample_ppp_energies(NET, cfg, 4096)
    np.testing.assert_array_equal(fa, fb)


def test_streams_match_frozen_values():
    # Determinism contract v2, frozen: seed 7 with 10 000 trials spans two
    # full blocks and a partial third one. The prefix check and the field
    # sampler keep their v1 streams.
    cfg = McConfig(trials=10_000, seed=7)
    assert estimate_supply_prob_single(100, 50, 0.1, 1.0, cfg).mean == 0.9546
    assert estimate_supply_prob_mp(1500, 1000, 1.0, NET, cfg).mean == 0.1697
    assert check_prefix_equivalence(10, 20, 0.5, 1.0, cfg) == (6188, 6188)
    total = sample_ppp_energies(NET, cfg, 10_000).sum()
    assert total == pytest.approx(83091.98217185156, rel=1e-12)


def test_v2_layout_rederived_by_hand():
    # One partial block: the exponential harvest draw, then one
    # standard_gamma draw per codeword, from the block's own Philox stream.
    m, n, p_t, p_e, seed, trials = 40, 30, 0.3, 1.0, 23, 3_000
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0))
    budget = m * rng.exponential(scale=p_e, size=trials)
    energy = p_t * (2.0 * rng.standard_gamma(0.5 * n, trials))
    count = int((energy <= budget).sum())
    assert 0 < count < trials
    est = estimate_supply_prob_single(m, n, p_t, p_e, McConfig(trials=trials, seed=seed))
    assert est.mean == count / trials


def test_field_layout_rederived_by_hand():
    # One partial block of the field, from the block's own Philox stream:
    # Poisson counts, then uniform radii, then exponential fades, each
    # beacon's energy summed into its trial, plus the far-field mean. Exact,
    # so any reordering of the sampler's arithmetic shows. mu = 0.7 is not a
    # power of two, so a reordering of the mu*p_pb*fade product shows too.
    net = NetworkParams(density=1e-3, p_pb=1e3, mu=0.7, eta=3.6)
    seed, trials = 23, 3_000
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0))
    radius = truncation_radius(net)
    counts = rng.poisson(lam=net.density * math.pi * radius * radius, size=trials)
    radii = radius * np.sqrt(rng.random(int(counts.sum())))
    fades = rng.standard_exponential(radii.size)
    contrib = net.mu * net.p_pb * fades / np.maximum(1.0, radii ** net.eta)
    owner = np.repeat(np.arange(trials), counts)
    far = (
        2.0 * math.pi * net.density * net.mu * net.p_pb
        * radius ** (2.0 - net.eta) / (net.eta - 2.0)
    )
    expected = np.bincount(owner, weights=contrib, minlength=trials) + far
    assert np.array_equal(sample_ppp_energies(net, McConfig(trials=1, seed=seed), trials), expected)


def test_field_supply_shares_one_sample():
    # Seed 7 with 10 000 trials: two full blocks and a partial one. The
    # supply estimate draws each block's harvest first from the block's own
    # key, so its harvest is the field sample itself, bit for bit.
    cfg = McConfig(trials=10_000, seed=7)
    est, energies = _field_supply(1500, 1000, 1.0, NET, cfg)
    assert np.array_equal(energies, sample_ppp_energies(NET, cfg, 10_000))
    assert est == estimate_supply_prob_mp(1500, 1000, 1.0, NET, cfg)


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


@pytest.mark.parametrize("m, n, a", [(2, 1, 3.0), (10, 7, 1.0), (1000, 10 ** 6, 7e-4)])
def test_single_supply_matches_closed_form_at_any_n(m, n, a):
    # (1 + 2a/m)^(-n/2) holds for any n >= 1, odd or far past the symbol
    # path's reach (10**6 symbols per trial)
    est = estimate_supply_prob_single(m, n, a, 1.0, McConfig(trials=100_000, seed=0))
    truth = (1.0 + 2.0 * a / m) ** (-n / 2)
    assert 0.05 < truth < 0.95
    assert _z(est, truth) < 3.0


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


def test_truncation_radius_overflow_is_stability_error():
    with pytest.raises(StabilityError, match="sampling radius overflows"):
        truncation_radius(NetworkParams(density=1e-3, p_pb=1e3, eta=2.01))


@pytest.mark.parametrize(
    "density, eta",
    [(1e-3, 2.2), (1e100, 3.6), (1e-3, 3.0)],
    ids=["poisson-overflow", "dense", "block-too-large"],
)
def test_too_dense_field_is_stability_error(density, eta):
    # refused before any draw: the expected beacons of one full block pass
    # the cap
    net = NetworkParams(density=density, p_pb=1e3, eta=eta)
    cfg = McConfig(trials=BLOCK, seed=0)
    with pytest.raises(StabilityError, match="field too dense to sample"):
        sample_ppp_energies(net, cfg, BLOCK)
    with pytest.raises(StabilityError, match="field too dense to sample"):
        estimate_supply_prob_mp(100, 10, 1.0, net, cfg)


def test_block_cap_counts_only_the_trials_drawn():
    # at eta = 3 a full block expects 5.7e8 beacons, a single trial 1.4e5
    net = NetworkParams(density=1e-3, p_pb=1e3, eta=3.0)
    assert sample_ppp_energies(net, McConfig(trials=1, seed=0), 1).shape == (1,)


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
