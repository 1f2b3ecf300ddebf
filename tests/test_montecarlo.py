# Tests for the Monte Carlo verification harness: determinism, agreement
# with the closed forms, and the beacon-field sampler.

import math
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from wplink import montecarlo
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
    # 1e300 trials passed the count check, and the block map's list of one
    # slot per block then raised a bare OverflowError
    assert McConfig(trials=10 ** 9).trials == 10 ** 9
    # the trial count printed with 6 digits, as 1e+09, read as the cap itself
    for trials, shown in ((10 ** 9 + 1, "1000000001"), (10 ** 300, "1e[+]300")):
        with pytest.raises(DomainError, match=f"trials must be at most 1e[+]09, got {shown}$"):
            McConfig(trials=trials)
    with pytest.raises(DomainError, match="count must be at most 1e[+]09, got 1e[+]300"):
        sample_ppp_energies(NET, McConfig(trials=1), 10 ** 300)


def test_same_seed_reproduces_bitwise():
    cfg = McConfig(trials=20_000, seed=42)
    a = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    b = estimate_supply_prob_single(50, 20, 0.2, 1.0, cfg)
    assert a.mean == b.mean and a.std_err == b.std_err
    fa = sample_ppp_energies(NET, cfg, 4096)
    fb = sample_ppp_energies(NET, cfg, 4096)
    np.testing.assert_array_equal(fa, fb)


def test_streams_match_frozen_values():
    # Determinism contract v3, frozen: seed 7 with 10 000 trials spans two
    # full blocks and a partial third one. The prefix check keeps its v1
    # stream, the single-beacon estimator its v2 stream; the field values
    # are v3's. These pins also trip if NumPy changes a Generator
    # algorithm, which NEP 19 allows between feature releases.
    cfg = McConfig(trials=10_000, seed=7)
    assert estimate_supply_prob_single(100, 50, 0.1, 1.0, cfg).mean == 0.9546
    assert estimate_supply_prob_mp(1500, 1000, 1.0, NET, cfg).mean == 0.1699
    assert check_prefix_equivalence(10, 20, 0.5, 1.0, cfg) == (6188, 6188)
    total = sample_ppp_energies(NET, cfg, 10_000).sum()
    assert total == pytest.approx(71985.08996374073, rel=1e-12)


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


def _field_by_hand(rng, net, radius, trials):
    """One block of the field drawn in contract v3's order: Poisson counts,
    then uniform radii, then exponential fades, each beacon's energy summed
    into its trial, then one gamma far-field variate per trial. Returns the
    energies and the beacon counts."""
    counts = rng.poisson(lam=net.density * math.pi * radius * radius, size=trials)
    radii = radius * np.sqrt(rng.random(int(counts.sum())))
    fades = rng.standard_exponential(radii.size)
    contrib = net.mu * net.p_pb * fades / np.maximum(1.0, radii ** net.eta)
    owner = np.repeat(np.arange(trials), counts)
    eta = net.eta
    per_trial = net.density * math.pi * radius * radius
    shape = 2.0 * per_trial / (eta - 2.0) * ((eta - 1.0) / (eta - 2.0))
    scale = net.mu * net.p_pb * radius ** -eta * ((eta - 2.0) / (eta - 1.0))
    far = scale * rng.standard_gamma(shape, trials)
    return np.bincount(owner, weights=contrib, minlength=trials) + far, counts


def test_field_layout_rederived_by_hand():
    # One partial block of the field, from the block's own Philox stream.
    # Exact, so any reordering of the sampler's draws or arithmetic shows.
    # mu = 0.7 is not a power of two, so a reordering of the mu*p_pb*fade
    # product shows too.
    net = NetworkParams(density=1e-3, p_pb=1e3, mu=0.7, eta=3.6)
    seed, trials = 23, 3_000
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0))
    expected, _ = _field_by_hand(rng, net, truncation_radius(net), trials)
    assert np.array_equal(sample_ppp_energies(net, McConfig(trials=1, seed=seed), trials), expected)


@pytest.mark.parametrize(
    "density, disk_beacons, trials",
    [(6e3, 50, 30), (1e-3, 0.15, 3_000)],
    ids=["trial-over-chunk", "mostly-empty"],
)
def test_field_layout_rederived_by_hand_at_chunk_edges(
    monkeypatch, density, disk_beacons, trials
):
    # The sampler draws the fades in chunks of whole trials. At density 6e3
    # the disk is the unit disk and each trial holds about 1.9e4 beacons,
    # more than one chunk. A disk of 50 beacons is almost never empty, so
    # the second case shrinks it to 0.15, where about six trials in seven
    # hold none. The whole-block derivation must still match exactly.
    monkeypatch.setattr(montecarlo, "_DISK_BEACONS", disk_beacons)
    net = NetworkParams(density=density, p_pb=1e3, mu=0.7, eta=3.6)
    seed = 23
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0))
    radius = truncation_radius(net)
    expected, counts = _field_by_hand(rng, net, radius, trials)
    if disk_beacons == 50:
        assert radius == 1.0 and counts.min() > montecarlo._FADE_CHUNK
    else:
        assert (counts == 0).mean() > 0.8
    assert np.array_equal(sample_ppp_energies(net, McConfig(trials=1, seed=seed), trials), expected)


def test_field_supply_shares_one_sample():
    # Seed 7 with 10 000 trials: two full blocks and a partial one. The
    # supply estimate draws each block's harvest first from the block's own
    # key, so its harvest is the field sample itself, bit for bit.
    cfg = McConfig(trials=10_000, seed=7)
    est, energies = _field_supply(1500, 1000, 1.0, NET, cfg)
    assert np.array_equal(energies, sample_ppp_energies(NET, cfg, 10_000))
    assert est == estimate_supply_prob_mp(1500, 1000, 1.0, NET, cfg)


def _every_stream(monkeypatch, cpus: int) -> tuple:
    """Every estimator at seed 7 over five full blocks and a partial one,
    with ``cpus`` block workers, and the number of threads that drew the
    field in each of its three calls. The memory budget is lifted so that
    the field, too, runs on ``cpus`` workers."""
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_MEMORY_IN_FLIGHT", 2 ** 30)
    drawn_on = []
    ppp_block = montecarlo._ppp_block

    def recording_ppp_block(*args):
        drawn_on[-1].add(threading.get_ident())
        return ppp_block(*args)

    def field_call(call, *args):
        drawn_on.append(set())
        return call(*args)

    monkeypatch.setattr(montecarlo, "_ppp_block", recording_ppp_block)
    cfg = McConfig(trials=5 * BLOCK + 1_000, seed=7)
    streams = (
        estimate_supply_prob_single(100, 50, 0.1, 1.0, cfg),
        field_call(estimate_supply_prob_mp, 1500, 1000, 1.0, NET, cfg),
        check_prefix_equivalence(10, 20, 0.5, 1.0, cfg),
        field_call(sample_ppp_energies, NET, cfg, cfg.trials),
        *field_call(_field_supply, 1500, 1000, 1.0, NET, cfg),
    )
    return streams, [len(threads) for threads in drawn_on]


def test_streams_do_not_depend_on_the_thread_count(monkeypatch):
    serial, serial_threads = _every_stream(monkeypatch, 1)
    # more workers than this host may have cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, threads = _every_stream(monkeypatch, 3)
    finally:
        sys.setswitchinterval(interval)
    assert serial_threads == [1, 1, 1] and threads == [3, 3, 3]
    for a, b in zip(serial, threaded, strict=True):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    # the kept field energies come back in block order
    energies = threaded[-1]
    radius = truncation_radius(NET)
    for block, start in enumerate(range(0, energies.size, BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=(7 << 64) | block))
        size = min(BLOCK, energies.size - start)
        alone = montecarlo._ppp_block(rng, size, {}, NET, radius)
        assert np.array_equal(energies[start:start + size], alone)


def test_failed_block_stops_the_other_worker(monkeypatch):
    # Two workers: worker 0, the calling thread, runs blocks 0, 2, 4, ...,
    # worker 1 blocks 1, 3, 5, .... Block 2 fails. Block 1 returns only once
    # the calling thread has recorded that failure and begun to join worker
    # 1, so worker 1 must stop at its next block boundary, before block 3.
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    joining = threading.Event()

    class Worker(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", Worker)
    started = []

    def failing_ppp_block(rng, size, *args):
        block = int(rng.bit_generator.state["state"]["key"][0])
        started.append(block)
        if block == 2:
            raise StabilityError("block 2 failed")
        if block % 2:
            assert joining.wait(timeout=60)
        return np.ones(size)

    monkeypatch.setattr(montecarlo, "_ppp_block", failing_ppp_block)
    before = threading.active_count()
    with pytest.raises(StabilityError, match="block 2 failed"):
        estimate_supply_prob_mp(1500, 1000, 1.0, NET, McConfig(trials=10 * BLOCK, seed=0))
    assert threading.active_count() == before
    assert sorted(started) == [0, 1, 2]


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_ppp_energies(NET, McConfig(trials=1, seed=3), 8 * BLOCK),
        lambda: check_prefix_equivalence(10, 1000, 0.01, 1.0, McConfig(trials=2 * BLOCK, seed=3)),
    ],
    ids=["field", "prefix"],
)
def test_blocks_in_flight_fit_the_memory_budget(monkeypatch, call):
    # With 25 CPUs one worker per block would hold 8 field blocks of about
    # 2.2 MB, or 2 prefix blocks of about 32 MB (n = 1000, four chunks of
    # 256 symbols), at once. The block map runs only as many workers as fit
    # in _MEMORY_IN_FLIGHT, or one where a block alone is larger.
    # tracemalloc sees NumPy's buffers on every thread.
    peaks = {}
    for cpus in (1, 25):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            call()
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[25] <= 1.05 * max(montecarlo._MEMORY_IN_FLIGHT, peaks[1])


def test_cli_import_starts_no_thread():
    code = "import threading, wplink.cli; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_cli_import_leaves_scipy_linalg_out():
    # SciPy's linear algebra loads a second BLAS. On a 2-vCPU host with
    # Python 3.11.7, NumPy 2.4.6 and SciPy 1.17.1, adding only
    # `import scipy.linalg` to multi_pb raised the `analytic` benchmark's
    # peak RSS from 117.4 to 123.5 MB (+5.2 %, over its 5 % bound); calling
    # `solve_triangular` raised it to 124.7-125.3 MB, and a fresh import
    # took 0.39 s instead of 0.29 s. A change that needs SciPy's linear
    # algebra changes this test openly.
    code = "import sys, wplink.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


@pytest.mark.parametrize("density", [1e-300, 1e-15, 1e-3, 0.5, 15.0])
def test_truncation_radius_expects_the_disk_beacons(density):
    # density * pi * R^2 = 50, whatever eta and beacon power
    r = truncation_radius(NetworkParams(density=density, p_pb=1e3, eta=3.6))
    assert r > 1.0
    assert density * math.pi * r * r == pytest.approx(50.0, rel=1e-14)
    other = NetworkParams(density=density, p_pb=7.0, mu=0.3, eta=1e5)
    assert truncation_radius(other) == r


def test_truncation_radius_is_finite_at_the_least_density():
    # 50 / (pi * 5e-324) overflows; the square root of each factor does not
    r = truncation_radius(NetworkParams(density=5e-324, p_pb=1e3))
    assert r == pytest.approx(math.sqrt(50.0 / math.pi) * 2.0 ** 537, rel=1e-15)


@pytest.mark.parametrize("density", [50.0 / math.pi, 16.0, 1e4, 1e100, 1.7e308])
def test_truncation_radius_floors_at_the_unit_disk(density):
    # where pi * density >= 50 the unit disk, where path loss saturates,
    # already expects 50 beacons
    assert truncation_radius(NetworkParams(density=density, p_pb=1e3)) == 1.0


def test_far_field_gamma_matches_campbell_moments():
    # k * theta and k * theta^2 are Campbell's mean
    # M = 2 pi density b R^(2-eta) / (eta-2) and variance
    # V = 4 pi density b^2 R^(2-2 eta) / (2 eta - 2) of the field beyond R
    for eta in (2.2, 3.6, 8.0):
        net = NetworkParams(density=1e-3, p_pb=1e3, mu=0.7, eta=eta)
        radius = truncation_radius(net)
        b = net.mu * net.p_pb
        mean = 2.0 * math.pi * net.density * b * radius ** (2.0 - eta) / (eta - 2.0)
        var = 4.0 * math.pi * net.density * b * b * radius ** (2.0 - 2.0 * eta) / (2.0 * eta - 2.0)
        shape, scale = montecarlo._far_field_gamma(net, radius)
        assert shape * scale == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert shape * scale * scale == pytest.approx(var, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eta", [math.nextafter(2.0, 3.0), 2.01, 2.2, 2.5, 3.0, 1e6, 1.7e308])
def test_field_is_sampled_at_any_eta(eta):
    # Contract v2's disk grew without bound as eta fell to 2 and refused
    # every eta below about 3.25; v3's disk expects 50 beacons at any eta.
    # The tail's shape and scale neither overflow nor divide 0 by 0, and a
    # beacon's path loss overflowing to inf at huge eta raises no warning.
    for density in (1e-3, 1e3):
        net = NetworkParams(density=density, p_pb=1e3, eta=eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = sample_ppp_energies(net, McConfig(trials=1, seed=1), 500)
        assert np.all(np.isfinite(samples)) and np.all(samples >= 0.0)


@pytest.mark.parametrize(
    "density, eta",
    [(1e20, 2.2), (1e100, 3.6), (1e4, 3.6)],
    ids=["poisson-overflow", "dense", "block-too-large"],
)
def test_too_dense_field_is_stability_error(density, eta):
    # refused before any draw: the expected beacons of one full block pass
    # the cap. At density 1e20 a single trial's Poisson mean is past what
    # NumPy can draw; at 1e4 one trial expects 3.1e4 beacons, a full block
    # 1.3e8
    net = NetworkParams(density=density, p_pb=1e3, eta=eta)
    cfg = McConfig(trials=BLOCK, seed=0)
    with pytest.raises(StabilityError, match="field too dense to sample"):
        sample_ppp_energies(net, cfg, BLOCK)
    with pytest.raises(StabilityError, match="field too dense to sample"):
        estimate_supply_prob_mp(100, 10, 1.0, net, cfg)


def test_block_cap_counts_only_the_trials_drawn():
    # at density 1e4 a full block expects 1.3e8 beacons, a single trial 3.1e4
    net = NetworkParams(density=1e4, p_pb=1e3, eta=3.6)
    assert sample_ppp_energies(net, McConfig(trials=1, seed=0), 1).shape == (1,)


def test_ppp_mean_matches_closed_form():
    cfg = McConfig(trials=1, seed=11)
    samples = sample_ppp_energies(NET, cfg, 20_000)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - mean_harvested(NET)) < 3.0 * se


def test_ppp_vanishing_density_yields_vanishing_energy():
    ghost = NetworkParams(density=1e-15, p_pb=1e3, mu=1.0, eta=3.6)
    samples = sample_ppp_energies(ghost, McConfig(trials=1, seed=5), 2_000)
    # the disk, of radius 1.3e8, holds about 50 beacons; almost surely none
    # lies within 1e4 of the receiver, so no trial comes near 1e-10
    assert np.all(samples >= 0.0)
    assert samples.max() < 1e-10


def test_ppp_denser_field_harvests_more():
    # paired seeds: both disks expect 50 beacons, so each trial draws the
    # same beacons, placed closer by 1/sqrt(2) in the denser field, and a
    # far-field variate of larger scale
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
