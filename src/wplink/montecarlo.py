"""Stochastic oracles for the closed forms.

Every estimator here simulates the model directly — exponential energy
packets or a planar Poisson beacon field, and codeword energy as p_t times a
chi-squared(n) variate — so agreement with the analytic modules is
evidence, not circularity.

Determinism contract v3: draws come from counter-based Philox streams.
Trials are processed in fixed blocks of :data:`BLOCK` trials; block ``b`` of
seed ``s`` uses the 128-bit key ``(s << 64) | b``, and within a block the
draw order is fixed: the harvest draw first, then the codeword energies.
The field's harvest draw is itself fixed in order: Poisson beacon counts,
uniform radii, exponential fades, then one gamma far-field variate per
trial (see :func:`_ppp_block`). The supply estimators draw each codeword's
energy as one ``2 * standard_gamma(n / 2)`` variate;
:func:`check_prefix_equivalence` needs running sums, so it draws the
symbols themselves, as standard normals in chunks of 256. Estimates are
therefore bit-identical for a given (seed, parameters) regardless of how
blocks are scheduled. Every stream comes from one block map,
:func:`_map_blocks`: it runs the blocks on up to one thread per CPU the
process may use, and on fewer where blocks are large, so that the blocks in
flight hold at most :data:`_MEMORY_IN_FLIGHT` bytes, or one block where a
block alone is larger. No setting changes that. It reduces their results in
block order, so no bit depends on the thread count.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .multi_pb import NetworkParams, StabilityError
from .single_pb import DomainError, _check_count, _check_nonnegative, _check_positive

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

# Beacons the field's sampling disk expects per trial (see
# truncation_radius). The far field beyond it is one moment-matched gamma
# variate per trial, which the disk must dominate. At density 1e-2 and
# eta = 2.2, with supply 0.9988, 5 beacons biased the supply estimate by
# z = -17.7 at 2e6 trials, and 20 still by z = -3.5 pooled over 1.6e7;
# 50 gave z = -0.8 there.
_DISK_BEACONS = 50

# Most beacons one block of the field may expect. A block in flight holds
# 8 bytes per beacon for the radii, plus one fade chunk (see _ppp_block), so
# 2**24 keeps each block's draws near 130 MB. Every field with density up
# to 50/pi expects _DISK_BEACONS per trial, about 2e5 per full block; only
# a density above about 1300 reaches the cap in a full block.
_BLOCK_BEACON_CAP = 2 ** 24

# Bytes the blocks of one call may hold in flight together. The block map
# runs fewer workers where blocks are larger, down to one, so a call holds
# at most this or one block, whatever the CPU count. A full block of the
# field, at 2e5 beacons, holds about 2.2 MB, so five run at once within
# 12 MiB; a prefix-check block at n = 1000 (about 32 MB) runs alone.
_MEMORY_IN_FLIGHT = 12 * 2 ** 20

# Bytes per trial of a block's own arrays (counts, harvest and codeword
# energies, budgets and their comparisons), on top of the draws that each
# block function counts for itself.
_TRIAL_BYTES = 64

# Bytes per symbol slot of a chunk in the prefix check: the draws, their
# energies and running sums, the previous chunk's energies and running
# sums while the next chunk is drawn, and a comparison flag. tracemalloc
# measured 24.1 bytes per slot at n = 256 (one chunk) and 32.1 at n = 1000.
_SYMBOL_BYTES = 33

# Most trials (or field draws) one call may ask for, 244 141 blocks: it
# bounds the block list before it is allocated. The single-beacon
# estimator draws about 1e7 trials per second, so a call at the cap already
# runs for minutes.
_TRIALS_MAX = 10 ** 9

# Beacons per fade chunk of _ppp_block. A chunk holds whole trials, so it is
# one trial's beacons where a trial holds more; the chunk then costs 16
# bytes per beacon (fades and owners) on top of the radii.
_FADE_CHUNK = 2 ** 14


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
        _check_trials("trials", self.trials)
        if not _check_count("seed", self.seed, 0) < 2 ** 64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _check_trials(name: str, value) -> int:
    """A count of trials: a count (see ``_check_count``) of at most
    :data:`_TRIALS_MAX`."""
    value = _check_count(name, value)
    if value > _TRIALS_MAX:
        raise DomainError(f"{name} must be at most {_TRIALS_MAX:.0e}, got {value:.10g}")
    return value


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its binomial standard error."""

    mean: float
    std_err: float
    trials: int
    seed: int


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_blocks(seed: int, trials: int, fn, draw_bytes: float) -> list:
    """``fn(rng, size, scratch)`` for each block of ``trials``, in block order.

    Block b of seed s draws from the Philox key (s << 64) | b. Worker w runs
    blocks w, w + W, w + 2W, ... where W is the least of the CPUs, the
    blocks and the number of blocks that fit in :data:`_MEMORY_IN_FLIGHT`,
    and at least 1. A block holds its per-trial arrays plus ``draw_bytes``,
    the peak of any other draws of ``fn``. The calling thread is worker 0,
    so one worker starts no thread. ``scratch`` is a dict each worker keeps
    across its blocks, for reusable buffers. After a block fails no worker
    starts a later block, and the failure of the lowest block is raised, as
    a serial loop would raise it.
    """
    blocks = -(-trials // BLOCK)
    fit = int(_MEMORY_IN_FLIGHT // (_TRIAL_BYTES * BLOCK + draw_bytes))
    workers = max(1, min(_available_cpus(), blocks, fit))
    results = [None] * blocks
    errors = {}
    failed = [blocks]  # lowest failed block so far
    lock = threading.Lock()

    def work(first: int) -> None:
        scratch = {}
        for block in range(first, blocks, workers):
            if block > failed[0]:
                return
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) | block))
            try:
                results[block] = fn(rng, min(BLOCK, trials - block * BLOCK), scratch)
            except BaseException as exc:
                with lock:
                    errors[block] = exc
                    failed[0] = min(failed[0], block)
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[failed[0]]
    return results


def _buffer(scratch: dict, name: str, size: int) -> np.ndarray:
    """The first ``size`` doubles of the worker's buffer ``name``. A buffer
    too small is dropped and replaced with some headroom, so blocks of
    about the same size share one.

    Buffers are anonymous memory maps, returned to the system when the
    worker drops them. Heap buffers freed on worker threads stay in the
    allocator's per-thread arenas: twelve `validate` and `pes` runs in one
    process with the CPU count set to 8 reached 94 MB peak RSS that way,
    against 74 MB with maps.
    """
    if name not in scratch or scratch[name].size < size:
        scratch.pop(name, None)
        doubles = size + (size >> 6) + 1
        scratch[name] = np.frombuffer(mmap.mmap(-1, 8 * doubles), dtype=np.float64)
    return scratch[name][:size]


def _check_frame(m: int, n: int, p_t: float) -> tuple[int, int]:
    """Slot counts >= 1 (a chi-squared(n) energy needs no even n) and p_t."""
    _check_nonnegative("p_t", p_t)
    return _check_count("harvest blocklength m", m), _check_count("transmit blocklength n", n)


def _codeword_energies(
    rng: np.random.Generator, size: int, n: int, p_t: float, budget: np.ndarray
):
    """Total codeword energy per trial, and whether any running prefix of it
    exceeded ``budget``.

    Symbols are drawn as standard normals in fixed chunks and squared, so
    the per-trial energy is p_t times a chi-squared(n) sum. A prefix can
    exceed the budget only where the total does, since the cumulative
    energy never decreases.
    """
    total = np.zeros(size)
    prefix_violated = np.zeros(size, dtype=bool)
    done = 0
    while done < n:
        chunk = min(_SYMBOL_CHUNK, n - done)
        energies = p_t * np.square(rng.standard_normal((size, chunk)))
        running = total[:, None] + np.cumsum(energies, axis=1)
        prefix_violated |= (running > budget[:, None]).any(axis=1)
        total += energies.sum(axis=1)
        done += chunk
    return total, prefix_violated


def _supply_estimate(
    m: int, n: int, p_t: float, cfg: McConfig, harvest, harvest_bytes: float = 0,
    keep: bool = False,
) -> tuple[McEstimate, np.ndarray | None]:
    """Fraction of trials in which ``m`` slots of harvested energy cover the
    codeword, with its binomial standard error.

    Per block, ``harvest(rng, size, scratch)`` draws the per-slot energies
    first, holding ``harvest_bytes`` beyond its per-trial arrays; the
    codeword energies, p_t times a chi-squared(n) variate each, follow from
    the same stream. With ``keep`` the harvest energies come back too, in
    trial order; without it, None, and memory does not grow with the trials.
    """

    def block(rng: np.random.Generator, size: int, scratch: dict):
        energy = harvest(rng, size, scratch)
        # An energy past the double range is inf, which compares as it should.
        with np.errstate(over="ignore"):
            total = p_t * (2.0 * rng.standard_gamma(0.5 * n, size))
            budget = m * energy
        return int((total <= budget).sum()), energy if keep else None

    counts, energies = zip(*_map_blocks(cfg.seed, cfg.trials, block, harvest_bytes))
    p = sum(counts) / cfg.trials
    est = McEstimate(
        mean=p,
        std_err=math.sqrt(p * (1.0 - p) / cfg.trials),
        trials=cfg.trials,
        seed=cfg.seed,
    )
    return est, np.concatenate(energies) if keep else None


def estimate_supply_prob_single(
    m: int, n: int, p_t: float, p_e: float, cfg: McConfig
) -> McEstimate:
    """Empirical probability that harvested energy covers the codeword.

    Per trial: one exponential energy packet of mean ``p_e`` scaled by the
    ``m`` harvesting slots, against the chi-squared(n) energy of an
    ``n``-slot codeword of unit-variance Gaussian symbols at power ``p_t``.
    """
    m, n = _check_frame(m, n, p_t)
    _check_positive("p_e", p_e)
    return _supply_estimate(
        m, n, p_t, cfg, lambda rng, size, scratch: rng.exponential(scale=p_e, size=size)
    )[0]


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

    def block(rng: np.random.Generator, size: int, scratch: dict) -> tuple[int, int]:
        budget = m * rng.exponential(scale=p_e, size=size)
        total, prefix_violated = _codeword_energies(rng, size, n, p_t, budget)
        return int(prefix_violated.sum()), int((total > budget).sum())

    chunk_bytes = _SYMBOL_BYTES * BLOCK * min(n, _SYMBOL_CHUNK)
    prefix_counts, final_counts = zip(*_map_blocks(cfg.seed, cfg.trials, block, chunk_bytes))
    return sum(prefix_counts), sum(final_counts)


def truncation_radius(net: NetworkParams) -> float:
    """Radius of the disk in which the field is sampled beacon by beacon.

    The disk expects :data:`_DISK_BEACONS` beacons, density*pi*R^2 = K, so R
    depends on the density alone, not on eta or beacon power. Never below
    the unit disk, where path loss saturates. The square root is taken of
    each factor apart, so R stays finite at any positive density.
    """
    return max(math.sqrt(_DISK_BEACONS / math.pi) / math.sqrt(net.density), 1.0)


def _field_harvest(net: NetworkParams, trials: int):
    """The field's block function, :func:`_ppp_block` on the disk of
    :func:`truncation_radius`, and the bytes its draws hold per block: 8 per
    expected beacon for the radii, with the buffer's 1/64 headroom, and 16
    per beacon of one fade chunk.

    Raises:
        StabilityError: If one block of ``trials`` expects more than
            :data:`_BLOCK_BEACON_CAP` beacons in the disk.
    """
    radius = truncation_radius(net)
    per_trial = net.density * math.pi * radius * radius
    expected = per_trial * min(BLOCK, trials)
    if expected > _BLOCK_BEACON_CAP:
        raise StabilityError(
            f"field too dense to sample: {expected:.3g} beacons expected per block, "
            f"cap {_BLOCK_BEACON_CAP}"
        )
    draw_bytes = 8 * (expected + expected / 64) + 16 * max(_FADE_CHUNK, per_trial)
    return lambda rng, size, scratch: _ppp_block(rng, size, scratch, net, radius), draw_bytes


def _far_field_gamma(net: NetworkParams, radius: float) -> tuple[float, float]:
    """Shape k and scale theta of the gamma law that stands in for the
    energy of the beacons beyond the sampling disk.

    By Campbell's theorem that energy has mean M = 2*pi*density*b*R^(2-eta)
    /(eta-2) and variance V = 4*pi*density*b^2*R^(2-2*eta)/(2*eta-2), with
    b = mu*p_pb. Matching both, k = M^2/V and theta = V/M, which reduce to
    k = 2*(density*pi*R^2)*(eta-1)/(eta-2)^2 and
    theta = b*R^(-eta)*(eta-2)/(eta-1). Taken in this order, neither
    overflows at any eta > 2, nor underflows to 0/0 where R^(2-2*eta) does.
    """
    eta = net.eta
    per_trial = net.density * math.pi * radius * radius
    shape = 2.0 * per_trial / (eta - 2.0) * ((eta - 1.0) / (eta - 2.0))
    scale = net.mu * net.p_pb * radius ** -eta * ((eta - 2.0) / (eta - 1.0))
    return shape, scale


def _ppp_block(
    rng: np.random.Generator, size: int, scratch: dict, net: NetworkParams, radius: float
) -> np.ndarray:
    """One block of per-slot harvested energies from the beacon field.

    The beacons in the sampling disk are drawn one by one. Those beyond it
    are one gamma variate per trial with the far field's mean and variance
    (:func:`_far_field_gamma`), drawn after every fade of the block. The
    gamma misses the far field's third cumulant (by a factor 2.45 at
    eta = 2.5), so the disk must carry the shape of the law: at
    :data:`_DISK_BEACONS` beacons the error stays below Monte Carlo noise.
    """
    counts = rng.poisson(lam=net.density * math.pi * radius * radius, size=size)
    ends = np.cumsum(counts)
    # Uniform placement in the disk, then unit-mean exponential fades. Each
    # contribution is (mu*p_pb)*fade / max(1, (R*sqrt(u))^eta), evaluated in
    # exactly that order, since the contract pins the field stream's bits.
    # The radii are drawn whole into the worker's buffer and transformed in
    # place; the fades follow from the same stream in chunks of whole
    # trials, so each trial's sum still runs over its beacons in order from
    # 0.0, and a block holds 8 bytes per beacon plus one chunk.
    radii = rng.random(out=_buffer(scratch, "radii", int(ends[-1])))
    np.sqrt(radii, out=radii)
    radii *= radius
    with np.errstate(over="ignore"):  # at huge eta r^eta may be inf: the beacon gives 0
        np.power(radii, net.eta, out=radii)
    np.maximum(radii, 1.0, out=radii)
    energy = np.empty(size)
    first = start = 0
    while first < size:
        # The trials ending within one chunk, or one trial that fills more.
        last = max(int(np.searchsorted(ends, start + _FADE_CHUNK, side="right")), first + 1)
        stop = int(ends[last - 1])
        contrib = rng.standard_exponential(out=_buffer(scratch, "fades", stop - start))
        contrib *= net.mu * net.p_pb
        contrib /= radii[start:stop]
        owner = np.repeat(np.arange(last - first), counts[first:last])
        energy[first:last] = np.bincount(owner, weights=contrib, minlength=last - first)
        first, start = last, stop
    shape, scale = _far_field_gamma(net, radius)
    energy += scale * rng.standard_gamma(shape, size)
    return energy


def sample_ppp_energies(net: NetworkParams, cfg: McConfig, count: int) -> np.ndarray:
    """Batch of ``count`` per-slot harvested energy draws (deterministic)."""
    count = _check_trials("count", count)
    return np.concatenate(_map_blocks(cfg.seed, count, *_field_harvest(net, count)))


def estimate_supply_prob_mp(
    m: int, n: int, p_t: float, net: NetworkParams, cfg: McConfig
) -> McEstimate:
    """Empirical supply probability for the Poisson-field link.

    Per trial: one beacon-field energy draw scaled by the ``m`` harvesting
    slots, against a chi-squared(n) codeword energy at power ``p_t``.
    """
    m, n = _check_frame(m, n, p_t)
    return _supply_estimate(m, n, p_t, cfg, *_field_harvest(net, cfg.trials))[0]


def _field_supply(
    m: int, n: int, p_t: float, net: NetworkParams, cfg: McConfig
) -> tuple[McEstimate, np.ndarray]:
    """:func:`estimate_supply_prob_mp` together with the per-slot field
    energies it drew.

    Each block draws its harvest first from the block's own key, so these
    energies are exactly ``sample_ppp_energies(net, cfg, cfg.trials)``: one
    pass over the field serves both. They are kept, so memory grows with
    the trials.
    """
    m, n = _check_frame(m, n, p_t)
    return _supply_estimate(m, n, p_t, cfg, *_field_harvest(net, cfg.trials), keep=True)
