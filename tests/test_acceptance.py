# Acceptance suite: headline numbers and cross-checks for the whole
# package, one test per claim. The heaviest checks are the beacon-field
# Monte Carlo run and the high-precision differentiation oracle.

import ast
import math
import pathlib

import numpy as np
import pytest

import wplink
from wplink import montecarlo, multi_pb, planner, single_pb

PE_REF = 1e3


# ----------------------------------------------------------------
# 1. Optimal transmit power reproduces the reference operating point


def test_optimal_power_reproduces_reference_value():
    p_star = single_pb.optimal_power_asymptotic(PE_REF, 1.0, 1e-3)
    assert abs(p_star - 1.1554) <= 1e-3
    assert abs(p_star / PE_REF - 0.0012) <= 1e-4


# ----------------------------------------------------------------
# 2. Minimum transmit blocklength at the 5% error target


def test_min_transmit_blocklength_value():
    assert single_pb.min_transmit_blocklength(0.05) == 2026


# ----------------------------------------------------------------
# 3. Single-beacon supply probability vs Monte Carlo


def test_single_beacon_supply_matches_monte_carlo():
    cfg = montecarlo.McConfig(trials=100_000, seed=0)
    rhos = (0.1, 0.3, 0.5, 0.7, 0.9)
    k = 0
    for m in (2, 10, 50, 100, 400):
        for n in (2, 20, 100, 300):
            rho = rhos[k % len(rhos)]
            k += 1
            a = single_pb.min_power_ratio(m, n, rho)
            est = montecarlo.estimate_supply_prob_single(m, n, a, 1.0, cfg)
            assert abs(est.mean - rho) < 3.0 * est.std_err, (m, n, a)
    assert k == 20


# ----------------------------------------------------------------
# 4. The two published feasibility-constraint forms select the same set


def test_constraint_sets_equivalent():
    # 1000 randomized tuples over the derivation's domain: the transmit
    # length must already satisfy the error-target floor (the two forms
    # genuinely part ways below it — see the module tests).
    rng = np.random.default_rng(1234)
    agree_true = agree_false = 0
    for trial in range(1000):
        eps = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        a = 0.0 if trial % 50 == 0 else 10.0 ** rng.uniform(-6.0, 1.0)
        floor = single_pb.transmit_floor(eps)
        n0 = math.ceil(floor)
        n0 += n0 % 2
        n = max(n0, 2 * int(n0 * 10.0 ** rng.uniform(0.0, 3.0) / 2))
        m_floor = single_pb.harvest_floor_real(float(n), a, eps)
        m = max(1, int(round(m_floor * 2.0 ** rng.uniform(-1.0, 1.0))))

        energy_pair = single_pb.harvest_len_covers_transmit(
            m, n, a, eps
        ) and single_pb.transmit_len_meets_error_floor(n, eps)
        floor_pair = single_pb.transmit_len_within_energy_cap(
            n, m, a, eps
        ) and single_pb.harvest_len_feasible_at_floor(m, a, eps)
        assert energy_pair == floor_pair, (m, n, a, eps)
        if energy_pair:
            agree_true += 1
        else:
            agree_false += 1
    # the sampler must exercise both outcomes, not vacuously agree
    assert agree_true > 100 and agree_false > 100


# ----------------------------------------------------------------
# 5. The closed-form optimal power is stationary for the asymptotic rate


def test_asymptotic_rate_stationary_at_optimal_power():
    h = 1e-6
    checked = 0
    for p_e in (1e2, 3e2, 1e3, 3e3, 1e4):
        for eps in (1e-3, 1e-2, 0.05, 0.1, 0.3):
            p_star = single_pb.optimal_power_asymptotic(p_e, 1.0, eps)
            r0 = single_pb.asymptotic_rate(single_pb.LinkParams(p_star, p_e), eps)
            r_plus = single_pb.asymptotic_rate(
                single_pb.LinkParams(p_star * (1 + h), p_e), eps
            )
            r_minus = single_pb.asymptotic_rate(
                single_pb.LinkParams(p_star * (1 - h), p_e), eps
            )
            normalized_slope = abs(r_plus - r_minus) / (2.0 * h * r0)
            assert normalized_slope <= 1e-6, (p_e, eps, normalized_slope)
            checked += 1
    assert checked == 25


# ----------------------------------------------------------------
# 6. Derivative ladder vs high-precision numerical differentiation


def test_laplace_ladder_matches_numerical_differentiation():
    import mpmath as mp

    points = (
        (0.05, 1e-3, 3.6),
        (0.5, 1e-2, 2.5),
        (1.0, 5e-3, 3.6),
        (2.0, 1e-3, 4.5),
        (0.2, 2e-3, 3.0),
        (5.0, 1e-3, 3.6),
    )
    for s0, density, eta in points:
        net = multi_pb.NetworkParams(density=density, p_pb=1e3, mu=1.0, eta=eta)
        d = multi_pb.laplace_derivs(s0, 8, net)

        with mp.workdps(40):
            beta = mp.mpf(2) / eta
            b = mp.mpf(net.p_pb) * net.mu

            def transform(s):
                u = b * s
                radial = (2 * u / (mp.mpf(eta) - 2)) * mp.hyp2f1(
                    1, 1 - beta, 2 - beta, -u
                )
                return mp.exp(-mp.pi * density * (u / (1 + u) + radial))

            coefs = mp.taylor(transform, mp.mpf(s0), 8)
            oracle = [float(coefs[k] * mp.factorial(k)) for k in range(9)]

        for k in range(1, 9):
            rel = abs(d.values[k] - oracle[k]) / abs(oracle[k])
            assert rel <= 1e-6, (s0, density, eta, k, rel)
            assert (-1.0) ** k * d.values[k] > 0.0


# ----------------------------------------------------------------
# 7. Beacon-field supply probability vs field Monte Carlo


def test_multi_beacon_supply_matches_monte_carlo():
    cfg = montecarlo.McConfig(trials=100_000, seed=0)
    n, p_t = 1000, 1.0
    cases = [
        (multi_pb.NetworkParams(density=density, p_pb=p_pb), 1500)
        for density in (1e-3, 5e-3, 1e-2)
        for p_pb in (1e3, 2e3)
    ]
    # Fields near eta = 2, which a disk sized by the far-field mean could
    # not sample; m is chosen per eta so that the supply stays inside (0, 1).
    cases += [
        (multi_pb.NetworkParams(density=1e-3, p_pb=p_pb, eta=eta), m)
        for eta, m in ((2.5, 300), (3.0, 1500))
        for p_pb in (1e3, 2e3)
    ]
    for net, m in cases:
        exact = multi_pb.energy_supply_prob_mp(m, n, p_t, net)
        est = montecarlo.estimate_supply_prob_mp(m, n, p_t, net, cfg)
        z = abs(est.mean - exact) / max(est.std_err, 1e-12)
        assert z < 3.0, (net, m, exact, est.mean, z)


# ----------------------------------------------------------------
# 8. Densifying the field beats boosting beacon power at equal mean energy


def test_density_scaling_beats_power_scaling():
    m, n, p_t = 1500, 1000, 1.0
    base_density, base_power = 1e-3, 1e3
    for k in (2.0, 5.0, 10.0):
        denser = multi_pb.NetworkParams(density=k * base_density, p_pb=base_power)
        louder = multi_pb.NetworkParams(density=base_density, p_pb=k * base_power)
        assert multi_pb.mean_harvested(denser) == pytest.approx(
            multi_pb.mean_harvested(louder), rel=1e-12
        )
        p_dense = multi_pb.energy_supply_prob_mp(m, n, p_t, denser)
        p_loud = multi_pb.energy_supply_prob_mp(m, n, p_t, louder)
        assert p_dense >= p_loud, (k, p_dense, p_loud)


# ----------------------------------------------------------------
# 9. Rate vs power ratio has a single interior peak


def test_rate_vs_power_ratio_unimodal():
    p_e = 1e2
    # per-curve left endpoints keep the whole 41-point log grid inside the
    # region where the rate is positive
    grids = {1e-3: 5e-3, 1e-2: 1.5e-3, 1e-1: 2e-3}
    for eps, a_left in grids.items():
        n = single_pb.min_transmit_blocklength(eps)
        rates = []
        for i in range(41):
            a = a_left * (1.0 / a_left) ** (i / 40.0)
            m = planner.min_harvest_blocklength(n, a, eps)
            plan = single_pb.BlocklengthPlan(m=m, n=n, epsilon=eps)
            link = single_pb.LinkParams(p_t=a * p_e, p_e=p_e)
            rates.append(single_pb.achievable_rate_fbl(plan, link).rate_nats)
        peak = rates.index(max(rates))
        assert 0 < peak < 40, (eps, peak)
        for i in range(peak):
            assert rates[i] < rates[i + 1], (eps, i)
        for i in range(peak, 40):
            assert rates[i] > rates[i + 1], (eps, i)


# ----------------------------------------------------------------
# 10. Rate at the asymptotically optimal power vs the true optimum


def _fixed_vs_optimal_gap(eps: float) -> float:
    p_asym = single_pb.optimal_power_asymptotic(PE_REF, 1.0, eps)
    n = single_pb.min_transmit_blocklength(eps)
    m = planner.min_harvest_blocklength(n, p_asym / PE_REF, eps)
    plan = single_pb.BlocklengthPlan(m=m, n=n, epsilon=eps)
    rate_asym = single_pb.achievable_rate_fbl(
        plan, single_pb.LinkParams(p_asym, PE_REF)
    ).rate_nats
    _, rate_best = single_pb.optimal_power_fbl(eps, PE_REF)
    return (rate_best - rate_asym) / rate_best


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at eps=1e-3 the finite-length optimum sits ~8.3% above the rate at "
        "the asymptotically optimal power (the additive penalty terms shift "
        "the maximizer hard at low error targets), so the 2% proximity "
        "target is unattainable there; see the gap-profile test below"
    ),
)
def test_fixed_asymptotic_power_near_optimal():
    for eps in (1e-3, 1e-2, 1e-1):
        assert _fixed_vs_optimal_gap(eps) <= 0.02, eps


def test_fixed_asymptotic_power_gap_profile():
    # Measured honest bands for the same quantity: the shortfall shrinks
    # quickly as the error target loosens, meeting 2% at eps >= 1e-2.
    gaps = {eps: _fixed_vs_optimal_gap(eps) for eps in (1e-3, 1e-2, 1e-1)}
    assert 0.06 < gaps[1e-3] < 0.10
    assert 0.0 <= gaps[1e-2] <= 0.02
    assert 0.0 <= gaps[1e-1] <= 0.02
    assert gaps[1e-3] > gaps[1e-2] > gaps[1e-1]


# ----------------------------------------------------------------
# 11. Limit laws


def test_limit_laws_prelog_continuity():
    eps = 0.05
    values = [single_pb.capacity_prelog(a, eps) for a in (1e-3, 1e-6, 1e-9)]
    assert values == sorted(values)  # rises toward the limit
    assert abs(values[-1] - 1.0) < 1e-6
    assert single_pb.capacity_prelog(0.0, eps) == 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with m = c*n the supply probability equals exp(-(n/2)ln(1+2a/(cn))) "
        "> exp(-a/c) for every finite n because ln(1+x) < x; the limit is "
        "approached strictly from above, so it cannot serve as an upper "
        "bound — only the convergence gap statement holds (next test)"
    ),
)
def test_limit_laws_proportional_scaling_bound():
    a, c = 0.1, 2.0
    limit = single_pb.asymptotic_supply_limit(a, c)
    for n in (100, 10_000, 1_000_000):
        assert single_pb.energy_supply_prob(int(c * n), n, a) <= limit, n


def test_limit_laws_proportional_scaling_gap():
    a, c = 0.1, 2.0
    limit = single_pb.asymptotic_supply_limit(a, c)
    gaps = [
        single_pb.energy_supply_prob(int(c * n), n, a) - limit
        for n in (100, 10_000, 1_000_000)
    ]
    assert all(g > 0.0 for g in gaps)  # always above the limit
    assert gaps[0] > gaps[1] > gaps[2]  # and converging down onto it
    assert gaps[2] < 1e-3


def test_limit_laws_prefix_final_counts():
    cfg = montecarlo.McConfig(trials=100_000, seed=0)
    prefix_bad, final_bad = montecarlo.check_prefix_equivalence(10, 20, 0.5, 1.0, cfg)
    assert prefix_bad == final_bad


# ----------------------------------------------------------------
# Public surface


@pytest.mark.parametrize("module", [wplink, montecarlo, multi_pb, planner, single_pb])
def test_every_exported_name_is_bound(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


# The package's modules, each importing only those before it.
MODULE_STACK = ["single_pb", "multi_pb", "montecarlo", "planner", "cli"]


def package_imports(tree):
    """Names of the package modules that a module's import statements load."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wplink."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("wplink."))
    return names


def test_modules_import_one_way_at_top_level():
    sources = pathlib.Path(wplink.__file__).parent.glob("*.py")
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    assert set(trees) == set(MODULE_STACK) | {"__init__"}
    imports = (ast.Import, ast.ImportFrom)
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [node.lineno for node in ast.walk(func) if isinstance(node, imports)]
                assert not nested, f"{name}.{func.name} imports at line(s) {nested}"
    for i, name in enumerate(MODULE_STACK):
        later = package_imports(trees[name]) - set(MODULE_STACK[:i])
        assert not later, f"{name} imports {sorted(later)}, which come after it"
