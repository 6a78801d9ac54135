"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and trial counts are pinned; seeds are fixed so every run
evaluates the identical configuration. Pilot-derived bands come from the
packaged bands.json.

Criterion 3 note: variant III of the cell-occupancy regime uses the valid
N range {1e8..1e11}. On the nominal grid {1e3..1e7} the regime's cell count
n exceeds N everywhere below 1e7 (the parameters violate m <= n <= N), and at
every valid N the probability is 1.0 to double precision, so the strict trend
is checked on the log-complement, which is finite and strictly increasing
toward 0 there.
"""

import math
import time

import numpy as np
import pytest
from oracles import load_bands, polyline_rho
from test_nets import probe_net

from covrad.auxfn import (
    OccupancyParams,
    RegimeSpec,
    f_complement_log,
    f_dp,
    f_exact,
    f_lower_bound,
    regime_params,
)
from covrad.covering import covering_radius_1d, covering_radius_bounds
from covrad.experiments import (
    StudyConfig,
    run_arcsine_study,
    run_epsnet_study,
    run_expectation_study,
    run_random_vs_structured,
    run_zn_study,
)
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (
    Ball,
    Cantor,
    Cube,
    IntervalUniform,
    Polyline,
    Sphere,
    limit_constant,
    unit_box_polyhedron,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_occupancy_equality():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for big_n in range(1, 13):
        for n in range(2, 9):
            if n > big_n:
                continue
            for m in range(1, min(n, 8) + 1):
                params = OccupancyParams(big_n, float(n), m)
                worst = max(worst, abs(f_dp(params) - float(f_exact(params))))
                cases += 1
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"f_dp vs f_exact on {cases} cases, worst |diff| = {worst:.3g}, "
           f"{elapsed:.1f}s")


def test_02_occupancy_lower_bound():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(200):
        big_n = int(rng.integers(2, 10**5))
        n = float(rng.uniform(2.0, big_n))
        m = int(rng.integers(1, max(2, min(int(n), 10**3))))
        params = OccupancyParams(big_n, n, m)
        if f_dp(params) < f_lower_bound(params) - 1e-12:
            violations += 1
    elapsed = time.time() - t0
    report(2, violations == 0 and elapsed < 10.0,
           f"f_dp >= lower bound - 1e-12 on 200 random triples, "
           f"{violations} violations, {elapsed:.1f}s")


def test_03_occupancy_regimes():
    t0 = time.time()
    ok = True
    details = []

    nominal = [10**3, 10**4, 10**5, 10**6, 10**7]
    for variant, spec in [("I", RegimeSpec("I", kappa=1.0, alpha=1.5)),
                          ("II", RegimeSpec("II", kappa=1.0, alpha=1.5, d=3))]:
        vals = [f_dp(regime_params(spec, n)) for n in nominal]
        nondec = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        ok &= nondec and vals[-1] > vals[0]
        details.append(f"{variant}: {vals[0]:.6f}->{vals[-1]:.6f}")

    # variant III: valid-N grid; strict trend read off the log complement
    spec = RegimeSpec("III", kappa=1.0, alpha=1.5, d=3)
    grid3 = [10**8, 10**9, 10**10, 10**11]
    vals = [f_dp(regime_params(spec, n)) for n in grid3]
    logc = [f_complement_log(regime_params(spec, n)) for n in grid3]
    nondec = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    strict = all(b < a for a, b in zip(logc, logc[1:]))
    ok &= nondec and strict
    details.append(f"III: log(1-f) {logc[0]:.2f}->{logc[-1]:.2f}")

    elapsed = time.time() - t0
    report(3, ok and elapsed < 120.0,
           "regimes tend to 1 (" + "; ".join(details) + f"), {elapsed:.1f}s")


def circle_chord_expectation(n: int, terms: int = 12) -> float:
    """E[2 sin(pi S / 2)]: the expected chord-metric covering radius of N
    uniform points on the unit circle, S the maximal spacing as a fraction of
    the circle.

    The sine is an odd series in S, and E[S^m] = E[M^m] / (N (N+1) ... (N+m-1)):
    the spacings are N standard exponentials over their sum, a Gamma(N) variable
    independent of them, and their maximum M = sum_j E_j / j has cumulants
    (j - 1)! sum_i i^-j. Twelve odd terms are exact to double precision down to
    N = 1 (at N = 1000 six already are).
    """
    kappa = [0.0] + [math.factorial(j - 1) * sum(i ** -j for i in range(1, n + 1))
                     for j in range(1, 2 * terms)]
    moments = [1.0]
    for m in range(1, 2 * terms):
        moments.append(sum(math.comb(m - 1, k) * kappa[k + 1] * moments[m - 1 - k]
                           for k in range(m)))
    return sum(2.0 * (-1) ** k * (math.pi / 2) ** (2 * k + 1) / math.factorial(2 * k + 1)
               * moments[2 * k + 1] / math.prod(range(n, n + 2 * k + 1))
               for k in range(terms))


def test_04_circle_pipeline_oracle():
    t0 = time.time()
    n, trials = 1000, 2000
    cfg = StudyConfig(domain=Sphere(1), n_grid=[n], trials=trials)
    row = run_expectation_study(cfg)[0]
    # exact 1-D path: lower == upper == the chord-metric rho, whose exact
    # expectation is the oracle (the arclength one, 2 pi H_N / 2N, is 6e-7 higher)
    mean_rho = row.mean_rho_p_lower
    oracle = circle_chord_expectation(n)
    diff = abs(mean_rho - oracle)
    elapsed = time.time() - t0
    ok = diff <= 3 * row.ci_half_width and elapsed < 60.0
    report(4, ok, f"circle mean rho {mean_rho:.6f} vs oracle {oracle:.6f}, "
                  f"|diff| = {diff:.2e} <= 3 CI = {3 * row.ci_half_width:.2e}, "
                  f"{elapsed:.1f}s")


def test_05_sandwich_soundness():
    t0 = time.time()
    rng = np.random.default_rng(55)
    domains = [IntervalUniform(), Sphere(1), Polyline([[0, 0], [1, 0], [1, 2]])]
    violations = 0
    for mesh in (1e-2, 1e-3):
        # the interval and circle nets are the oracle's, exact_path_net
        nets = {d: probe_net(d, mesh) for d in domains}
        for k in range(500):
            domain = domains[k % 3]
            pts = sample(domain, int(rng.integers(2, 60)), SeedSpec(500, k)).points
            exact = (polyline_rho if isinstance(domain, Polyline) else covering_radius_1d)(
                domain, pts)
            b = covering_radius_bounds(domain, pts, nets[domain])
            if not (b.lower <= exact + 1e-12 and exact <= b.upper + 1e-12):
                violations += 1
    elapsed = time.time() - t0
    report(5, violations == 0 and elapsed < 60.0,
           f"L <= rho_exact <= L + delta on 1000 cases, {violations} violations, "
           f"{elapsed:.1f}s")


def test_06_curve_constant_trend():
    t0 = time.time()
    cfg = StudyConfig(domain=IntervalUniform(),
                      n_grid=[10**2, 10**3, 10**4, 10**5], trials=500)
    rows = run_expectation_study(cfg)
    devs = [abs(r.rescaled - 0.5) for r in rows]
    final_near = abs(rows[-1].rescaled - 0.5) <= 0.25 * 0.5
    decreasing = sum(b < a for a, b in zip(devs, devs[1:]))
    # "3 of 4 comparisons" on a 4-point grid: allow one failed comparison
    trend = decreasing >= len(devs) - 2 and devs[-1] < devs[0]
    elapsed = time.time() - t0
    report(6, final_near and trend and elapsed < 300.0,
           f"interval rescaled {[round(r.rescaled, 4) for r in rows]}, "
           f"{decreasing}/3 comparisons decreasing, {elapsed:.1f}s")


def test_07_sphere_constant():
    t0 = time.time()
    cfg = StudyConfig(domain=Sphere(2), n_grid=[10**3, 10**5], trials=50,
                      probe_eta=0.05)
    rows = run_expectation_study(cfg)
    final = rows[-1].rescaled
    closer = abs(final - 2.0) < abs(rows[0].rescaled - 2.0)
    elapsed = time.time() - t0
    report(7, 1.6 <= final <= 2.4 and closer and elapsed < 1800.0,
           f"sphere rescaled {rows[0].rescaled:.4f} -> {final:.4f} "
           f"(target 2), {elapsed:.0f}s")


def test_08_ball_and_cube_constants():
    t0 = time.time()
    results = []
    ok = True
    # eta halved for the cube: its rescaled midpoint sits near the band edge
    # and the probe-sandwich bias (+eta/2 of the rho scale) matters there
    for domain, target, eta in [(Ball(2), 1.0, 0.05),
                                (Cube(2), limit_constant(Cube(2)), 0.025)]:
        cfg = StudyConfig(domain=domain, n_grid=[10**5], trials=50, probe_eta=eta)
        row = run_expectation_study(cfg)[0]
        ok &= abs(row.rescaled - target) <= 0.25 * target
        results.append(f"{domain.kind}: {row.rescaled:.4f} vs {target:.4f}")
    elapsed = time.time() - t0
    report(8, ok and elapsed < 1800.0, "; ".join(results) + f", {elapsed:.0f}s")


def test_09_consistency_identity():
    t0 = time.time()
    a = limit_constant(unit_box_polyhedron(), 1.0)
    b = limit_constant(Cube(3), 1.0)
    elapsed = time.time() - t0
    report(9, abs(a - b) <= 1e-12 and elapsed < 1.0,
           f"unit box {a!r} == cube {b!r}, {elapsed:.2f}s")


def test_10_arcsine_bands():
    t0 = time.time()
    band_factor = load_bands()["bands"]["arcsine_bands"]["max_band_factor"]
    ok = True
    details = []
    for a, side in [(2.0, "right_edge"), (1.0, "right_edge"), (1.0, "interior")]:
        rows = run_arcsine_study(a, side, [10**3, 10**4], 500, 0)
        vals = [r.rescaled for r in rows]
        ratio = max(vals) / min(vals)
        ok &= ratio <= band_factor
        details.append(f"a={a} {side}: x{ratio:.2f}")
    elapsed = time.time() - t0
    report(10, ok and elapsed < 300.0,
           f"rescaled bands within factor {band_factor} ({'; '.join(details)}), "
           f"{elapsed:.0f}s")


def test_11_cantor_band():
    t0 = time.time()
    band_factor = load_bands()["bands"]["cantor_band"]["max_band_factor"]
    cfg = StudyConfig(domain=Cantor(40), n_grid=[10**3, 10**4, 10**5], trials=100)
    rows = run_expectation_study(cfg)
    vals = [r.rescaled for r in rows]
    ratio = max(vals) / min(vals)
    elapsed = time.time() - t0
    report(11, ratio <= band_factor and elapsed < 300.0,
           f"rescaled {[round(v, 4) for v in vals]} within factor "
           f"{band_factor} (got x{ratio:.2f}), {elapsed:.0f}s")


def test_12_epsnet_fractions():
    t0 = time.time()
    band = load_bands()["bands"]["epsnet_circle"]
    yes_hi = run_epsnet_study(Sphere(1), [10**3], 200, 3.0, 0)[0]["yes_fraction"]
    yes_lo = run_epsnet_study(Sphere(1), [10**3], 200, 0.1, 0)[0]["yes_fraction"]
    ok = yes_hi >= band["min_yes_at_c3"] and yes_lo <= band["max_yes_at_c01"]
    elapsed = time.time() - t0
    report(12, ok and elapsed < 120.0,
           f"eps-net yes fraction {yes_hi:.3f} at c=3, {yes_lo:.3f} at c=0.1, "
           f"{elapsed:.0f}s")


def test_13_random_vs_structured():
    t0 = time.time()
    rows = run_random_vs_structured(2, [10**2, 10**4], 50, 0)
    r_small, r_large = rows[0]["ratio"], rows[-1]["ratio"]
    elapsed = time.time() - t0
    report(13, r_large > r_small and elapsed < 600.0,
           f"cube d=2 random/grid ratio {r_small:.3f} -> {r_large:.3f}, "
           f"{elapsed:.0f}s")


def test_14_zn_convergence():
    t0 = time.time()
    rows = run_zn_study(1, [10**2, 10**3, 10**4, 10**5], 200, 0)
    fracs = [r.frac_within_02 for r in rows]
    stdevs = [r.stdev for r in rows]
    ok = fracs[-1] > fracs[0] and all(b < a for a, b in zip(stdevs, stdevs[1:]))
    elapsed = time.time() - t0
    report(14, ok and elapsed < 300.0,
           f"frac |Z-1|<=0.2: {fracs[0]:.2f} -> {fracs[-1]:.2f}; "
           f"stdev {['%.3f' % s for s in stdevs]}, {elapsed:.0f}s")
