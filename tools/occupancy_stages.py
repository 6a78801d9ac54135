"""Time the occupancy evaluators per branch on a fixed list of (N, n, m) triples.

Each triple is evaluated once, after a warm-up, and one JSON line is printed
per call with the branch, the triple, the time in ms and the value (as repr,
to compare runs bit for bit). The branches are those of f_dp:
"high_precision" (the alternating sum) and "saturated" (f_dp returns 1.0
before summing), plus "complement": f_complement_log on the variant III regime.

covrad is imported from the path, so the same script times another checkout:

    PYTHONPATH=src python tools/occupancy_stages.py
    PYTHONPATH=../other/src python tools/occupancy_stages.py
"""

from __future__ import annotations

import json
import time

from covrad.auxfn import OccupancyParams, RegimeSpec, f_complement_log, f_dp, regime_params

# branch -> (evaluator, triples); the high_precision and complement triples are
# those pinned in tests/test_auxfn.py, and tests/test_tools.py checks the values
BRANCHES = {
    # m from 2 to 3000: f from 1.6e-30 (two cells of measure 1/2, 100 points),
    # and m (1 - 1/n)^N up to 20 expected empty cells
    "high_precision": (f_dp, [(100, 2.0, 2), (1000, 10.0, 10), (10**5, 1.5e4, 120),
                              (10**6, 2e5, 150),
                              (30000, 3947.4, 600), (100000, 14701.2, 900),
                              (300000, 50071.7, 1200), (1000000, 175323.0, 1800),
                              (3000000, 566218.0, 2400), (10000000, 1995760.0, 3000)]),
    # about 67 and 770 expected empty cells
    "saturated": (f_dp, [(10**6, 2e5, 10**4), (1722510, 993547.59, 4469)]),
    "complement": (f_complement_log, [
        (p.n_points, p.cells_inv_measure, p.n_cells)
        for p in (regime_params(RegimeSpec("III", 1.0, 1.5, 3), 10**k) for k in range(8, 12))]),
}


def main() -> None:
    # first calls pay one-off costs: mpmath's caches
    f_dp(OccupancyParams(*BRANCHES["high_precision"][1][2]))
    f_complement_log(OccupancyParams(*BRANCHES["complement"][1][0]))
    for branch, (fn, triples) in BRANCHES.items():
        for big_n, n, m in triples:
            params = OccupancyParams(big_n, n, m)
            start = time.perf_counter()
            value = fn(params)
            elapsed = time.perf_counter() - start
            print(json.dumps({
                "branch": branch, "fn": fn.__name__, "N": big_n, "n": n, "m": m,
                "ms": round(elapsed * 1e3, 3), "value": repr(value),
            }), flush=True)


if __name__ == "__main__":
    main()
