"""Time the stages of net-path trials on fixed seeds: sample, k-d tree build, walk.

For each domain the probe net is built once at probe_mesh_for(domain, N, eta),
with the domain's eta from DOMAINS; each trial t then draws N points from
SeedSpec(seed, t), builds the index over them and walks the net
(ProbeNet.max_nearest_distance). One JSON line is printed per trial with the
three stage times in ms, the net's depth (the levels of blocks above its finest),
the calls and rows of the walk's k-d tree queries (as its index records them in
SpatialIndex.query_rows: their count, their sum, the last and the list per call),
L (as repr, to compare runs bit for bit) and peak_rss_mb, the ru_maxrss of this
process so far (in MB, as covbench reports it): the peak over every net, sample
and walk before the line, not the trial's own.

covrad is imported from the path, so the same script times another checkout
(one whose nets have one depth and whose SpatialIndex records query_rows):

    PYTHONPATH=src python tools/trial_stages.py
    PYTHONPATH=../other/src python tools/trial_stages.py --domains sphere2 cube3
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from covrad.covering import probe_mesh_for
from covrad.nets import build_index, build_probe_net
from covrad.sampler import SeedSpec, sample
from covrad.spaces import Ball, Cube, Sphere, unit_box_polyhedron

# domain name -> (domain, eta): the acceptance 07/08 configurations for the
# 2-D domains, and eta 0.05 on the 3-D ones; a coarser eta walks longer in 3-D
# (at N=1e5 on 2 CPUs, ball3 took 571-594 ms at eta 0.1 against 180-245 ms at
# 0.05, and sphere3 603-1145 against 375-456 ms)
DOMAINS = {
    "sphere2": (Sphere(2), 0.05),
    "ball2": (Ball(2), 0.05),
    "cube2": (Cube(2), 0.025),
    "cube3": (Cube(3), 0.05),
    "unit_box": (unit_box_polyhedron(), 0.05),
    "ball3": (Ball(3), 0.05),
    "sphere3": (Sphere(3), 0.05),
}


def ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1e3, 2)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--domains", nargs="+", default=list(DOMAINS), choices=list(DOMAINS))
    ap.add_argument("--n", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=2)
    args = ap.parse_args(argv)

    for name in args.domains:
        domain, eta = DOMAINS[name]
        start = time.perf_counter()
        net = build_probe_net(domain, probe_mesh_for(domain, args.n, eta))
        net_ms = ms(start)
        # warm-up on a small sample, so the first trial pays no first-call costs
        net.max_nearest_distance(build_index(sample(domain, 100, SeedSpec(args.seed, 0)).points))
        for t in range(args.trials):
            start = time.perf_counter()
            x = sample(domain, args.n, SeedSpec(args.seed, t)).points
            sample_ms = ms(start)
            start = time.perf_counter()
            index = build_index(x.reshape(len(x), -1))
            build_ms = ms(start)
            start = time.perf_counter()
            lower = net.max_nearest_distance(index)
            walk_ms = ms(start)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            rows = index.query_rows
            print(json.dumps({
                "domain": name, "eta": eta, "n": args.n, "seed": [args.seed, t],
                "net_build_ms": net_ms, "sample_ms": sample_ms, "tree_build_ms": build_ms,
                "walk_ms": walk_ms, "depth": net.depth, "query_calls": len(rows),
                "query_rows": sum(rows), "final_query_rows": rows[-1],
                "query_rows_per_call": rows,
                "L": repr(lower),
                "peak_rss_mb": round(peak_mb, 1),
            }), flush=True)


if __name__ == "__main__":
    main()
