"""Command-line interface for the study runners.

Each subcommand reads an optional JSON config file (--config); explicit flags
override config fields, and a key the subcommand does not take is invalid.
Exit codes: 0 success, 1 invalid configuration, 2 a usage error (stderr starts
with "usage:") or a budget refusal (its last stderr line starts with "refused:").
"""

from __future__ import annotations

import argparse
import json
import sys

from . import spaces
from .covering import DEFAULT_ETA
from .errors import BudgetExceededError, UnsupportedDomainError
from .experiments import (
    StudyConfig,
    dump_f_grid,
    run_arcsine_study,
    run_epsnet_study,
    run_expectation_study,
    run_random_vs_structured,
    run_tail_study,
    run_zn_study,
)

BUILTIN_DOMAINS = {
    "interval": spaces.IntervalUniform(),
    "arcsine": spaces.ArcsineInterval(),
    "circle": spaces.Sphere(1),
    "sphere2": spaces.Sphere(2),
    "ball2": spaces.Ball(2),
    "ball3": spaces.Ball(3),
    "cube2": spaces.Cube(2),
    "cube3": spaces.Cube(3),
    "cantor": spaces.Cantor(40),
    "unit_box": spaces.unit_box_polyhedron(),
}


def _resolve_domain(spec: str | dict) -> spaces.Domain:
    if isinstance(spec, dict):
        return spaces.domain_from_dict(spec)
    if spec in BUILTIN_DOMAINS:
        return BUILTIN_DOMAINS[spec]
    # otherwise treat as a path to a domain JSON document
    with open(spec) as fh:
        return spaces.domain_from_dict(json.load(fh))


def _expectation(**cfg):
    config = StudyConfig(**cfg)  # checks every field, so trials is a count below
    if config.trials < 30:
        print("warning: fewer than 30 trials; normal CIs are unreliable", file=sys.stderr)
    return run_expectation_study(config)


_STUDY = {"master_seed": 0, "out": None, "force": False}

# subcommand: (runner, defaults, row format, help); the runner is called with
# the merged config as keywords, and each row prints through the format
TABLE = {
    "study": (_expectation,
              {"domain": "interval", "n_grid": [100, 1000], "trials": 100, "p": 1.0,
               "probe_eta": DEFAULT_ETA, **_STUDY},
              "N={n} rescaled={rescaled:.6g} ci={ci_half_width:.3g} target={target}",
              "expectation study against the limit constant"),
    "tail": (run_tail_study, {"domain": "interval", "n": 1000, "trials": 200,
                              "thresholds": None, "probe_eta": DEFAULT_ETA, **_STUDY},
             "t={threshold:.6g} P(L>=t)={prob_lower_exceeds:.4f} "
             "P(U>=t)={prob_upper_exceeds:.4f}",
             "tail probabilities of the covering radius"),
    "zn": (run_zn_study, {"d": 1, "n_grid": [100, 1000, 10000], "trials": 100,
                          "probe_eta": DEFAULT_ETA, **_STUDY},
           "N={n} mean={mean:.4f} stdev={stdev:.4f} frac|Z-1|<=0.2={frac_within_02:.3f}",
           "rescaled sphere covering radius Z_N"),
    "arcsine": (run_arcsine_study, {"a_exponent": 2.0, "side": "right_edge",
                                    "n_grid": [1000, 10000], "trials": 200, **_STUDY},
                "N={n} rescaled={rescaled:.6g} ci={ci_half_width:.3g}",
                "windowed covering radii on the arcsine interval"),
    "epsnet": (run_epsnet_study, {"domain": "circle", "n_grid": [1000], "trials": 200,
                                  "c_mult": 3.0, **_STUDY},
               "N={N} eps={eps:.6g} yes={yes_fraction:.3f} "
               "yes_or_unknown={yes_or_unknown_fraction:.3f}",
               "eps-net success fractions"),
    "fgrid": (dump_f_grid, {"n_values": [100, 1000], "n_cell_measures": [10.0, 50.0],
                            "m_values": [2, 5, 10], "out": None},
              "N={N} n={n} m={m} f={f_dp:.6g} lower={f_lower_bound:.6g}",
              "dump the occupancy function over a grid"),
    "versus": (run_random_vs_structured, {"d": 2, "n_grid": [100, 10000], "trials": 50,
                                          "probe_eta": DEFAULT_ETA, **_STUDY},
               "N={N} random={random_mean_rho:.6g} grid={grid_rho:.6g} ratio={ratio:.3f}",
               "random vs structured grid configurations"),
}


# config key -> its flag and the flag's argparse keywords; each subcommand
# takes --config and the flags of its TABLE defaults
FLAGS = {
    "domain": ("--domain", {"help": f"one of {sorted(BUILTIN_DOMAINS)} or a JSON file"}),
    "n_grid": ("--n-grid", {"type": int, "nargs": "+"}),
    "n": ("--n", {"type": int}),
    "d": ("--d", {"type": int}),
    "p": ("--p", {"type": float}),
    "probe_eta": ("--eta", {"type": float}),
    "thresholds": ("--thresholds", {"type": float, "nargs": "+"}),
    "a_exponent": ("--a", {"type": float}),
    "side": ("--side", {"choices": ["right_edge", "interior"]}),
    "c_mult": ("--c-mult", {"type": float}),
    "n_values": ("--N", {"type": int, "nargs": "+"}),
    "n_cell_measures": ("--n", {"type": float, "nargs": "+"}),
    "m_values": ("--m", {"type": int, "nargs": "+"}),
    "master_seed": ("--seed", {"type": int}),
    "trials": ("--trials", {"type": int}),
    "out": ("--out", {"help": "CSV output path"}),
    "force": ("--force", {"action": "store_true", "default": None,
                          "help": "run even if the cost estimate exceeds the budget"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covrad",
                                     description="covering-radius studies of random points")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, defaults, _, help_text) in TABLE.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key in defaults:
            flag, kwargs = FLAGS[key]
            p.add_argument(flag, dest=key, **kwargs)
    sub.add_parser("constants", help="print the limit constants of the built-in domains")
    return parser


def _run(command: str, args: argparse.Namespace) -> int:
    """Run one subcommand of TABLE on its defaults, updated by the --config
    file, then by the flags given."""
    runner, defaults, row_format, _ = TABLE[command]
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ValueError(f"{command} takes no config keys {unknown}")
    for key in defaults:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if "domain" in cfg:
        cfg["domain"] = _resolve_domain(cfg["domain"])
    for row in runner(**cfg):
        fields = row if isinstance(row, dict) else vars(row)
        print(row_format.format(**{k: "n/a" if v is None else v for k, v in fields.items()}))
    return 0


def _cmd_constants() -> int:
    print(f"{'domain':<24}{'limit constant (p=1)':>22}")
    for name, domain in BUILTIN_DOMAINS.items():
        try:
            constant = spaces.limit_constant(domain, 1.0)
        except UnsupportedDomainError:
            continue  # bounds only, no sharp constant
        print(f"{name:<24}{constant:>22.12f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants()
        return _run(args.command, args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, KeyError, OverflowError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
