import json
import math

import mpmath
import numpy as np
import pytest
from oracles import circle_expectation_oracle, load_bands
from test_acceptance import circle_chord_expectation
from test_nets import probe_net

from covrad.cli import BUILTIN_DOMAINS
from covrad.cli import main as cli_main
from covrad.covering import (covering_radius_1d, covering_radius_bounds, has_exact_path,
                             probe_mesh_for, rho_scale)
from covrad.errors import BudgetExceededError
from covrad.experiments import (
    StudyConfig,
    StudyWriter,
    _run_study,
    _trial_bounds,
    check_budget,
    dump_f_grid,
    run_arcsine_study,
    run_epsnet_study,
    run_expectation_study,
    run_random_vs_structured,
    run_tail_study,
    run_zn_study,
)
from covrad.nets import build_probe_net
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (ArcsineInterval, Ball, Cantor, Cube, IntervalUniform, Sphere,
                           unit_box_polyhedron)


class TestStudyConfig:
    def test_valid(self):
        StudyConfig(domain=IntervalUniform(), n_grid=[10, 100], trials=5)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            StudyConfig(domain=IntervalUniform(), n_grid=[100, 10], trials=5)
        with pytest.raises(ValueError):
            StudyConfig(domain=IntervalUniform(), n_grid=[10, 10], trials=5)

    @pytest.mark.parametrize("n_grid", [[1, 10], [], [10.0, 100], [True, 10]])
    def test_grid_of_integers_at_least_two(self, n_grid):
        with pytest.raises(ValueError):
            StudyConfig(domain=IntervalUniform(), n_grid=n_grid, trials=5)

    def test_trials_minimum(self):
        with pytest.raises(ValueError):
            StudyConfig(domain=IntervalUniform(), n_grid=[10], trials=1)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            StudyConfig(domain=IntervalUniform(), n_grid=[10], trials=5, probe_eta=0.0)

    def test_bool_is_not_a_real(self):
        # True once ran as p = 1.0 and eta = 1.0
        with pytest.raises(ValueError, match="moment order p"):
            StudyConfig(domain=IntervalUniform(), n_grid=[10], trials=5, p=True)
        with pytest.raises(ValueError, match="probe_eta"):
            StudyConfig(domain=IntervalUniform(), n_grid=[10], trials=5, probe_eta=True)


class TestCircleOracle:
    def test_single_point(self):
        assert circle_expectation_oracle(1, 10.0) == 5.0

    def test_two_points(self):
        # E[max gap] of 2 points on circumference L is 3L/4; rho is half of it
        assert circle_expectation_oracle(2, 8.0) == pytest.approx(3.0, rel=1e-12)

    def test_two_points_monte_carlo(self):
        rng = np.random.default_rng(0)
        total = 0.0
        trials = 200_000
        for g in rng.random(trials):
            total += max(g, 1.0 - g) / 2.0
        assert circle_expectation_oracle(2, 1.0) == pytest.approx(
            total / trials, rel=0.01
        )

    def test_harmonic_form(self):
        h5 = sum(1.0 / k for k in range(1, 6))
        assert circle_expectation_oracle(5, 2 * math.pi) == pytest.approx(
            math.pi * h5 / 5.0, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            circle_expectation_oracle(0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_chord_expectation_matches_max_spacing_law(self, n):
        # acceptance 04's chord-metric oracle E[2 sin(pi S / 2)] against a
        # quadrature of the maximal-spacing law
        # P(S <= x) = sum_k (-1)^k C(n, k) (1 - kx)_+^(n-1), integrated by parts
        cdf = lambda x: sum((-1) ** k * mpmath.binomial(n, k) * max(1 - k * x, 0) ** (n - 1)
                            for k in range(n + 1))
        with mpmath.workdps(30):
            kinks = sorted({mpmath.mpf(0)} | {mpmath.mpf(1) / k for k in range(1, n + 1)})
            exact = mpmath.quad(
                lambda x: mpmath.pi * mpmath.cos(mpmath.pi * x / 2) * (1 - cdf(x)), kinks)
        assert abs(circle_chord_expectation(n) - exact) <= 1e-15


class TestBudget:
    def test_refusal(self):
        with pytest.raises(BudgetExceededError):
            check_budget([10**7], 1000)

    def test_force_overrides(self):
        assert check_budget([10**7], 1000, force=True) > 1e10

    @pytest.mark.parametrize("force", ["false", 0, None, np.True_], ids=repr)
    def test_force_is_a_bool(self, force):
        with pytest.raises(ValueError, match="force must be true or false"):
            check_budget([100], 5, force=force)

    def test_estimate_goes_to_stderr(self, capsys):
        check_budget([100], 5)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("estimated cost: ")

    def test_estimate_is_trials_times_n_log2_n(self):
        # per trial a tree over N samples and about N query rows of log2 N each
        assert check_budget([2, 100, 1000], 7) == 7 * (
            2 * 1.0 + 100 * math.log2(100) + 1000 * math.log2(1000))

    def test_net_axes_are_charged_once_as_samples(self):
        assert check_budget([100], 7, net_axes=[2, 1e6]) == 7 * 100 * math.log2(100) + (
            2 * 1.0 + 1e6 * math.log2(1e6))

    @pytest.mark.parametrize("domain,n_grid,trials,eta", [
        (Sphere(2), [10**3, 10**5], 50, 0.05),
        (Ball(2), [10**5], 50, 0.05),
        (Cube(2), [10**5], 50, 0.025),
        (Ball(3), [10**5], 2, 0.05),
        (Cube(3), [10**5], 2, 0.05),
        (unit_box_polyhedron(), [10**5], 2, 0.05),
        (Sphere(3), [10**5], 2, 0.05),
        (Cube(3), [10**6], 2, 0.05),
    ], ids=["acceptance07", "acceptance08-ball2", "acceptance08-cube2", "ball3", "cube3",
            "unit_box", "sphere3", "cube3-1e6"])
    def test_acceptance_and_3d_studies_pass(self, domain, n_grid, trials, eta, monkeypatch):
        # acceptance 07 and 08 and the 3-D studies of ROADMAP's header table
        # reach their first sample without force
        class FirstSample(Exception):
            pass

        def first_sample(*args):
            raise FirstSample

        monkeypatch.setattr("covrad.experiments.sample", first_sample)
        with pytest.raises(FirstSample):
            run_expectation_study(StudyConfig(domain=domain, n_grid=n_grid, trials=trials,
                                              probe_eta=eta))


class TestExpectationStudy:
    def test_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = lambda out: StudyConfig(
            domain=IntervalUniform(), n_grid=[50, 200], trials=20, out=str(out)
        )
        rows = run_expectation_study(cfg(out1))
        run_expectation_study(cfg(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert [r.n for r in rows] == [50, 200]
        for r in rows:
            assert r.mean_rho_p_lower <= r.mean_rho_p_upper
            assert r.ci_half_width >= 0
            assert r.target == 0.5
        meta = json.loads((tmp_path / "a.csv.meta.jsonl").read_text())
        assert meta["config"]["n_grid"] == [50, 200]
        assert "Philox" in meta["generator"]

    def test_sandwich_width_scales_with_eta(self):
        def width(eta):
            cfg = StudyConfig(domain=Cube(2), n_grid=[200], trials=5, probe_eta=eta)
            row = run_expectation_study(cfg)[0]
            return row.mean_rho_p_upper - row.mean_rho_p_lower

        w1, w2 = width(0.2), width(0.1)
        assert w2 == pytest.approx(w1 / 2.0, rel=0.1)

    def test_circle_oracle_guard(self):
        # natural-log rescaling: the Monte Carlo mean must match the exact
        # finite-N expectation; a log-base change would break this badly
        n, trials = 1000, 300
        cfg = StudyConfig(domain=Sphere(1), n_grid=[n], trials=trials)
        row = run_expectation_study(cfg)[0]
        oracle = circle_expectation_oracle(n)
        assert row.mean_rho_p_lower == pytest.approx(oracle, rel=0.05)
        assert abs(row.rescaled / (n / math.log(n)) - oracle) <= 3 * row.ci_half_width

    def test_p2_is_square_scale(self):
        # rescaled(p=2) tracks rescaled(p=1)^2 for the interval
        base = StudyConfig(domain=IntervalUniform(), n_grid=[2000], trials=400)
        sq = StudyConfig(domain=IntervalUniform(), n_grid=[2000], trials=400, p=2.0)
        r1 = run_expectation_study(base)[0]
        r2 = run_expectation_study(sq)[0]
        assert r2.rescaled == pytest.approx(r1.rescaled**2, rel=0.1)

    def test_no_target_for_cantor(self):
        cfg = StudyConfig(domain=Cantor(30), n_grid=[100], trials=5)
        assert run_expectation_study(cfg)[0].target is None


class TestArcsineExactPath:
    def test_study_and_tail_rows_are_exact(self):
        dom = ArcsineInterval()
        rhos = np.array([covering_radius_1d(dom, sample(dom, 200, SeedSpec(5, t)))
                         for t in range(6)])
        row = run_expectation_study(
            StudyConfig(domain=dom, n_grid=[200], trials=6, master_seed=5))[0]
        assert row.mean_rho_p_lower == row.mean_rho_p_upper == float(rhos.mean())
        thresholds = sorted(rhos.tolist())[1::2]
        for tail in run_tail_study(dom, 200, 6, thresholds, master_seed=5):
            frac = float((rhos >= tail.threshold).mean())
            assert tail.prob_lower_exceeds == tail.prob_upper_exceeds == frac


class TestCantorExactPath:
    def test_study_and_tail_rows_are_exact_without_a_net(self, monkeypatch):
        def no_net(*args):
            raise AssertionError("a Cantor study built a probe net")

        monkeypatch.setattr("covrad.experiments.build_probe_net", no_net)
        dom = Cantor(40)
        rhos = np.array([covering_radius_1d(dom, sample(dom, 300, SeedSpec(8, t)))
                         for t in range(5)])
        row = run_expectation_study(
            StudyConfig(domain=dom, n_grid=[300], trials=5, master_seed=8))[0]
        assert row.mean_rho_p_lower == row.mean_rho_p_upper == float(rhos.mean())
        thresholds = sorted(rhos.tolist())[::2]
        for tail in run_tail_study(dom, 300, 5, thresholds, master_seed=8):
            frac = float((rhos >= tail.threshold).mean())
            assert tail.prob_lower_exceeds == tail.prob_upper_exceeds == frac


class TestEpsNetExactPath:
    N, T, C_MULT = 200, 20, 1.0

    @pytest.mark.parametrize("dom", [Sphere(1), IntervalUniform(), ArcsineInterval(), Cantor(40)],
                             ids=["circle", "interval", "arcsine", "cantor"])
    def test_verdicts_are_exact_without_a_net(self, dom, monkeypatch):
        eps = self.C_MULT * rho_scale(dom, self.N)
        seeds = [SeedSpec(4, t) for t in range(self.T)]
        ssets = [sample(dom, self.N, s) for s in seeds]
        rhos = np.array([covering_radius_1d(dom, x) for x in ssets])
        probe = probe_net(dom, eps / 20.0)  # the oracle's net on the Cantor set
        net_bounds = [covering_radius_bounds(dom, x.points, probe) for x in ssets]

        def no_net(*args):
            raise AssertionError("an eps-net study on a 1-D domain built a probe net")

        monkeypatch.setattr("covrad.experiments.build_probe_net", no_net)
        for s, rho in zip(seeds, rhos):
            assert _trial_bounds(dom, self.N, s, None) == (rho, rho)
        row = run_epsnet_study(dom, [self.N], self.T, self.C_MULT, master_seed=4)[0]
        exact = float((rhos <= eps).mean())
        assert row["eps"] == eps
        assert row["yes_fraction"] == row["yes_or_unknown_fraction"] == exact
        # the net's bracket: YES where U <= eps, YES or UNKNOWN where L <= eps
        yes = float(np.mean([b.upper <= eps for b in net_bounds]))
        yes_or_unknown = float(np.mean([b.lower <= eps for b in net_bounds]))
        assert yes <= exact <= yes_or_unknown


class TestWriter:
    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        out = tmp_path / "w.csv"
        writer = StudyWriter(str(out), ["x", "k"])
        writer.write([np.float64(0.9), np.int64(3)])
        writer.close({})
        assert out.read_text() == "x,k\n0.9,3\n"

    @staticmethod
    def _failing_study(out):
        def kernel(domain, n, seed, prepared):
            if n == 30 and seed.stream_id == 1:
                raise RuntimeError("kernel failed")
            return 0.5

        with pytest.raises(RuntimeError, match="kernel failed"):
            _run_study(IntervalUniform(), [20, 30], 3, 0,
                       reduce=lambda n, v: [{"N": n}], header=["N"], echo={},
                       out=str(out), kernel=kernel)

    def test_failed_study_keeps_earlier_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        run_expectation_study(StudyConfig(domain=IntervalUniform(), n_grid=[20], trials=3,
                                          out=str(out)))
        meta = tmp_path / "s.csv.meta.jsonl"
        before = out.read_bytes(), meta.read_bytes()
        self._failing_study(out)  # the row for N=20 is written before N=30 fails
        assert (out.read_bytes(), meta.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.meta.jsonl"]

    def test_failed_study_leaves_no_csv(self, tmp_path):
        self._failing_study(tmp_path / "s.csv")
        assert list(tmp_path.iterdir()) == []

    def test_unserialisable_config_leaves_no_file(self, tmp_path):
        out = tmp_path / "w.csv"
        writer = StudyWriter(str(out), ["x"])
        writer.write([1])
        with pytest.raises(TypeError):
            writer.close({"x": object()})
        assert not out.exists() and not writer.meta_path.exists()

    def test_unserialisable_echo_in_a_study_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            _run_study(IntervalUniform(), [20], 2, 0, reduce=lambda n, v: [{"N": n}],
                       header=["N"], echo={"x": object()}, out=str(tmp_path / "s.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_path_names_the_final_file(self, tmp_path):
        out = tmp_path / "w.csv"
        writer = StudyWriter(str(out), ["x"])
        assert writer.path == out and not out.exists()
        writer.write([1])
        writer.close({})
        assert out.read_text() == "x\n1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.csv", "w.csv.meta.jsonl"]


class TestSidecar:
    def test_rerun_leaves_one_line(self, tmp_path):
        out = tmp_path / "t.csv"
        for _ in range(2):
            run_tail_study(IntervalUniform(), 50, 5, [0.05], out=str(out))
        lines = (tmp_path / "t.csv.meta.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_tail_echoes_domain_and_study_parameters(self, tmp_path):
        configs = []
        for name, domain in (("cube2", Cube(2)), ("sphere2", Sphere(2))):
            out = tmp_path / f"{name}.csv"
            run_tail_study(domain, 50, 3, [0.2, 0.4], master_seed=5, probe_eta=0.3,
                           out=str(out))
            meta = json.loads((tmp_path / f"{name}.csv.meta.jsonl").read_text())
            configs.append(meta["config"])
        assert configs[0] != configs[1]
        assert configs[0]["domain"] == {"kind": "Cube", "params": {"d": 2}}
        assert {k: configs[1][k] for k in ("n_grid", "trials", "master_seed", "thresholds",
                                           "probe_eta")} == {
            "n_grid": [50], "trials": 3, "master_seed": 5, "thresholds": [0.2, 0.4],
            "probe_eta": 0.3}

    def test_numpy_integer_dimension(self, tmp_path):
        out = tmp_path / "s.csv"
        run_expectation_study(StudyConfig(domain=Sphere(np.int64(1)), n_grid=[20], trials=3,
                                          out=str(out)))
        meta = json.loads((tmp_path / "s.csv.meta.jsonl").read_text())
        assert meta["config"]["domain"] == {"kind": "Sphere", "params": {"d": 1}}

    def test_numpy_counts(self, tmp_path):
        # a NumPy grid, trial count and seed echo as Python ints, and the rows
        # are the list input's byte for byte
        configs = []
        for name, grid, trials, seed in (("np", np.array([50, 100]), np.int64(3), np.uint64(4)),
                                         ("list", [50, 100], 3, 4)):
            run_expectation_study(StudyConfig(domain=IntervalUniform(), n_grid=grid, trials=trials,
                                              master_seed=seed, out=str(tmp_path / f"{name}.csv")))
            configs.append(json.loads((tmp_path / f"{name}.csv.meta.jsonl").read_text())["config"])
        assert configs[0] == configs[1]
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    @pytest.mark.parametrize("run", [run_zn_study, run_random_vs_structured], ids=["zn", "versus"])
    def test_numpy_dimension_echo(self, tmp_path, run):
        run(np.int64(1), np.array([50]), np.int64(3), np.int64(2), out=str(tmp_path / "s.csv"))
        config = json.loads((tmp_path / "s.csv.meta.jsonl").read_text())["config"]
        assert (config["d"], config["n_grid"], config["trials"], config["master_seed"]) == (
            1, [50], 3, 2)

    @pytest.mark.parametrize("key,run", [
        ("thresholds", lambda v, out: run_tail_study(Cube(2), 50, 3, [v, 2 * v], out=out)),
        ("probe_eta", lambda v, out: run_tail_study(Cube(2), 50, 3, [0.2], probe_eta=v,
                                                    out=out)),
        ("c_mult", lambda v, out: run_epsnet_study(Sphere(1), [50], 3, v, out=out)),
        ("probe_eta", lambda v, out: run_expectation_study(
            StudyConfig(domain=Cube(2), n_grid=[50], trials=3, probe_eta=v, out=out))),
        ("p", lambda v, out: run_expectation_study(
            StudyConfig(domain=Cube(2), n_grid=[50], trials=3, p=v, out=out))),
        ("a_exponent", lambda v, out: run_arcsine_study(v, "interior", [50], 3, out=out)),
        ("probe_eta", lambda v, out: run_zn_study(1, [50], 3, probe_eta=v, out=out)),
    ], ids=["tail-thresholds", "tail-probe_eta", "epsnet-c_mult", "study-probe_eta", "study-p",
            "arcsine-a_exponent", "zn-probe_eta"])
    def test_numpy_float_parameter(self, tmp_path, key, run):
        # a float32 parameter runs as the Python float it holds, and is recorded
        # as one: its rows and sidecar config are float(v)'s byte for byte
        v = np.float32(1.3)
        configs = []
        for name, value in (("np", v), ("py", float(v))):
            run(value, str(tmp_path / f"{name}.csv"))
            configs.append(json.loads((tmp_path / f"{name}.csv.meta.jsonl").read_text())["config"])
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()
        assert configs[0] == configs[1]
        assert configs[0][key] == ([float(v), 2 * float(v)] if key == "thresholds" else float(v))

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_bad_seed_fails_before_the_first_trial(self, seed, monkeypatch):
        monkeypatch.setattr("covrad.experiments.check_budget",
                            lambda *a: pytest.fail("budget estimated for a bad seed"))
        with pytest.raises(ValueError, match="seeds must be"):
            run_tail_study(Cube(2), 50, 3, [0.2], master_seed=seed)

    @pytest.mark.parametrize("run,keys", [
        (lambda out: run_zn_study(1, [50], 3, 2, out=out), {"d", "probe_eta"}),
        (lambda out: run_arcsine_study(1.0, "interior", [50], 3, 2, out=out),
         {"a_exponent", "side"}),
        (lambda out: run_random_vs_structured(1, [50], 3, 2, out=out), {"d", "probe_eta"}),
        (lambda out: run_epsnet_study(Sphere(1), [50], 3, 3.0, 2, out=out), {"c_mult"}),
    ], ids=["zn", "arcsine", "versus", "epsnet"])
    def test_full_config_echo(self, tmp_path, run, keys):
        out = tmp_path / "s.csv"
        run(str(out))
        config = json.loads((tmp_path / "s.csv.meta.jsonl").read_text())["config"]
        assert {"study", "domain", "n_grid", "trials", "master_seed"} | keys <= set(config)
        assert config["master_seed"] == 2 and config["n_grid"] == [50]


class TestTailStudy:
    def test_extreme_thresholds(self):
        domain = IntervalUniform()
        rows = run_tail_study(domain, 100, 50, [0.0, 0.5, domain.diameter + 1.0])
        assert rows[0].prob_lower_exceeds == 1.0
        assert rows[-1].prob_upper_exceeds == 0.0

    def test_band_from_pilot(self):
        band = load_bands()["bands"]["tail_interval"]
        pilot = band["pilot"]
        n = pilot["N"]
        t = pilot["threshold_mult"] * math.log(n) / n
        rows = run_tail_study(IntervalUniform(), n, 200, [t],
                              master_seed=pilot["master_seed"])
        assert rows[0].prob_upper_exceeds <= band["max_prob"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            run_tail_study(IntervalUniform(), 100, 10, [0.2, 0.1])
        with pytest.raises(ValueError, match="threshold"):
            run_tail_study(IntervalUniform(), 100, 2, [True])  # once ran at 1.0

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            run_tail_study(IntervalUniform(), 100, 0, [0.1])


class TestZnStudy:
    def test_schema(self):
        rows = run_zn_study(1, [100], 2, 0)
        assert rows[0].trials == 2
        assert 0.0 <= rows[0].frac_within_01 <= rows[0].frac_within_02 <= 1.0

    def test_d2_band_from_pilot(self):
        band = load_bands()["bands"]["zn_sphere2"]
        rows = run_zn_study(2, [100], 30, band["pilot"]["master_seed"])
        lo, hi = band["mean_range"]
        assert lo < rows[0].mean < hi

    def test_d_validation(self):
        with pytest.raises(ValueError):
            run_zn_study(3, [100], 5)


class TestArcsineStudy:
    def test_rescaling_exponents(self):
        rows = run_arcsine_study(2.0, "right_edge", [100], 10, 0)
        assert rows[0].rescaled == pytest.approx(rows[0].mean_rho_p_lower * 100**2)
        rows = run_arcsine_study(1.0, "right_edge", [100], 10, 0)
        assert rows[0].rescaled == pytest.approx(
            rows[0].mean_rho_p_lower * 100**1.5 / math.log(100)
        )
        rows = run_arcsine_study(1.0, "interior", [100], 10, 0)
        assert rows[0].rescaled == pytest.approx(
            rows[0].mean_rho_p_lower * 100 / math.log(100)
        )


class TestVersusStudy:
    def test_exact_grid_value(self):
        rows = run_random_vs_structured(1, [100], 5, 0)
        assert rows[0]["grid_rho"] == pytest.approx(1.0 / 200.0)
        rows = run_random_vs_structured(2, [100], 5, 0)
        assert rows[0]["grid_rho"] == pytest.approx(math.sqrt(2.0) / 20.0)

    def test_ratio_above_one(self):
        band = load_bands()["bands"]["versus_d1"]
        rows = run_random_vs_structured(1, [100], 30, band["pilot"]["master_seed"])
        assert rows[0]["ratio"] > band["min_ratio"]

    def test_d_validation(self):
        with pytest.raises(ValueError):
            run_random_vs_structured(4, [100], 5)


class TestEpsNetStudy:
    def test_single_trial_fraction(self):
        rows = run_epsnet_study(Sphere(1), [100], 2, 3.0, 0)
        assert rows[0]["yes_fraction"] in (0.0, 0.5, 1.0)

    def test_c_mult_validation(self):
        for c_mult in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_mult must be finite and positive"):
                run_epsnet_study(Sphere(1), [100], 5, c_mult, 0)


class TestEpsNetNetDomains:
    """On the net domains a row's fractions count the study's own streams'
    covering_radius_bounds [L, U] against eps (YES where U <= eps, YES or
    UNKNOWN where L <= eps), on the net at probe_mesh_for(domain, N, c_mult/20)."""

    N_GRID, T, SEED = [100, 300], 10, 6

    @pytest.mark.parametrize("c_mult", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("dom", [Sphere(2), Ball(2), Cube(2), unit_box_polyhedron()],
                             ids=["sphere2", "ball2", "cube2", "unit_box"])
    def test_rows_count_is_eps_net_verdicts(self, dom, c_mult):
        rows = run_epsnet_study(dom, self.N_GRID, self.T, c_mult, master_seed=self.SEED)
        for n, row in zip(self.N_GRID, rows, strict=True):
            eps = c_mult * rho_scale(dom, n)
            net = build_probe_net(dom, probe_mesh_for(dom, n, c_mult / 20.0))
            bounds = [covering_radius_bounds(dom, sample(dom, n, SeedSpec(self.SEED, t)), net)
                      for t in range(self.T)]
            assert row["eps"] == eps
            assert row["yes_fraction"] == sum(b.upper <= eps for b in bounds) / self.T
            assert row["yes_or_unknown_fraction"] == sum(b.lower <= eps for b in bounds) / self.T


class TestGateMatchesRunner:
    """A study builds a probe net exactly where its domain has no exact path,
    once per N, at probe_mesh_for(domain, N, eta)."""

    @pytest.mark.parametrize("command", ["study", "epsnet"])
    @pytest.mark.parametrize("name", sorted(BUILTIN_DOMAINS))
    def test_net_built_where_estimated(self, name, command, monkeypatch, capsys):
        meshes = []

        def counted(domain, mesh):
            meshes.append(mesh)
            return build_probe_net(domain, mesh)

        monkeypatch.setattr("covrad.experiments.build_probe_net", counted)
        domain = BUILTIN_DOMAINS[name]
        if command == "study":
            eta = 0.5 if name == "unit_box" else 0.05
            flag = ["--eta", repr(eta)]
        else:
            c_mult = 10.0 if name == "unit_box" else 3.0
            eta = c_mult / 20.0
            flag = ["--c-mult", repr(c_mult)]
        assert cli_main([command, "--domain", name, "--n-grid", "50", "--trials", "2",
                         *flag]) == 0
        assert meshes == ([] if has_exact_path(domain) else [probe_mesh_for(domain, 50, eta)])


class TestFGrid:
    def test_rows(self, tmp_path):
        out = tmp_path / "f.csv"
        rows = dump_f_grid([100, 1000], [10.0, 50.0], [2, 5, 60], str(out))
        # m=60 is filtered out (violates m <= n)
        assert all(r["m"] <= r["n"] for r in rows)
        assert len(rows) == 8
        header = out.read_text().splitlines()[0]
        assert header == "N,n,m,f_dp,f_lower_bound"


class TestCli:
    def test_constants(self, capsys):
        assert cli_main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "3.141592653590" in out

    def test_study_runs(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main(["study", "--domain", "interval", "--n-grid", "50", "200",
                       "--trials", "30", "--out", str(out)])
        assert rc == 0
        assert out.exists() and out.with_suffix(".csv.meta.jsonl").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [50], "trials": 40, "domain": "interval"}))
        rc = cli_main(["study", "--config", str(cfg), "--trials", "35"])
        assert rc == 0
        assert "N=50" in capsys.readouterr().out

    def test_invalid_config_exit_code(self, capsys):
        assert cli_main(["study", "--domain", "interval", "--n-grid", "200", "50"]) == 1

    def test_missing_domain_file_exit_code(self, capsys):
        assert cli_main(["study", "--domain", "no_such_domain.json"]) == 1

    def test_unit_box_builtin(self, capsys):
        assert cli_main(["study", "--domain", "unit_box", "--n-grid", "50",
                         "--trials", "2", "--eta", "0.5"]) == 0

    def test_budget_exit_code(self, capsys):
        rc = cli_main(["study", "--domain", "sphere2", "--n-grid", "10000000",
                       "--trials", "1000"])
        assert rc == 2

    def test_fgrid(self, capsys):
        assert cli_main(["fgrid", "--N", "100", "--n", "10", "--m", "2", "5"]) == 0
        assert "f=" in capsys.readouterr().out

    def test_fgrid_one_cell_of_full_measure(self, capsys):
        assert cli_main(["fgrid", "--N", "5", "--n", "1", "--m", "1"]) == 0
        assert "f=0 lower=0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--trials", "3"], ["--seed", "1"], ["--force"]])
    def test_fgrid_rejects_study_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fgrid", *flag])
        assert exc.value.code == 2

    def test_domain_json_file(self, tmp_path, capsys):
        doc = tmp_path / "domain.json"
        doc.write_text(json.dumps({"kind": "Cube", "params": {"d": 2}}))
        rc = cli_main(["study", "--domain", str(doc), "--n-grid", "100",
                       "--trials", "5"])
        assert rc == 0

    def test_tail_zn_arcsine_epsnet_versus(self, capsys):
        assert cli_main(["tail", "--domain", "interval", "--n", "100",
                        "--trials", "20"]) == 0
        assert cli_main(["zn", "--d", "1", "--n-grid", "100", "--trials", "10"]) == 0
        assert cli_main(["arcsine", "--a", "2", "--n-grid", "100", "--trials", "10"]) == 0
        assert cli_main(["epsnet", "--domain", "circle", "--n-grid", "100",
                        "--trials", "5", "--c-mult", "3"]) == 0
        assert cli_main(["versus", "--d", "1", "--n-grid", "100", "--trials", "5"]) == 0


class TestBandsFile:
    def test_versioned_with_seeds(self):
        doc = load_bands()
        assert doc["version"] >= 1
        for name, band in doc["bands"].items():
            assert "pilot" in band, name
            assert "master_seed" in band["pilot"], name
