import csv
import json
import math

import numpy as np
import pytest

from lpmhd import lab, paracalc
from lpmhd import spectral as sp
from lpmhd.paracalc import commutator_family, commutator_split_family
from lpmhd.spaces import NormSpec, lp_norm, shell_lp_lq, tl_norm
from lpmhd.spectral import multiply, spectral_derivative


class TestValidation:
    def test_unknown_id(self):
        with pytest.raises(lab.UnknownInequalityError, match="unknown inequality id"):
            lab.run_inequalities([("no-such-estimate", None)])

    @pytest.mark.parametrize(
        "iid,params,needle",
        [
            ("product", {"s": -0.5}, "s > 0"),
            ("commutator-A2", {"s": 0.0}, "s > 0"),
            ("commutator-A3", {"s": -1.0}, "s > -1"),
            ("term-II", {"s": 0.0}, "s > 0"),
            ("term-IV", {"s": -1.5}, "s > -1"),
            ("pressure-3.11", {"s": 1.0}, "s > 1"),
            ("bernstein", {"k": -1}, "k >= 0"),
            ("bernstein", {"kmax": 0}, "kmax >= 1"),
            ("vector-maximal", {"family": 0}, "family >= 1"),
            ("vector-maximal", {"p": 0}, "1 < p < inf"),
            ("vector-maximal", {"p": 1.0}, "1 < p < inf"),
            ("vector-maximal", {"p": math.inf}, "1 < p < inf"),
            ("vector-maximal", {"q": 0.5}, "1 < q <= inf"),
            ("vector-maximal", {"q": 1.0}, "1 < q <= inf"),
        ],
    )
    def test_hypotheses_named(self, iid, params, needle):
        with pytest.raises(lab.HypothesisError) as err:
            lab.run_inequalities([(iid, params)], trials=1)
        assert needle in str(err.value)

    def test_bernstein_direction_named(self):
        with pytest.raises(lab.HypothesisError, match="direction in"):
            lab.run_inequalities([("bernstein", {"direction": "sideways"})], trials=1)

    def test_tables_name_known_ids(self):
        # a misspelled key would silently drop a hypothesis or a right-hand side
        commutator_ids = {
            iid for iid, (_, evaluate) in lab._EVALUATORS.items()
            if evaluate is lab._commutator_ratios
        }
        assert set(lab._COMMUTATOR_RHS) == commutator_ids
        assert set(lab._S_BOUND) <= set(lab.INEQUALITY_IDS)

    def test_unknown_param_key(self):
        with pytest.raises(lab.HypothesisError, match="unknown parameter"):
            lab.run_inequalities([("bernstein", {"spam": 1})], trials=1)

    def test_sweep_needs_two_resolutions(self):
        with pytest.raises(lab.HypothesisError, match="2 resolutions"):
            lab.stability_sweeps([("bernstein", {})], resolutions=(64,), trials=1)

    def test_sweep_rejects_repeated_resolutions(self):
        with pytest.raises(lab.HypothesisError, match="repeat"):
            lab.stability_sweeps([("bernstein", {})], resolutions=(64, 64), trials=1)
        with pytest.raises(lab.HypothesisError, match="repeat"):
            lab.stability_sweeps(
                [("term-I", None), ("term-II", None)], resolutions=(32, 64, 32), trials=1
            )

    @pytest.mark.parametrize("resolutions", [(32.9, 64), (True, 64)], ids=["float", "bool"])
    def test_sweep_rejects_non_integer_resolutions(self, resolutions):
        # 32.9 used to run (and be reported) as 32
        with pytest.raises(lab.HypothesisError, match="must be integers"):
            lab.stability_sweeps([("bernstein", {})], resolutions=resolutions, trials=1)
        with pytest.raises(lab.HypothesisError, match="must be integers"):
            lab.stability_sweeps([("term-I", None)], resolutions=resolutions, trials=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(lab.HypothesisError, match="at least one trial"):
            lab.run_inequalities([("bernstein", {})], trials=trials)
        with pytest.raises(lab.HypothesisError, match="at least one trial"):
            lab.run_inequalities(
                [("term-I", None), ("commutator-A2", None)], trials=trials
            )
        with pytest.raises(lab.HypothesisError, match="at least one trial"):
            lab.stability_sweeps([("bernstein", {})], trials=trials)
        with pytest.raises(lab.HypothesisError, match="at least one trial"):
            lab.stability_sweeps([("term-I", {})], trials=trials)


class TestBernstein:
    def test_single_mode_ratio_is_one(self):
        # f = cos(2^j x1): the derivative ratio is exactly 1 at p = 2
        grid = sp.Grid(2, 64)
        for j in range(0, 5):
            f = sp.from_function(grid, lambda x, y, j=j: np.cos(2.0**j * x))
            num = lp_norm(spectral_derivative(f, (1, 0)), 2)
            den = 2.0**j * lp_norm(f, 2)
            assert abs(num / den - 1.0) <= 1e-12

    def test_forward_and_reverse_run(self):
        fwd = lab.run_inequalities([("bernstein", {"n": 64})], trials=12, seed=3)[0]
        rev = lab.run_inequalities(
            [("bernstein", {"n": 64, "direction": "reverse"})], trials=12, seed=3
        )[0]
        assert fwd.finite and rev.finite

    def test_higher_order(self):
        rep = lab.run_inequalities([("bernstein", {"n": 64, "k": 2})], trials=8, seed=4)[0]
        assert rep.finite


class TestReports:
    def test_reproducible_bit_for_bit(self):
        a = lab.run_inequalities([("product", {"n": 64})], trials=8, seed=11)[0]
        b = lab.run_inequalities([("product", {"n": 64})], trials=8, seed=11)[0]
        assert np.array_equal(a.ratios, b.ratios)

    def test_scaling_invariance(self):
        for iid in ("product", "commutator-A2", "term-II"):
            a = lab.run_inequalities([(iid, {"n": 64, "amplitude": 1.0})],
                                     trials=4, seed=5)[0]
            b = lab.run_inequalities([(iid, {"n": 64, "amplitude": 3.7})],
                                     trials=4, seed=5)[0]
            assert np.max(np.abs(a.ratios - b.ratios)) <= 1e-10 * np.max(a.ratios)

    def test_json_roundtrip(self, tmp_path):
        rep = lab.run_inequalities([("riesz-bounded", {"n": 64})], trials=5, seed=6)[0]
        path = tmp_path / "r.json"
        lab.write_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["inequality_id"] == "riesz-bounded"
        assert data["max_ratio"] == rep.max_ratio
        assert len(data["ratios"]) == 5

    def test_summary_lines(self):
        rep = lab.run_inequalities([("majorant", {"n": 64})], trials=3, seed=7)[0]
        lines = lab.summary_csv_lines([rep])
        assert lines[0].startswith("inequality_id,")
        assert lines[1].startswith("majorant,")

    def test_summary_csv_round_trip(self):
        # the params field holds strict JSON, commas and quotes included
        reps = [lab.run_inequalities([("vector-maximal", {"n": 32, "q": math.inf, "p": 3})],
                                     trials=2, seed=7)[0],
                lab.run_inequalities([("majorant", {"n": 32})], trials=2, seed=7)[0]]
        header, *rows = csv.reader(lab.summary_csv_lines(reps))
        assert header == ["inequality_id", "params", "max_ratio", "growth_factor"]
        for rep, row in zip(reps, rows, strict=True):
            assert row[0] == rep.inequality_id
            assert json.loads(row[1]) == lab._json_ready(rep.params)
            assert float(row[2]) == rep.max_ratio
            assert row[3] == ""

    def test_non_finite_values_are_strict_json(self, tmp_path):
        # both report shapes spell inf/nan as strings, as config.yaml does
        rep = lab.InequalityReport("vector-maximal", {"q": math.inf}, 2, 16, 1, 0,
                                   np.array([math.nan]), growth_factor=-math.inf)
        sweep = lab.SweepResult("vector-maximal", [16, 32], [rep], [math.inf])

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        for result in (rep, sweep):
            path = tmp_path / "r.json"
            lab.write_report_json(result, path)
            data = json.loads(path.read_text(), parse_constant=reject)
            single = data["reports"][0] if result is sweep else data
            assert single["params"]["q"] == "inf"
            assert single["ratios"] == ["nan"] and single["max_ratio"] == "nan"
            assert single["growth_factor"] == "-inf"
        assert data["growth_factors"] == ["inf"] and data["max_growth"] == "inf"
        _, row = csv.reader(lab.summary_csv_lines([rep]))
        assert json.loads(row[1], parse_constant=reject)["q"] == "inf"


class TestSharpCases:
    def test_riesz_contraction(self):
        rep = lab.run_inequalities([("riesz-bounded", {"n": 64})], trials=20, seed=8)[0]
        assert rep.max_ratio <= 1.0 + 1e-10

    def test_majorant_within_slack(self):
        rep = lab.run_inequalities([("majorant", {"n": 64})], trials=20, seed=9)[0]
        assert rep.max_ratio <= 1.05

    def test_product_with_constant_factor(self):
        # g = 1: fg = f and the right side dominates by the ||g||_inf term
        grid = sp.Grid(2, 64)
        f = sp.random_band_limited(grid, seed=10)
        g = sp.from_function(grid, lambda x, y: np.ones_like(x))
        spec = NormSpec(1.5, 2, 2)
        lhs = tl_norm(multiply(f, g), spec)
        rhs = lp_norm(f, math.inf) * tl_norm(g, spec) + lp_norm(
            g, math.inf
        ) * tl_norm(f, spec)
        assert lhs / rhs <= 1.0 + 1e-12

    def test_commutator_constant_advector_zero_ratio(self):
        grid = sp.Grid(2, 64)
        f = sp.RealField(
            grid, values=np.stack([np.ones(grid.shape), np.zeros(grid.shape)]),
            solenoidal=True,
        )
        g = sp.random_band_limited(grid, seed=12)
        from lpmhd.paracalc import commutator_family
        from lpmhd.spaces import shell_lp_lq

        fam = commutator_family(f, g)
        stack = np.stack([fam[k].magnitude() for k in grid.js])
        lhs = shell_lp_lq(stack, grid.js, 1.5, 2, 2)
        assert lhs <= 1e-10


class TestAllFinite:
    @pytest.mark.parametrize("iid", lab.INEQUALITY_IDS)
    def test_runs_and_finite(self, iid):
        rep = lab.run_inequalities([(iid, {"n": 64})], trials=3, seed=13)[0]
        assert rep.finite
        assert rep.max_ratio > 0

    def test_both_commutator_hypotheses_on_shared_data(self):
        a2 = lab.run_inequalities([("commutator-A2", {"n": 64, "s": 1.5})],
                                  trials=5, seed=14)[0]
        a3 = lab.run_inequalities([("commutator-A3", {"n": 64, "s": 1.5})],
                                  trials=5, seed=14)[0]
        assert a2.finite and a3.finite


class TestSweep:
    def test_growth_factors(self):
        sw = lab.stability_sweeps(
            [("deriv-equiv", {})], resolutions=(64, 128), trials=10, seed=15
        )[0]
        assert len(sw.reports) == 2
        assert len(sw.growth_factors) == 1
        assert sw.reports[0].params["kmax"] == 64 // 6
        assert sw.reports[1].growth_factor == sw.growth_factors[0]
        # identical continuum fields: the ratios barely move
        assert abs(sw.growth_factors[0] - 1.0) <= 0.05

    def test_vector_maximal_q_inf(self):
        rep = lab.run_inequalities(
            [("vector-maximal", {"n": 64, "p": 2.0, "q": math.inf})], trials=4, seed=16
        )[0]
        assert rep.finite


COMMUTATOR_IDS = (
    "commutator-A2", "commutator-A3", "term-I", "term-II", "term-III", "term-IV"
)

# the 13 (id, params) jobs of acceptance criterion 5
CRITERION_5_JOBS = (
    [(iid, {"s": 1.5, "p": 2.0, "q": 2.0}) for iid in COMMUTATOR_IDS]
    + [(iid, {"s": 2.5, "p": 4.0, "q": 2.0}) for iid in COMMUTATOR_IDS]
    + [("commutator-A3", {"s": -0.5, "p": 2.0, "q": 2.0})]
)


def counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


class TestGrouping:
    """Jobs evaluated together give the reports of separate calls."""

    @pytest.mark.parametrize(
        "spq, override",
        [
            ((1.5, 2.0, 2.0), {}),
            # a per-id override of a draw key starts its own group
            ((2.5, 4.0, 2.0), {"term-II": {"kmax": 3}}),
        ],
    )
    def test_sweeps_match_single_sweeps(self, spq, override):
        s, p, q = spq
        jobs = [
            (iid, {"s": s, "p": p, "q": q, **override.get(iid, {})})
            for iid in COMMUTATOR_IDS
        ]
        together = lab.stability_sweeps(jobs, resolutions=(32, 64), trials=3, seed=17)
        assert [sw.inequality_id for sw in together] == list(COMMUTATOR_IDS)
        for (iid, params), sweep in zip(jobs, together):
            alone = lab.stability_sweeps(
                [(iid, params)], resolutions=(32, 64), trials=3, seed=17
            )[0]
            assert sweep.to_dict() == alone.to_dict()
            for a, b in zip(sweep.reports, alone.reports):
                assert a.params == b.params
                assert np.array_equal(a.ratios, b.ratios)

    @pytest.mark.parametrize(
        "iid, specs",
        [
            ("commutator-A3", [(1.5, 2.0, 2.0), (2.5, 4.0, 2.0), (-0.5, 2.0, 2.0)]),
            ("vector-maximal", [(None, 2.0, 2.0), (None, 4.0, 2.0), (None, 2.0, math.inf)]),
        ],
    )
    def test_one_id_at_three_specs(self, iid, specs):
        # one call holds the id three times; each job's ratios are those of
        # its own one-job run
        jobs = [
            (iid, {"n": 32, "kmax": 5, "p": p, "q": q, **({} if s is None else {"s": s})})
            for s, p, q in specs
        ]
        together = lab.run_inequalities(jobs, trials=3, seed=18)
        assert [rep.params["p"] for rep in together] == [p for _, p, _ in specs]
        for (_, params), rep in zip(jobs, together):
            alone = lab.run_inequalities([(iid, params)], trials=3, seed=18)[0]
            assert rep.params == alone.params
            assert np.array_equal(rep.ratios, alone.ratios)

    def test_one_evaluation_per_trial(self, monkeypatch):
        calls = {"direct": 0, "split": 0}
        monkeypatch.setattr(
            lab, "commutator_family", counted(calls, "direct", lab.commutator_family)
        )
        monkeypatch.setattr(
            lab, "commutator_split_family",
            counted(calls, "split", lab.commutator_split_family),
        )
        lab.stability_sweeps(
            [(iid, None) for iid in COMMUTATOR_IDS], resolutions=(32, 64), trials=2, seed=3
        )
        assert calls == {"direct": 4, "split": 4}
        calls.update(direct=0, split=0)
        params = {"n": 32}
        lab.run_inequalities([("term-I", params), ("term-IV", params)], trials=2, seed=3)
        assert calls == {"direct": 0, "split": 2}
        # criterion 5's three (s, p, q) share one draw: still one direct and
        # one split family per trial and resolution
        calls.update(direct=0, split=0)
        sweeps = lab.stability_sweeps(
            CRITERION_5_JOBS, resolutions=(32, 64), trials=2, seed=42
        )
        assert len(sweeps) == 13
        assert calls == {"direct": 4, "split": 4}

    def test_vector_maximal_one_maximization_per_trial(self, monkeypatch):
        calls = {"maximal": 0}
        monkeypatch.setattr(
            lab, "maximal_function", counted(calls, "maximal", lab.maximal_function)
        )
        jobs = [("vector-maximal", {"n": 32, "p": p, "q": q})
                for p, q in ((2.0, 2.0), (4.0, 2.0), (2.0, math.inf))]
        lab.run_inequalities(jobs, trials=2, seed=7)
        assert calls == {"maximal": 2 * 8}

    def test_no_state_between_calls(self, count_transforms):
        counts = count_transforms()
        sizes = []
        for _ in range(2):
            counts.clear()
            lab.stability_sweeps(
                [(iid, None) for iid in COMMUTATOR_IDS], resolutions=(32, 64),
                trials=1, seed=4,
            )
            sizes.append(sum(counts))
        assert sizes[0] == sizes[1] > 0


class TestCommutatorLhs:
    """The p = q = 2 commutator norm comes from the coefficients."""

    @pytest.mark.parametrize(
        "grid",
        [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
        ids=["2d-64", "2d-128", "3d-16", "3d-32"],
    )
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_plancherel_matches_magnitudes(self, grid, vector):
        f = sp.random_solenoidal(grid, seed=70, decay=2.0)
        g = sp.random_band_limited(
            grid, seed=71, decay=2.0, ncomp=grid.dimension if vector else 1
        )
        splits = commutator_split_family(f, g)
        families = [commutator_family(f, g)] + [
            {k: splits[k].terms[key] for k in grid.js} for key in ("I", "II", "III", "IV")
        ]
        for fields in families:
            for s in (-0.5, 1.5):
                got = lab._commutator_lhs(fields, grid, s, 2.0, 2.0)
                stack = np.stack([fields[k].magnitude() for k in grid.js])
                want = shell_lp_lq(stack, grid.js, s, 2.0, 2.0)
                assert want > 0
                assert abs(got - want) <= 1e-12 * want

    @staticmethod
    def _trial_transforms(count_transforms, **extra):
        p = dict(lab._COMMUTATOR, **extra)
        grid, kmax = lab._grid_and_kmax(p)
        counts = count_transforms()
        ratios = lab._commutator_ratios(
            [(iid, p) for iid in COMMUTATOR_IDS], grid, kmax, 0, 0
        )
        assert len(ratios) == len(COMMUTATOR_IDS)
        return sum(counts)

    def test_trial_transform_count(self, count_transforms):
        # one trial of the six commutator ids at p = q = 2: the draw, the
        # two families on one workspace (26 + 50) and the right-hand-side
        # factors; no commutator field is inverse-transformed for its norm
        assert self._trial_transforms(count_transforms, n=64, kmax=10) == 85

    def test_p4_trial_transform_count(self, count_transforms):
        # p = 4 on the full band at N=128: every nonempty shell of the six
        # left-hand sides and of the Triebel-Lizorkin factors is
        # inverse-transformed for its magnitude, and the 12 exactly empty
        # ones are not
        assert self._trial_transforms(count_transforms, n=128, p=4.0) == 209

    def test_trial_shares_one_workspace(self, monkeypatch):
        # one trial builds one workspace and calls each public family once
        built, calls = [], []

        class Counted(paracalc._CommutatorWorkspace):
            def __init__(self, f, g):
                built.append(1)
                super().__init__(f, g)

        def counted(fn):
            def wrapper(f, g):
                calls.append(fn.__name__)
                return fn(f, g)

            return wrapper

        monkeypatch.setattr(paracalc, "_CommutatorWorkspace", Counted)
        for name in ("commutator_family", "commutator_split_family"):
            monkeypatch.setattr(lab, name, counted(getattr(lab, name)))
        p = dict(lab._COMMUTATOR, n=64, kmax=10)
        grid, kmax = lab._grid_and_kmax(p)
        lab._commutator_ratios([(iid, p) for iid in COMMUTATOR_IDS], grid, kmax, 0, 0)
        assert built == [1]
        assert sorted(calls) == ["commutator_family", "commutator_split_family"]
