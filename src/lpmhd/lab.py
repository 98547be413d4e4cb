"""Randomized, seeded verification harness for the quantitative estimates:
Bernstein, derivative norm equivalence, the product estimate, the vector
maximal inequality, the radial-majorant bound, the pressure bound, the
advective commutator estimates and their four per-term bounds, plus the
sharp Riesz-transform spot check.

Empirical constants are reported, never compared to theoretical values;
acceptance is finiteness plus stability across resolution (stability_sweeps
reruns identical seeds at each N, so for band-limited generators the same
continuum fields are measured on finer lattices).

`run_inequalities` and `stability_sweeps` take several ids at once and
evaluate each trial once per group of ids that share its work: the
commutator ids (A2, A3, term-I..IV) with equal merged params draw one
(f, g) pair per trial, build the direct and the split commutator family at
most once each, and compute each right-hand-side factor once.  At
p = q = 2 a commutator norm is sqrt(sum_k 2^{2ks} ||C_k||_2^2), taken by
Plancherel from the family's coefficients, so no commutator field is
inverse-transformed.  Nothing is kept between trials or calls.  Reports are reproducible bit-for-bit from
(id, params, seed), whichever ids are evaluated beside them;
`run_inequality` and `stability_sweep` are the one-id forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from . import mhd
from .paracalc import commutator_family, commutator_split_family
from .spaces import (
    NormSpec,
    gaussian_convolve,
    lp_norm,
    maximal_function,
    shell_lp_lq,
    tl_norm,
)
from .spectral import (
    Grid,
    dyadic_block,
    jacobian,
    jacobian_sup_norm,
    low_pass,
    multiply,
    random_band_limited,
    random_solenoidal,
    riesz,
    shell_energies,
    spectral_derivative,
)

INF = math.inf


class UnknownInequalityError(ValueError):
    """Inequality id not recognized by the harness."""


class HypothesisError(ValueError):
    """Parameters violate the inequality's stated hypothesis."""


@dataclass
class InequalityReport:
    inequality_id: str
    params: dict
    dimension: int
    points: int
    trials: int
    seed: int
    ratios: np.ndarray
    growth_factor: float | None = None

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.ratios)) and np.all(self.ratios >= 0))

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "params": self.params,
            "dimension": self.dimension,
            "points": self.points,
            "trials": self.trials,
            "seed": self.seed,
            "max_ratio": self.max_ratio,
            "growth_factor": self.growth_factor,
            "ratios": [float(r) for r in self.ratios],
        }


def _trial_seed(seed: int, trial: int, stream: int = 0):
    return np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream))


def _draw(p, grid, kmax, seed, trial, stream=0, sampler=random_band_limited):
    """Stream `stream` of one trial's random fields, drawn by `sampler` with
    the id's decay and amplitude under the band limit kmax."""
    return sampler(
        grid, _trial_seed(seed, trial, stream), decay=p["decay"], kmax=kmax,
        amplitude=p["amplitude"],
    )


def _norm_params(params: dict, defaults: dict, inequality_id: str) -> dict:
    merged = dict(defaults)
    unknown = set(params) - set(defaults)
    if unknown:
        raise HypothesisError(
            f"unknown parameter(s) {sorted(unknown)} for inequality '{inequality_id}'"
        )
    merged.update(params)
    return merged


def _require(cond: bool, inequality_id: str, hypothesis: str):
    if not cond:
        raise HypothesisError(
            f"inequality '{inequality_id}' requires {hypothesis}"
        )


_COMMON = {"d": 2, "n": 64, "decay": 2.0, "kmax": None, "amplitude": 1.0}


def _grid_and_kmax(p: dict):
    grid = Grid(p["d"], p["n"])
    kmax = p["kmax"] if p["kmax"] is not None else grid.dealias_limit
    return grid, kmax


def _multi_indices(d: int, k: int):
    out = []
    for combo in combinations_with_replacement(range(d), k):
        alpha = [0] * d
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


# ---------------------------------------------------------------------------
# per-id trial runners
# ---------------------------------------------------------------------------


def _bernstein(p, grid, kmax, seed, trial):
    # shell assignment tied to the band limit, not the grid, so sweeps
    # measure identical cases at every resolution
    j_band = max(2, int(math.floor(math.log2(kmax))))
    j = 1 + trial % j_band
    f = _draw(p, grid, kmax, seed, trial)
    k = p["k"]
    if p["direction"] == "forward":
        f = low_pass(f, j)
        sup = max(
            lp_norm(spectral_derivative(f, alpha), p["p"])
            for alpha in _multi_indices(grid.dimension, k)
        )
        denom = 2.0 ** (j * k) * lp_norm(f, p["p"])
    else:
        f = dyadic_block(f, j)
        sup = lp_norm(f, p["p"])
        denom = max(
            2.0 ** (-j * k) * lp_norm(spectral_derivative(f, alpha), p["p"])
            for alpha in _multi_indices(grid.dimension, k)
        )
    return sup / denom if denom > 0 else 0.0


def _deriv_equiv(p, grid, kmax, seed, trial):
    f = _draw(p, grid, kmax, seed, trial)
    upper = tl_norm(f, NormSpec(p["s"] + 1.0, p["p"], p["q"]))
    lower = tl_norm(jacobian(f), NormSpec(p["s"], p["p"], p["q"]))
    if upper == 0.0 or lower == 0.0:
        return 0.0
    r = upper / lower
    return max(r, 1.0 / r)


def _product(p, grid, kmax, seed, trial):
    f = _draw(p, grid, kmax, seed, trial)
    g = _draw(p, grid, kmax, seed, trial, 1)
    spec = NormSpec(p["s"], p["p"], p["q"], homogeneous=p["homogeneous"])
    lhs = tl_norm(multiply(f, g), spec)
    rhs = lp_norm(f, INF) * tl_norm(g, spec) + lp_norm(g, INF) * tl_norm(f, spec)
    return lhs / rhs


def _vector_maximal(p, grid, kmax, seed, trial):
    fields = [
        _draw(p, grid, kmax, seed, trial, i)
        for i in range(p["family"])
    ]
    raw = np.stack([np.abs(f.values[0]) for f in fields])
    maxed = np.stack([maximal_function(f).values[0] for f in fields])
    idx = range(len(fields))
    lhs = shell_lp_lq(maxed, idx, 0.0, p["p"], p["q"])
    rhs = shell_lp_lq(raw, idx, 0.0, p["p"], p["q"])
    return lhs / rhs


def _majorant(p, grid, kmax, seed, trial):
    f = _draw(p, grid, kmax, seed, trial)
    mf = maximal_function(f).values[0]
    best = np.abs(f.values[0]).copy()
    eps = grid.spacing
    while eps <= math.pi / 2.0:
        np.maximum(best, np.abs(gaussian_convolve(f, eps).values[0]), out=best)
        eps *= 2.0
    # A = integral of the Gaussian's radial majorant = 1
    return float(np.max(best / mf))


def _solenoidal_pair(p, grid, kmax, seed, trial):
    f = _draw(p, grid, kmax, seed, trial, sampler=random_solenoidal)
    g = _draw(p, grid, kmax, seed, trial, 1)
    return f, g


def _commutator_lhs(fields_by_k, grid, s, pp, qq):
    """|| 2^{ks} |C_k(x)| ||_{L^p(l^q)} of a commutator family {k: C_k}.  At
    p = q = 2 it is sqrt(sum_k 2^{2ks} ||C_k||_2^2), by Plancherel from the
    coefficients with no transform; other (p, q) reduce the magnitudes."""
    if pp == qq == 2.0:
        energies = [shell_energies(fields_by_k[k])[1] for k in grid.js]
        weights = 2.0 ** (2.0 * s * np.asarray(grid.js, dtype=float))
        return math.sqrt(float(weights @ energies))
    stack = np.stack([fields_by_k[k].magnitude() for k in grid.js])
    return shell_lp_lq(stack, grid.js, s, pp, qq)


_TERM_OF = {"term-I": "I", "term-II": "II", "term-III": "III", "term-IV": "IV"}


class _PairFactors:
    """The right-hand-side factors of one trial's (f, g), each evaluated on
    first use only."""

    def __init__(self, f, g, spec):
        self.f, self.g, self.spec = f, g, spec

    @cached_property
    def jac_f(self):
        return jacobian_sup_norm(self.f)

    @cached_property
    def jac_g(self):
        return jacobian_sup_norm(self.g)

    @cached_property
    def tl_f(self):
        return tl_norm(self.f, self.spec)

    @cached_property
    def tl_g(self):
        return tl_norm(self.g, self.spec)


def _commutator_ratios(ids, p, grid, kmax, seed, trial):
    """Ratios of the commutator ids (A2, A3, term-I..IV) on one trial's
    (f, g): the direct family, the split family and each right-hand-side
    factor are computed at most once, and nothing outlives the trial."""
    f, g = _solenoidal_pair(p, grid, kmax, seed, trial)
    s, pp, qq = p["s"], p["p"], p["q"]
    spec = NormSpec(s, pp, qq)
    rhs = _PairFactors(f, g, spec)
    out = {}
    if "commutator-A2" in ids or "commutator-A3" in ids:
        lhs = _commutator_lhs(commutator_family(f, g), grid, s, pp, qq)
        if "commutator-A2" in ids:
            out["commutator-A2"] = lhs / (rhs.jac_f * rhs.tl_g + rhs.jac_g * rhs.tl_f)
        if "commutator-A3" in ids:
            out["commutator-A3"] = lhs / (
                rhs.jac_f * rhs.tl_g + lp_norm(g, INF) * tl_norm(jacobian(f), spec)
            )
    terms = [iid for iid in dict.fromkeys(ids) if iid in _TERM_OF]
    if terms:
        splits = commutator_split_family(f, g)
        for iid in terms:
            key = _TERM_OF[iid]
            fields = {k: splits[k].terms[key] for k in grid.js}
            lhs = _commutator_lhs(fields, grid, s, pp, qq)
            if key in ("I", "IV"):
                out[iid] = lhs / (rhs.jac_f * rhs.tl_g)
            else:
                out[iid] = lhs / (rhs.jac_g * rhs.tl_f)
    return out


def _riesz_bounded(p, grid, kmax, seed, trial):
    f = _draw(p, grid, kmax, seed, trial)
    axis = trial % grid.dimension
    spec = NormSpec(p["s"], 2.0, 2.0)
    denom = tl_norm(f, spec)
    return tl_norm(riesz(f, axis), spec) / denom


def _pressure(p, grid, kmax, seed, trial):
    zp = _draw(p, grid, kmax, seed, trial, sampler=random_solenoidal)
    zm = _draw(p, grid, kmax, seed, trial, 1, sampler=random_solenoidal)
    state = mhd.ElsasserState(zp, zm)
    spec = NormSpec(p["s"], p["p"], p["q"])
    lhs = tl_norm(mhd.pressure_gradient(state), spec)
    rhs = jacobian_sup_norm(zm) * tl_norm(zp, spec) + jacobian_sup_norm(
        zp
    ) * tl_norm(zm, spec)
    return lhs / rhs


def _alone(fn):
    """Evaluator of an id that shares no work with other ids: fn returns
    the one ratio of a trial."""

    def evaluate(ids, p, grid, kmax, seed, trial):
        return {ids[0]: fn(p, grid, kmax, seed, trial)}

    return evaluate


@dataclass(frozen=True)
class _Runner:
    """An id's default params, its hypothesis check, and its evaluator
    ``(ids, p, grid, kmax, seed, trial) -> {id: ratio}``.  Ids with the same
    evaluator share each trial's work when their params are equal."""

    defaults: dict
    evaluate: object
    validate: object = None


_COMMUTATOR = {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0}

_RUNNERS = {
    "bernstein": _Runner(
        {**_COMMON, "k": 1, "p": 2.0, "direction": "forward"},
        _alone(_bernstein),
        lambda p: _require(
            p["direction"] in ("forward", "reverse"), "bernstein",
            "direction in {forward, reverse}",
        ),
    ),
    "deriv-equiv": _Runner(
        {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0}, _alone(_deriv_equiv)
    ),
    "product": _Runner(
        {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0, "homogeneous": True},
        _alone(_product),
        lambda p: _require(p["s"] > 0, "product", "s > 0"),
    ),
    "vector-maximal": _Runner(
        {**_COMMON, "p": 2.0, "q": 2.0, "family": 8}, _alone(_vector_maximal)
    ),
    "majorant": _Runner(dict(_COMMON), _alone(_majorant)),
    "commutator-A2": _Runner(
        _COMMUTATOR,
        _commutator_ratios,
        lambda p: _require(p["s"] > 0, "commutator-A2", "s > 0"),
    ),
    "commutator-A3": _Runner(
        _COMMUTATOR,
        _commutator_ratios,
        lambda p: _require(p["s"] > -1, "commutator-A3", "s > -1"),
    ),
    "term-I": _Runner(_COMMUTATOR, _commutator_ratios),
    "term-II": _Runner(
        _COMMUTATOR,
        _commutator_ratios,
        lambda p: _require(p["s"] > 0, "term-II", "s > 0"),
    ),
    "term-III": _Runner(_COMMUTATOR, _commutator_ratios),
    "term-IV": _Runner(
        _COMMUTATOR,
        _commutator_ratios,
        lambda p: _require(p["s"] > -1, "term-IV", "s > -1"),
    ),
    "riesz-bounded": _Runner({**_COMMON, "s": 1.5}, _alone(_riesz_bounded)),
    "pressure-3.11": _Runner(
        {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0},
        _alone(_pressure),
        lambda p: _require(
            p["s"] > 1, "pressure-3.11", "s > 1 (the product estimate is applied at order s - 1)"
        ),
    ),
}

INEQUALITY_IDS = tuple(sorted(_RUNNERS))


def _check_trials(trials: int):
    if trials < 1:
        raise HypothesisError(f"trials = {trials}: at least one trial is required")


def _job(inequality_id: str, params: dict | None):
    """(runner, merged params) of one id, validated before any trial runs."""
    if inequality_id not in _RUNNERS:
        raise UnknownInequalityError(
            f"unknown inequality id '{inequality_id}'; known: {', '.join(INEQUALITY_IDS)}"
        )
    runner = _RUNNERS[inequality_id]
    p = _norm_params(params or {}, runner.defaults, inequality_id)
    if runner.validate is not None:
        runner.validate(p)
    return runner, p


def run_inequalities(
    ids, params_by_id: dict | None = None, trials: int = 200, seed: int = 0
) -> list:
    """Measure per-trial LHS/RHS ratios for several inequalities on seeded
    random fields, one report per id in the order given; a report's max
    ratio is the empirical constant.

    Ids with the same evaluator and equal merged params form one group, and
    each trial of a group is evaluated once for all its ids: the commutator
    ids (A2, A3, term-I..IV) draw their (f, g) pair and build each
    commutator family once per trial.  A report depends only on its own
    (id, params, seed), so it is the same whichever ids run beside it."""
    _check_trials(trials)
    params_by_id = params_by_id or {}
    jobs = [_job(iid, params_by_id.get(iid)) for iid in ids]
    groups = {}
    for pos, (runner, p) in enumerate(jobs):
        key = (runner.evaluate, repr(sorted(p.items())))
        groups.setdefault(key, []).append(pos)
    ratios = [[] for _ in jobs]
    for (evaluate, _), members in groups.items():
        p = jobs[members[0]][1]
        grid, kmax = _grid_and_kmax(p)
        group_ids = [ids[pos] for pos in members]
        for t in range(trials):
            got = evaluate(group_ids, p, grid, kmax, seed, t)
            for pos in members:
                ratios[pos].append(got[ids[pos]])
    reports = []
    for iid, (_, p), r in zip(ids, jobs, ratios):
        grid = Grid(p["d"], p["n"])
        reports.append(
            InequalityReport(
                inequality_id=iid,
                params=dict(p),
                dimension=grid.dimension,
                points=grid.points,
                trials=trials,
                seed=seed,
                ratios=np.array(r),
            )
        )
    return reports


def run_inequality(
    inequality_id: str, params: dict | None = None, trials: int = 200, seed: int = 0
) -> InequalityReport:
    """``run_inequalities`` for one id."""
    return run_inequalities([inequality_id], {inequality_id: params}, trials, seed)[0]


@dataclass
class SweepResult:
    inequality_id: str
    resolutions: list
    reports: list
    growth_factors: list = field(default_factory=list)

    @property
    def max_growth(self) -> float:
        return max(self.growth_factors) if self.growth_factors else 1.0

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "resolutions": list(self.resolutions),
            "max_ratios": [r.max_ratio for r in self.reports],
            "growth_factors": [float(g) for g in self.growth_factors],
            "max_growth": self.max_growth,
        }


def stability_sweeps(
    ids,
    params_by_id: dict | None = None,
    resolutions=(64, 128),
    trials: int = 200,
    seed: int = 0,
) -> list:
    """Rerun several inequalities with identical seeds at each resolution,
    one sweep per id in the order given; at each resolution the ids are
    evaluated together as in ``run_inequalities``.

    The generator band limit defaults to one sixth of the coarsest
    resolution, so even quadratic products of test fields are fully
    resolved inside every grid's dealias ball: the sweep then measures the
    very same continuum quantities throughout, and the growth factor
    isolates genuine discretization drift.
    """
    resolutions = sorted(int(n) for n in resolutions)
    if len(resolutions) < 2:
        raise HypothesisError("stability sweep requires >= 2 resolutions")
    if len(set(resolutions)) < len(resolutions):
        raise HypothesisError(
            f"stability sweep resolutions {resolutions} repeat a resolution"
        )
    _check_trials(trials)
    params_by_id = params_by_id or {}
    base = {}
    for iid in ids:
        params = dict(params_by_id.get(iid) or {})
        if params.get("kmax") is None:
            params["kmax"] = max(2, min(resolutions) // 6)
        base[iid] = params
    per_n = [
        run_inequalities(
            ids, {iid: {**params, "n": n} for iid, params in base.items()}, trials, seed
        )
        for n in resolutions
    ]
    sweeps = []
    for pos, iid in enumerate(ids):
        reports = [reps[pos] for reps in per_n]
        growth = [
            b.max_ratio / a.max_ratio if a.max_ratio > 0 else math.inf
            for a, b in zip(reports, reports[1:])
        ]
        # the per-report growth factor is the step up from the previous resolution
        for rep, g in zip(reports[1:], growth):
            rep.growth_factor = float(g)
        sweeps.append(
            SweepResult(
                inequality_id=iid,
                resolutions=list(resolutions),
                reports=reports,
                growth_factors=growth,
            )
        )
    return sweeps


def stability_sweep(
    inequality_id: str,
    params: dict | None = None,
    resolutions=(64, 128),
    trials: int = 200,
    seed: int = 0,
) -> SweepResult:
    """``stability_sweeps`` for one id."""
    return stability_sweeps(
        [inequality_id], {inequality_id: params}, resolutions, trials, seed
    )[0]


def write_report_json(report: InequalityReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def summary_csv_lines(entries) -> list:
    """(id, params, max ratio, growth factor) rows for a set of reports."""
    lines = ["inequality_id,params,max_ratio,growth_factor"]
    for rep in entries:
        params = json.dumps(rep.params, sort_keys=True).replace(",", ";")
        growth = "" if rep.growth_factor is None else repr(rep.growth_factor)
        lines.append(f"{rep.inequality_id},\"{params}\",{rep.max_ratio!r},{growth}")
    return lines
