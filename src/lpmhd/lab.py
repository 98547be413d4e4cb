"""Randomized, seeded verification harness for the quantitative estimates:
Bernstein, derivative norm equivalence, the product estimate, the vector
maximal inequality, the radial-majorant bound, the pressure bound, the
advective commutator estimates and their four per-term bounds, plus the
sharp Riesz-transform spot check.

Empirical constants are reported, never compared to theoretical values;
acceptance is finiteness plus stability across resolution (stability_sweeps
reruns identical seeds at each N, so for band-limited generators the same
continuum fields are measured on finer lattices).

The unit of work is an (id, params) job, and one id may appear in several
jobs.  `run_inequalities` and `stability_sweeps` group jobs by evaluator
and `DRAW_KEYS`, and each trial of a group draws its fields once: the
commutator jobs (A2, A3, term-I..IV) build the direct and the split family
at most once per trial, both from one `paracalc` workspace, and reduce them
once per NormSpec; the vector-maximal jobs maximize their family once per
trial.  At p = q = 2 a commutator norm is sqrt(sum_k 2^{2ks} ||C_k||_2^2),
taken by Plancherel from the family's coefficients; at other (p, q) a shell
with exactly zero coefficients is not transformed.  Nothing is kept
between trials or calls: the workspace is freed with the trial's fields.
Reports are reproducible bit-for-bit from (id, params, seed), whichever
jobs run beside them; a single job runs as the list [(id, params)].
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cache
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


def _draw(p, grid, kmax, seed, trial, stream=0, sampler=random_band_limited):
    """Stream `stream` of one trial's random fields, drawn by `sampler` with
    the id's decay and amplitude under the band limit kmax."""
    return sampler(
        grid, np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream)),
        decay=p["decay"], kmax=kmax, amplitude=p["amplitude"],
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


def _vector_maximal(jobs, grid, kmax, seed, trial):
    """Ratios of the vector-maximal jobs on one trial's family of fields:
    the family is drawn and maximized once, and each job reduces both
    stacks in its own (p, q)."""
    fields = [
        _draw(jobs[0][1], grid, kmax, seed, trial, i)
        for i in range(jobs[0][1]["family"])
    ]
    raw = np.stack([np.abs(f.values[0]) for f in fields])
    maxed = np.stack([maximal_function(f).values[0] for f in fields])
    idx = range(len(fields))
    return [
        shell_lp_lq(maxed, idx, 0.0, p["p"], p["q"])
        / shell_lp_lq(raw, idx, 0.0, p["p"], p["q"])
        for _, p in jobs
    ]


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


def _commutator_lhs(fields_by_k, grid, s, pp, qq):
    """|| 2^{ks} |C_k(x)| ||_{L^p(l^q)} of a commutator family {k: C_k}.  At
    p = q = 2 it is sqrt(sum_k 2^{2ks} ||C_k||_2^2), by Plancherel from the
    coefficients with no transform; other (p, q) reduce the magnitudes, and
    a C_k with exactly zero coefficients has zero magnitude (the bits of its
    inverse) without a transform."""
    if pp == qq == 2.0:
        energies = [shell_energies(fields_by_k[k])[1] for k in grid.js]
        weights = 2.0 ** (2.0 * s * np.asarray(grid.js, dtype=float))
        return math.sqrt(float(weights @ energies))
    stack = np.zeros((len(grid.js),) + grid.shape)
    for i, k in enumerate(grid.js):
        if fields_by_k[k].coeffs.any():
            stack[i] = fields_by_k[k].magnitude()
    return shell_lp_lq(stack, grid.js, s, pp, qq)


_TERM_OF = {"term-I": "I", "term-II": "II", "term-III": "III", "term-IV": "IV"}


# the right-hand side of each commutator id, a sum of products of a sup
# norm ("grad f": ||grad f||_inf, "grad g": ||grad g||_inf, "g": ||g||_inf)
# and a Triebel-Lizorkin norm (of "f", "g" or "grad f")
_COMMUTATOR_RHS = {
    "commutator-A2": (("grad f", "g"), ("grad g", "f")),
    "commutator-A3": (("grad f", "g"), ("g", "grad f")),
    "term-I": (("grad f", "g"),),
    "term-II": (("grad g", "f"),),
    "term-III": (("grad g", "f"),),
    "term-IV": (("grad f", "g"),),
}


def _commutator_ratios(jobs, grid, kmax, seed, trial):
    """Ratios of the commutator jobs (A2, A3, term-I..IV) on one trial's
    (f, g): the direct and the split family are built at most once each,
    from one shared workspace, each left-hand side and Triebel-Lizorkin
    factor is computed once per NormSpec and each sup factor once, and
    nothing outlives the trial."""
    f = _draw(jobs[0][1], grid, kmax, seed, trial, sampler=random_solenoidal)
    g = _draw(jobs[0][1], grid, kmax, seed, trial, 1)
    families = [_TERM_OF.get(iid, "direct") for iid, _ in jobs]
    specs = [NormSpec(p["s"], p["p"], p["q"]) for _, p in jobs]
    lhs = {}

    def reduce(name, fields_by_k):
        for family, spec in zip(families, specs):
            if family == name and (name, spec) not in lhs:
                lhs[name, spec] = _commutator_lhs(
                    fields_by_k, grid, spec.s, spec.p, spec.q
                )

    if "direct" in families:
        reduce("direct", commutator_family(f, g))
    if set(families) - {"direct"}:
        splits = commutator_split_family(f, g)
        for key in _TERM_OF.values():
            reduce(key, {k: splits[k].terms[key] for k in grid.js})

    @cache
    def sup(name):
        if name == "g":
            return lp_norm(g, INF)
        return jacobian_sup_norm(f if name == "grad f" else g)

    @cache
    def tl(name, spec):
        return tl_norm(jacobian(f) if name == "grad f" else f if name == "f" else g, spec)

    # sum starts at 0, and 0 + x == x exactly
    return [
        lhs[family, spec] / sum(sup(a) * tl(b, spec) for a, b in _COMMUTATOR_RHS[iid])
        for (iid, _), family, spec in zip(jobs, families, specs)
    ]


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
    """Evaluator of an id whose jobs share no work: fn returns one job's
    ratio of a trial."""

    def evaluate(jobs, grid, kmax, seed, trial):
        return [fn(p, grid, kmax, seed, trial) for _, p in jobs]

    return evaluate


_COMMUTATOR = {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0}

# each id's default params and its evaluator
# ``(jobs, grid, kmax, seed, trial) -> [ratio per job]``, where jobs are
# (id, merged params) pairs with equal draw keys
_EVALUATORS = {
    "bernstein": ({**_COMMON, "k": 1, "p": 2.0, "direction": "forward"}, _alone(_bernstein)),
    "deriv-equiv": ({**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0}, _alone(_deriv_equiv)),
    "product": (
        {**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0, "homogeneous": True}, _alone(_product)
    ),
    "vector-maximal": ({**_COMMON, "p": 2.0, "q": 2.0, "family": 8}, _vector_maximal),
    "majorant": (dict(_COMMON), _alone(_majorant)),
    **{iid: (_COMMUTATOR, _commutator_ratios) for iid in _COMMUTATOR_RHS},
    "riesz-bounded": ({**_COMMON, "s": 1.5}, _alone(_riesz_bounded)),
    "pressure-3.11": ({**_COMMON, "s": 1.5, "p": 2.0, "q": 2.0}, _alone(_pressure)),
}

# the hypothesis s > bound of each id that has one, with a remark for its
# error message
_S_BOUND = {
    "product": (0, ""),
    "commutator-A2": (0, ""),
    "commutator-A3": (-1, ""),
    "term-II": (0, ""),
    "term-IV": (-1, ""),
    "pressure-3.11": (1, " (the product estimate is applied at order s - 1)"),
}

INEQUALITY_IDS = tuple(sorted(_EVALUATORS))

# the params that a trial's drawn fields depend on; the others (s, p, q,
# homogeneous, k, direction) enter only the reductions
DRAW_KEYS = ("d", "n", "kmax", "decay", "amplitude", "family")


def _job(inequality_id: str, params: dict | None):
    """(evaluator, merged params) of one job, checked before any trial runs."""
    if inequality_id not in _EVALUATORS:
        raise UnknownInequalityError(
            f"unknown inequality id '{inequality_id}'; known: {', '.join(INEQUALITY_IDS)}"
        )
    defaults, evaluate = _EVALUATORS[inequality_id]
    unknown = set(params or {}) - set(defaults)
    if unknown:
        raise HypothesisError(
            f"unknown parameter(s) {sorted(unknown)} for inequality '{inequality_id}'"
        )
    p = {**defaults, **(params or {})}
    if inequality_id == "bernstein" and p["direction"] not in ("forward", "reverse"):
        raise HypothesisError(
            "inequality 'bernstein' requires direction in {forward, reverse}"
        )
    if not p["amplitude"] > 0:  # the draws' L2 norm: at 0 every ratio is 0/0
        raise HypothesisError(f"inequality '{inequality_id}' requires amplitude > 0, "
                              f"got {p['amplitude']!r}")
    for key, low in (("k", 0), ("family", 1), ("kmax", 1)):
        if p.get(key) is not None and not p[key] >= low:
            raise HypothesisError(
                f"inequality '{inequality_id}' requires {key} >= {low}, got {p[key]!r}"
            )
    if inequality_id == "vector-maximal" and not (1 < p["p"] < INF and 1 < p["q"] <= INF):
        raise HypothesisError(
            "inequality 'vector-maximal' requires 1 < p < inf and 1 < q <= inf, "
            f"got (p, q) = ({p['p']!r}, {p['q']!r})"
        )
    bound, remark = _S_BOUND.get(inequality_id, (None, ""))
    if bound is not None and not p["s"] > bound:
        raise HypothesisError(
            f"inequality '{inequality_id}' requires s > {bound}{remark}"
        )
    return evaluate, p


def run_inequalities(jobs, trials: int = 200, seed: int = 0) -> list:
    """Measure per-trial LHS/RHS ratios of several (id, params) jobs on
    seeded random fields, one report per job in the order given; a report's
    max ratio is the empirical constant, and params None means the id's
    defaults.  Jobs with the same evaluator and equal `DRAW_KEYS` share
    each trial's draw (see the module docstring)."""
    if trials < 1:
        raise HypothesisError(f"trials = {trials}: at least one trial is required")
    merged = [(iid, *_job(iid, params)) for iid, params in jobs]
    groups = {}
    for pos, (_, evaluate, p) in enumerate(merged):
        key = (evaluate, repr([p.get(k) for k in DRAW_KEYS]))
        groups.setdefault(key, []).append(pos)
    ratios = [[] for _ in merged]
    for (evaluate, _), members in groups.items():
        group = [(merged[pos][0], merged[pos][2]) for pos in members]
        grid, kmax = _grid_and_kmax(group[0][1])
        for t in range(trials):
            for pos, ratio in zip(members, evaluate(group, grid, kmax, seed, t)):
                ratios[pos].append(ratio)
    reports = []
    for (iid, _, p), r in zip(merged, ratios):
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
    jobs, resolutions=(64, 128), trials: int = 200, seed: int = 0
) -> list:
    """Rerun several (id, params) jobs with identical seeds at each
    resolution, one sweep per job in the order given; at each resolution
    the jobs are evaluated together as in ``run_inequalities``.

    The generator band limit defaults to one sixth of the coarsest
    resolution, so even quadratic products of test fields are fully
    resolved inside every grid's dealias ball: the sweep then measures the
    very same continuum quantities throughout, and the growth factor
    isolates genuine discretization drift.
    """
    resolutions = list(resolutions)
    for n in resolutions:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise HypothesisError(
                f"stability sweep resolutions must be integers, got {n!r}"
            )
    resolutions = sorted(int(n) for n in resolutions)
    if len(resolutions) < 2:
        raise HypothesisError("stability sweep requires >= 2 resolutions")
    if len(set(resolutions)) < len(resolutions):
        raise HypothesisError(
            f"stability sweep resolutions {resolutions} repeat a resolution"
        )
    base = []
    for iid, params in jobs:
        params = dict(params or {})
        if params.get("kmax") is None:
            params["kmax"] = max(2, min(resolutions) // 6)
        base.append((iid, params))
    per_n = [
        run_inequalities(
            [(iid, {**params, "n": n}) for iid, params in base], trials, seed
        )
        for n in resolutions
    ]
    sweeps = []
    for pos, (iid, _) in enumerate(base):
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


def _json_ready(obj):
    """obj with every non-finite float spelled "inf", "-inf" or "nan" (as in
    config.yaml), so that it dumps as strict JSON."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def _dumps(obj, **kwargs) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, allow_nan=False, **kwargs)


def write_report_json(report, path) -> None:
    """Write an InequalityReport, or a SweepResult with the reports of every
    resolution, as strict JSON."""
    payload = report.to_dict()
    if isinstance(report, SweepResult):
        payload["reports"] = [r.to_dict() for r in report.reports]
    with open(path, "w") as fh:
        fh.write(_dumps(payload, indent=1) + "\n")


def summary_csv_lines(entries) -> list:
    """(id, params, max ratio, growth factor) rows for a set of reports, as
    CSV lines; params is one field holding the strict JSON of the report's
    parameters."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["inequality_id", "params", "max_ratio", "growth_factor"])
    for rep in entries:
        growth = "" if rep.growth_factor is None else repr(rep.growth_factor)
        writer.writerow([rep.inequality_id, _dumps(rep.params), repr(rep.max_ratio), growth])
    return buf.getvalue().splitlines()
