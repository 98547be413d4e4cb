"""Run configuration: strict YAML key-value parsing and normalization.

Every key is validated before any computation starts and unknown keys are
errors, not warnings.  The documented schema (see README) is grouped into
sections; each subcommand whitelists exactly the sections it consumes.

The parsed document is the normalized config: `parse_config` writes every
resolved value, or its default, back where it read it, and
`RunConfig.to_yaml` dumps that document, so the schema is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .lab import INEQUALITY_IDS
from .mhd import INITIAL_DATA, _step_count
from .spaces import NormSpec
from .spectral import Grid, SpectralError


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


_SECTIONS = {
    "simulate": {
        "required": ("grid", "initial", "time", "output"),
        "optional": ("subcommand", "seed", "norms", "snapshots"),
    },
    "picard": {
        "required": ("grid", "initial", "time", "output", "picard"),
        "optional": ("subcommand", "seed"),
    },
    "verify": {
        "required": ("grid", "verify", "output"),
        "optional": ("subcommand", "seed"),
    },
}


def _require_mapping(obj, where: str, allowed=None) -> dict:
    """obj, checked to be a mapping whose keys all lie in `allowed` (any
    keys when it is None)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a key-value mapping")
    unknown = set(obj) - set(obj if allowed is None else allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return obj


def _get(mapping, key, kind, where, default=None, required=False, finite=True):
    """mapping[key], checked to be of type `kind` (a float must also be
    finite unless `finite` is False), or the default; written back into
    mapping."""
    if key not in mapping:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        mapping[key] = default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key '{key}' in {where} must be of type {kind.__name__}")
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key '{key}' in {where} must be of type {kind.__name__}")
    if kind is float and finite and not math.isfinite(value):
        raise ConfigError(f"key '{key}' in {where} must be a finite number, got {value}")
    mapping[key] = value
    return value


def _parse_pq(value, key, where, text=False) -> float:
    """An integrability exponent p or q: a number or 'inf'.  YAML values
    must be numbers (a quoted number is rejected); `text` also accepts the
    numeric strings of command-line arguments."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        if text:
            try:
                return float(value)
            except ValueError:
                pass
        raise ConfigError(f"key '{key}' in {where} must be a number or 'inf'")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number or 'inf'")
    return float(value)


def _get_pq(mapping, key, where, default=None) -> float:
    """mapping[key] (or the default) read by `_parse_pq`, written back into
    mapping with infinity spelled 'inf'."""
    value = _parse_pq(mapping.get(key, default), key, where)
    mapping[key] = "inf" if value == math.inf else value
    return value


def _check_verify_ids(ids, where):
    """Every id must be a known inequality id, and none may repeat."""
    for iid in ids:
        if iid not in INEQUALITY_IDS:
            raise ConfigError(
                f"unknown inequality id '{iid}'; known: {', '.join(INEQUALITY_IDS)}"
            )
    if len(set(ids)) < len(ids):
        raise ConfigError(f"{where} {list(ids)} repeat an inequality id")


def _parse_norm_spec(entry, where) -> tuple:
    """(NormSpec, resolved entry) of one norms entry; the entry is resolved
    in a copy, so an aliased entry dumps as a plain mapping, not an anchor."""
    entry = dict(_require_mapping(entry, where, ("s", "p", "q", "homogeneous")))
    for key in ("s", "p", "q"):
        if key not in entry:
            raise ConfigError(f"missing key '{key}' in {where}")
    try:
        return NormSpec(
            s=_get(entry, "s", float, where),
            p=_get_pq(entry, "p", where),
            q=_get_pq(entry, "q", where),
            homogeneous=_get(entry, "homogeneous", bool, where, default=True),
        ), entry
    except ValueError as exc:
        raise ConfigError(f"invalid norm spec in {where}: {exc}") from exc


# the type of each lab parameter that verify.params may override, other
# than p and q (read by _parse_pq) and the bernstein direction (checked by
# the lab); kmax may also be null, the lab's band-limit default.  The
# resolution n is not one: verify.resolutions or grid.points sets it
_LAB_PARAM_TYPES = {
    "d": int, "k": int, "family": int, "kmax": int,
    "s": float, "decay": float, "amplitude": float, "homogeneous": bool,
}


def _parse_lab_params(entry, where) -> dict:
    """One id's verify.params overrides, resolved in a copy, each value
    type-checked so that a bad one exits 2 before any trial runs; the lab
    rejects unknown keys."""
    out = dict(_require_mapping(entry, where))
    for key, value in out.items():
        if key == "n":
            raise ConfigError(f"key 'n' in {where} is not allowed: verify.resolutions, "
                              "or grid.points when it is empty, sets the resolution")
        if key in ("p", "q"):
            out[key] = _parse_pq(value, key, where)
        elif key in _LAB_PARAM_TYPES and not (key == "kmax" and value is None):
            _get(out, key, _LAB_PARAM_TYPES[key], where)
    return out


def snapshot_name(t: float) -> str:
    """The name, after its u_ or b_ prefix, of the snapshot files written
    for the snapshots.times entry t."""
    return f"t{t:.6f}.npz"


@dataclass
class RunConfig:
    subcommand: str
    grid_dimension: int
    grid_points: int
    output: str | None = None
    seed: int = 0
    initial_kind: str | None = None
    initial_amplitude: float = 1.0
    initial_decay: float = 3.0
    t_final: float | None = None
    dt: float | None = None
    cadence: int = 1
    norm_specs: tuple = ()
    snapshot_times: tuple = ()
    picard_s: float | None = None
    picard_p: float | None = None
    picard_q: float | None = None
    picard_n_max: int | None = None
    verify_ids: tuple = ()
    verify_trials: int = 200
    verify_resolutions: tuple = ()
    verify_growth_threshold: float = 1.2
    verify_params: dict = field(default_factory=dict)
    # the parsed document, every value resolved: the normalized config,
    # set by parse_config only
    document: dict = field(default=None, init=False, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return Grid(self.grid_dimension, self.grid_points)

    @property
    def snapshot_steps(self) -> dict:
        """Nearest step -> snapshot time; two times on one step, or with one
        snapshot file name, are an error."""
        steps, names = {}, {}
        for t in self.snapshot_times:
            m, name = round(t / self.dt), snapshot_name(t)
            if m in steps:
                raise ConfigError(f"snapshots.times entries {steps[m]!r} and {t!r} "
                                  f"both fall on step {m} (dt = {self.dt!r})")
            if name in names:
                raise ConfigError(f"snapshots.times entries {names[name]!r} and {t!r} "
                                  f"both name their snapshot files u_{name} and b_{name}")
            steps[m] = names[name] = t
        return steps

    def to_yaml(self) -> str:
        """The normalized config: parsing it again reproduces this config."""
        return yaml.safe_dump(self.document, sort_keys=True)


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse and fully validate a config document for one subcommand."""
    if subcommand not in _SECTIONS:
        raise ConfigError(f"subcommand '{subcommand}' does not take a config file")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    sections = _SECTIONS[subcommand]
    data = _require_mapping({} if data is None else data, "the config document",
                            sections["required"] + sections["optional"])
    for key in sections["required"]:
        if key not in data:
            raise ConfigError(f"missing section '{key}' for subcommand '{subcommand}'")

    declared = _get(data, "subcommand", str, "the config document", default=subcommand)
    if declared != subcommand:
        raise ConfigError(
            f"config declares subcommand '{declared}' but '{subcommand}' was invoked"
        )

    grid_map = _require_mapping(data["grid"], "section 'grid'", ("dimension", "points"))
    dimension = _get(grid_map, "dimension", int, "section 'grid'", required=True)
    points = _get(grid_map, "points", int, "section 'grid'", required=True)
    try:
        grid = Grid(dimension, points)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    cfg = RunConfig(
        subcommand=subcommand,
        grid_dimension=dimension,
        grid_points=points,
        output=_get(data, "output", str, "the config document", required=True),
        seed=_get(data, "seed", int, "the config document", default=0),
    )
    cfg.document = data
    if cfg.seed < 0:
        raise ConfigError(f"seed = {cfg.seed} must be a non-negative integer")

    if subcommand in ("simulate", "picard"):
        init = _require_mapping(data["initial"], "section 'initial'",
                                ("kind", "amplitude", "decay"))
        kind = _get(init, "kind", str, "section 'initial'", required=True)
        if kind not in INITIAL_DATA:
            raise ConfigError(
                f"unknown initial data kind '{kind}'; known: {', '.join(sorted(INITIAL_DATA))}"
            )
        cfg.initial_kind = kind
        cfg.initial_amplitude = _get(init, "amplitude", float, "section 'initial'", default=1.0)
        cfg.initial_decay = _get(init, "decay", float, "section 'initial'", default=3.0)

        time_keys = ("t_final", "dt", "cadence") if subcommand == "simulate" else ("t_final", "dt")
        tmap = _require_mapping(data["time"], "section 'time'", time_keys)
        cfg.t_final = _get(tmap, "t_final", float, "section 'time'", required=True)
        cfg.dt = _get(tmap, "dt", float, "section 'time'", required=True)
        if cfg.t_final <= 0 or cfg.dt <= 0:
            raise ConfigError("t_final and dt must be positive")
        try:
            _step_count(cfg.t_final, cfg.dt)
        except SpectralError as exc:
            raise ConfigError("t_final must be an integer multiple of dt") from exc
        if subcommand == "simulate":
            cfg.cadence = _get(tmap, "cadence", int, "section 'time'", default=1)
            if cfg.cadence < 1:
                raise ConfigError("cadence must be a positive integer")

    if subcommand == "simulate":
        norms = data.get("norms", [])
        if not isinstance(norms, list):
            raise ConfigError("section 'norms' must be a list")
        parsed = [_parse_norm_spec(entry, f"norms[{i}]") for i, entry in enumerate(norms)]
        cfg.norm_specs = tuple(spec for spec, _ in parsed)
        data["norms"] = [entry for _, entry in parsed]
        # a record keeps one value per label: two norms must not share one
        first = {}
        for i, spec in enumerate(cfg.norm_specs):
            i0 = first.setdefault(spec.label, i)
            if cfg.norm_specs[i0] != spec:
                raise ConfigError(f"norms[{i0}] and norms[{i}] are different norms that "
                                  f"share the column norm_{spec.label}")
        snaps = _require_mapping(data.get("snapshots", {}), "section 'snapshots'", ("times",))
        times = snaps.get("times", [])
        if not isinstance(times, list):
            raise ConfigError("snapshots.times must be a list")
        for t in times:
            numeric = isinstance(t, (int, float)) and not isinstance(t, bool)
            if not (numeric and math.isfinite(t)):
                raise ConfigError(f"snapshots.times must be finite numbers, got {t!r}")
            if not 0 <= t <= cfg.t_final:
                raise ConfigError(
                    f"snapshots.times entry {t!r} lies outside [0, t_final = {cfg.t_final!r}]"
                )
        cfg.snapshot_times = tuple(float(t) for t in times)
        data["snapshots"] = {"times": list(cfg.snapshot_times)}
        cfg.snapshot_steps  # raises on two times on one step or with one file name

    if subcommand == "picard":
        pmap = _require_mapping(data["picard"], "section 'picard'", ("s", "p", "q", "n_max"))
        cfg.picard_s = _get(pmap, "s", float, "section 'picard'", required=True)
        cfg.picard_p = _get_pq(pmap, "p", "section 'picard'", default=2.0)
        cfg.picard_q = _get_pq(pmap, "q", "section 'picard'", default=2.0)
        # picard_iterate records the difference norm in inhomogeneous F^(s-1)_(p,q)
        if not cfg.picard_s > 1.0:
            raise ConfigError(f"picard.s = {cfg.picard_s!r} must exceed 1: the "
                              "difference norm F^(s-1)_(p,q) is inhomogeneous")
        try:
            NormSpec(cfg.picard_s - 1.0, cfg.picard_p, cfg.picard_q, homogeneous=False)
        except ValueError as exc:
            raise ConfigError(f"invalid picard.p, picard.q: {exc}") from exc
        n_max = cfg.picard_n_max = _get(pmap, "n_max", int, "section 'picard'", required=True)
        limit = grid.j_max - 2
        if not 1 <= n_max <= limit:
            raise ConfigError(
                f"picard n_max = {n_max} violates 1 <= n_max <= j_max - 2 = {limit} "
                f"(low-pass truncation must stay inside the grid's dyadic range)"
            )

    if subcommand == "verify":
        vmap = _require_mapping(data["verify"], "section 'verify'",
                                ("ids", "trials", "resolutions", "growth_threshold", "params"))
        ids = vmap.get("ids", [])
        if not isinstance(ids, list):
            raise ConfigError("verify.ids must be a list")
        cfg.verify_ids = tuple(str(i) for i in ids)
        vmap["ids"] = list(cfg.verify_ids)
        _check_verify_ids(cfg.verify_ids, "verify.ids")
        cfg.verify_trials = _get(vmap, "trials", int, "section 'verify'", default=200)
        if cfg.verify_trials < 1:
            raise ConfigError(f"verify.trials = {cfg.verify_trials} must be >= 1")
        res = vmap.get("resolutions", [])
        if not isinstance(res, list):
            raise ConfigError("verify.resolutions must be a list")
        for n in res:
            if isinstance(n, bool) or not isinstance(n, int):
                raise ConfigError(f"verify.resolutions must be integers, got {n!r}")
            try:
                Grid(dimension, n)
            except ValueError as exc:
                raise ConfigError(f"invalid verify.resolutions entry {n}: {exc}") from exc
        cfg.verify_resolutions = tuple(res)
        vmap["resolutions"] = list(res)
        if len(set(res)) < len(res):
            raise ConfigError(f"verify.resolutions {res} repeat a resolution")
        threshold = cfg.verify_growth_threshold = _get(
            vmap, "growth_threshold", float, "section 'verify'", default=1.2, finite=False
        )
        if not (math.isfinite(threshold) and threshold > 0):
            raise ConfigError(
                f"verify.growth_threshold = {threshold} must be a finite positive number"
            )
        params = _require_mapping(vmap.get("params", {}), "verify.params", cfg.verify_ids)
        cfg.verify_params = vmap["params"] = {
            key: _parse_lab_params(val, f"verify.params.{key}") for key, val in params.items()
        }

    return cfg


def load_config(path, subcommand: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), subcommand)
