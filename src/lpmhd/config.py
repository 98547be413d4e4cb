"""Run configuration: strict YAML key-value parsing and normalization.

Every key is validated before any computation starts and unknown keys are
errors, not warnings.  The documented schema (see README) is grouped into
sections; each subcommand whitelists exactly the sections it consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .lab import INEQUALITY_IDS
from .mhd import INITIAL_DATA
from .spaces import NormSpec
from .spectral import Grid


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


SUBCOMMANDS = ("simulate", "picard", "verify", "norm", "decompose")

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


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a key-value mapping")
    return obj


def _check_keys(mapping: dict, allowed, where: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get(mapping, key, kind, where, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key '{key}' in {where} must be of type {kind.__name__}")
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key '{key}' in {where} must be of type {kind.__name__}")
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


def _check_verify_ids(ids, where):
    """Every id must be a known inequality id, and none may repeat."""
    for iid in ids:
        if iid not in INEQUALITY_IDS:
            raise ConfigError(
                f"unknown inequality id '{iid}'; known: {', '.join(INEQUALITY_IDS)}"
            )
    if len(set(ids)) < len(ids):
        raise ConfigError(f"{where} {list(ids)} repeat an inequality id")


def _parse_norm_spec(entry, where) -> NormSpec:
    entry = _require_mapping(entry, where)
    _check_keys(entry, ("s", "p", "q", "homogeneous"), where)
    for key in ("s", "p", "q"):
        if key not in entry:
            raise ConfigError(f"missing key '{key}' in {where}")
    try:
        return NormSpec(
            s=_get(entry, "s", float, where),
            p=_parse_pq(entry["p"], "p", where),
            q=_parse_pq(entry["q"], "q", where),
            homogeneous=_get(entry, "homogeneous", bool, where, default=True),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid norm spec in {where}: {exc}") from exc


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

    @property
    def grid(self) -> Grid:
        return Grid(self.grid_dimension, self.grid_points)

    def normalized(self) -> dict:
        """Fully resolved nested mapping; parsing its YAML dump reproduces
        this config exactly."""
        out = {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "grid": {"dimension": self.grid_dimension, "points": self.grid_points},
            "output": self.output,
        }
        if self.subcommand in ("simulate", "picard"):
            out["initial"] = {
                "kind": self.initial_kind,
                "amplitude": self.initial_amplitude,
                "decay": self.initial_decay,
            }
            out["time"] = {"t_final": self.t_final, "dt": self.dt}
        if self.subcommand == "simulate":
            out["time"]["cadence"] = self.cadence
            out["norms"] = [
                {
                    "s": spec.s,
                    "p": "inf" if spec.p == math.inf else spec.p,
                    "q": "inf" if spec.q == math.inf else spec.q,
                    "homogeneous": spec.homogeneous,
                }
                for spec in self.norm_specs
            ]
            out["snapshots"] = {"times": list(self.snapshot_times)}
        if self.subcommand == "picard":
            out["picard"] = {
                "s": self.picard_s,
                "p": "inf" if self.picard_p == math.inf else self.picard_p,
                "q": "inf" if self.picard_q == math.inf else self.picard_q,
                "n_max": self.picard_n_max,
            }
        if self.subcommand == "verify":
            out["verify"] = {
                "ids": list(self.verify_ids),
                "trials": self.verify_trials,
                "resolutions": list(self.verify_resolutions),
                "growth_threshold": self.verify_growth_threshold,
                "params": self.verify_params,
            }
        return out

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.normalized(), sort_keys=True)


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse and fully validate a config document for one subcommand."""
    if subcommand not in _SECTIONS:
        raise ConfigError(f"subcommand '{subcommand}' does not take a config file")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if data is None:
        data = {}
    data = _require_mapping(data, "the config document")
    sections = _SECTIONS[subcommand]
    allowed = tuple(sections["required"]) + tuple(sections["optional"])
    _check_keys(data, allowed, "the config document")
    for key in sections["required"]:
        if key not in data:
            raise ConfigError(f"missing section '{key}' for subcommand '{subcommand}'")

    declared = _get(data, "subcommand", str, "the config document")
    if declared is not None and declared != subcommand:
        raise ConfigError(
            f"config declares subcommand '{declared}' but '{subcommand}' was invoked"
        )

    grid_map = _require_mapping(data["grid"], "section 'grid'")
    _check_keys(grid_map, ("dimension", "points"), "section 'grid'")
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

    if subcommand in ("simulate", "picard"):
        init = _require_mapping(data["initial"], "section 'initial'")
        _check_keys(init, ("kind", "amplitude", "decay"), "section 'initial'")
        kind = _get(init, "kind", str, "section 'initial'", required=True)
        if kind not in INITIAL_DATA:
            raise ConfigError(
                f"unknown initial data kind '{kind}'; known: {', '.join(sorted(INITIAL_DATA))}"
            )
        cfg.initial_kind = kind
        cfg.initial_amplitude = _get(init, "amplitude", float, "section 'initial'", default=1.0)
        cfg.initial_decay = _get(init, "decay", float, "section 'initial'", default=3.0)

        time_keys = ("t_final", "dt", "cadence") if subcommand == "simulate" else ("t_final", "dt")
        tmap = _require_mapping(data["time"], "section 'time'")
        _check_keys(tmap, time_keys, "section 'time'")
        cfg.t_final = _get(tmap, "t_final", float, "section 'time'", required=True)
        cfg.dt = _get(tmap, "dt", float, "section 'time'", required=True)
        if cfg.t_final <= 0 or cfg.dt <= 0:
            raise ConfigError("t_final and dt must be positive")
        n_steps = round(cfg.t_final / cfg.dt)
        if abs(n_steps * cfg.dt - cfg.t_final) > 1e-9 * max(1.0, cfg.t_final):
            raise ConfigError("t_final must be an integer multiple of dt")
        if subcommand == "simulate":
            cfg.cadence = _get(tmap, "cadence", int, "section 'time'", default=1)
            if cfg.cadence < 1:
                raise ConfigError("cadence must be a positive integer")

    if subcommand == "simulate":
        norms = data.get("norms", [])
        if not isinstance(norms, list):
            raise ConfigError("section 'norms' must be a list")
        cfg.norm_specs = tuple(
            _parse_norm_spec(entry, f"norms[{i}]") for i, entry in enumerate(norms)
        )
        snaps = data.get("snapshots", {"times": []})
        snaps = _require_mapping(snaps, "section 'snapshots'")
        _check_keys(snaps, ("times",), "section 'snapshots'")
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

    if subcommand == "picard":
        pmap = _require_mapping(data["picard"], "section 'picard'")
        _check_keys(pmap, ("s", "p", "q", "n_max"), "section 'picard'")
        cfg.picard_s = _get(pmap, "s", float, "section 'picard'", required=True)
        cfg.picard_p = _parse_pq(
            pmap.get("p", 2.0), "p", "section 'picard'"
        )
        cfg.picard_q = _parse_pq(
            pmap.get("q", 2.0), "q", "section 'picard'"
        )
        n_max = _get(pmap, "n_max", int, "section 'picard'", required=True)
        limit = grid.j_max - 2
        if not 1 <= n_max <= limit:
            raise ConfigError(
                f"picard n_max = {n_max} violates 1 <= n_max <= j_max - 2 = {limit} "
                f"(low-pass truncation must stay inside the grid's dyadic range)"
            )
        cfg.picard_n_max = n_max

    if subcommand == "verify":
        vmap = _require_mapping(data["verify"], "section 'verify'")
        _check_keys(
            vmap,
            ("ids", "trials", "resolutions", "growth_threshold", "params"),
            "section 'verify'",
        )
        ids = vmap.get("ids", [])
        if not isinstance(ids, list):
            raise ConfigError("verify.ids must be a list")
        cfg.verify_ids = tuple(str(i) for i in ids)
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
        if len(set(cfg.verify_resolutions)) < len(cfg.verify_resolutions):
            raise ConfigError(
                f"verify.resolutions {list(cfg.verify_resolutions)} repeat a resolution"
            )
        cfg.verify_growth_threshold = _get(
            vmap, "growth_threshold", float, "section 'verify'", default=1.2
        )
        threshold = cfg.verify_growth_threshold
        if not (math.isfinite(threshold) and threshold > 0):
            raise ConfigError(
                f"verify.growth_threshold = {threshold} must be a finite positive number"
            )
        params = vmap.get("params", {})
        params = _require_mapping(params, "verify.params")
        _check_keys(params, cfg.verify_ids, "verify.params")
        cfg.verify_params = {
            key: _require_mapping(val, f"verify.params.{key}") for key, val in params.items()
        }

    return cfg


def load_config(path, subcommand: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), subcommand)
