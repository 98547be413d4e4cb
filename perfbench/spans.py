"""Outside-in span tracing for the lpmhd benchmark.

The tracer wraps named lpmhd functions from outside the package, at every
binding site: the defining module and every module (or package namespace)
that holds the same function object through ``from .x import y``.  It also
wraps the ``scipy.fft`` entry points, which every lpmhd module reaches as
``sfft.<name>``, and counts scalar N^d transforms there: a batched call
counts as the number of its leading (untransformed) components.

Spans live in memory as ``[name, parent, start, end, xf, points]`` lists and
are reduced to per-op metrics by ``op_metrics``.  Nothing inside ``src/`` is
edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time

FFT_FUNCS = ("rfftn", "irfftn", "fftn", "ifftn")

# The traced boundaries, as <module>.<attribute path>.  Only these are wrapped:
# wrapping every public helper (frequencies, radius, dealias_mask, ...) costs
# about 20% on the Picard workload, which would swamp the layer times.
BOUNDARIES = (
    "mhd.step",
    "mhd.mhd_tendency",
    "mhd.pressure_gradient",
    "mhd.advection",
    "mhd.picard_iterate",
    "spectral.leray_project",
    "diagnostics.DiagnosticsStream.append",
    "diagnostics.record",
    "diagnostics.curl_pair",
    "diagnostics.write_csv",
    "spaces.tl_norm",
    "spectral.block_magnitudes",
    "spectral.jacobian_sup_norm",
    "paracalc.commutator_family",
    "paracalc.commutator_split_family",
    "lab.run_inequality",
    "spectral.random_band_limited",
    "config.load_config",
    "cli.main",
)

LAYERS = ("spectral", "spaces", "paracalc", "mhd", "diagnostics", "lab", "cli")

# config is parsed on behalf of the CLI, so it counts toward the cli layer
_LAYER_OF_MODULE = {"config": "cli"}

# Boundaries whose (f, g) inputs are hashed to measure repeated work.
COMMUTATOR_FAMILIES = ("paracalc.commutator_family", "paracalc.commutator_split_family")

FFT = "fft"


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return _LAYER_OF_MODULE.get(module, module)


def _lpmhd_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "lpmhd" or key.startswith("lpmhd."))
    ]


def _resolve(name: str):
    """(owner, attribute, original) for a boundary name, or None when the
    package no longer defines it."""
    module, *path = name.split(".")
    owner = sys.modules.get(f"lpmhd.{module}")
    if owner is None:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, path[-1], None)
    if original is None:
        return None
    return owner, path[-1], original


def count_transforms(func: str, x, s=None, axes=None, *_, **__):
    """(scalar transforms, computed sum of N^d) for one scipy.fft call."""
    shape = tuple(getattr(x, "shape", ()))
    ndim = len(shape)
    if axes is not None:
        axes = [a % ndim for a in (axes if hasattr(axes, "__len__") else (axes,))]
    elif s is not None:
        axes = list(range(ndim - len(s), ndim))
    else:
        axes = list(range(ndim))
    batch = math.prod(n for a, n in enumerate(shape) if a not in axes)
    if s is not None:
        lengths = list(s)
    else:
        lengths = [shape[a] for a in axes]
        if func == "irfftn":
            lengths[-1] = 2 * (lengths[-1] - 1)
    return batch, batch * math.prod(lengths)


def _field_digest(field) -> bytes:
    """Digest of a RealField's stored representation.  Reads the stored
    array directly so hashing never triggers (or caches) a transform."""
    arr = getattr(field, "_values", None)
    if arr is None:
        arr = getattr(field, "_coeffs", None)
    if arr is None:
        arr = field.values
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


class Tracer:
    """Records spans for the given boundaries while installed.  With
    ``detail`` (the traced run) it also records every scipy.fft call and
    hashes the inputs of the commutator families; without it (the timed
    run) it is two timestamps per call.  ``after`` is called after every
    span has closed, outside it."""

    def __init__(self, boundaries=BOUNDARIES, detail=True, after=None):
        self.names = list(boundaries) + [FFT]
        self.detail = detail
        self.after = after
        self.spans: list[list] = []
        self.input_digests: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import scipy.fft as sfft

        self.missing = []
        for idx, name in enumerate(self.names[:-1]):
            found = _resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(
                original, idx, self.detail and name in COMMUTATOR_FAMILIES
            )
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in _lpmhd_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        fft_idx = len(self.names) - 1
        for func in FFT_FUNCS if self.detail else ():
            self._patch(sfft, func, self._wrap_fft(getattr(sfft, func), fft_idx, func))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, idx, hash_inputs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        digests, after = self.input_digests, self.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hash_inputs:
                digests.append(
                    (idx, _field_digest(args[0]), _field_digest(args[1]))
                )
            span = [idx, stack[-1] if stack else -1, clock(), 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
                if after is not None:
                    after()

        return traced

    def _wrap_fft(self, fn, idx, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            xf, points = count_transforms(func, *args, **kwargs)
            span = [idx, stack[-1] if stack else -1, clock(), 0.0, xf, points]
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()

        return traced


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

_FIELDS = ("calls", "busy_s", "self_s", "xf")


def metric_names() -> list:
    """Every per-layer metric name, in report order."""
    out = [f"{b}.{f}" for b in BOUNDARIES for f in _FIELDS]
    out += [f"{layer}.{f}" for layer in LAYERS for f in _FIELDS]
    out += ["fft.calls", "fft.xf", "fft.self_s", "fft.points"]
    out += [
        "mhd.step.xf_per_call",
        "diagnostics.DiagnosticsStream.append.xf_per_call",
        "diagnostics.curl_pair.calls_per_record",
        "paracalc.unique_input_frac",
        "paracalc.commutator_family.unique_input_frac",
        "paracalc.commutator_split_family.unique_input_frac",
        "mhd.pressure_gradient.busy_share",
    ]
    return out


def op_metrics(names, spans, digests) -> dict:
    """Reduce the spans (and input digests) of one op to per-layer metrics.

    calls  : spans of the boundary or layer
    busy_s : summed duration of its outermost spans (no ancestor of the same
             boundary or layer), i.e. inclusive time counted once
    self_s : summed duration minus the time covered by direct child spans
    xf     : scalar transforms issued while it is the innermost open span
    """
    n = len(spans)
    fft_idx = names.index(FFT)
    layer_idx = [layer_of(name) if name != FFT else FFT for name in names]
    child_time = [0.0] * n
    incl_xf = [0] * n
    for i, (idx, parent, start, end, xf, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if xf:
                p = parent
                while p >= 0:
                    incl_xf[p] += xf
                    p = spans[p][1]

    per_name = {name: dict.fromkeys(_FIELDS, 0) for name in names}
    per_layer = {layer: dict.fromkeys(_FIELDS, 0) for layer in LAYERS + (FFT,)}
    incl = {name: 0 for name in names}
    points = 0
    for i, (idx, parent, start, end, xf, pts) in enumerate(spans):
        name, layer = names[idx], layer_idx[idx]
        dur = end - start
        own, lay = per_name[name], per_layer[layer]
        own["calls"] += 1
        lay["calls"] += 1
        own["self_s"] += dur - child_time[i]
        lay["self_s"] += dur - child_time[i]
        incl[name] += incl_xf[i]
        if idx == fft_idx:
            points += pts
            lay["xf"] += xf
            if parent >= 0:
                per_name[names[spans[parent][0]]]["xf"] += xf
                pl = layer_idx[spans[parent][0]]
                if pl != FFT:
                    per_layer[pl]["xf"] += xf
        outer_name = outer_layer = True
        p = parent
        while p >= 0 and (outer_name or outer_layer):
            pidx = spans[p][0]
            if pidx == idx:
                outer_name = False
            if layer_idx[pidx] == layer:
                outer_layer = False
            p = spans[p][1]
        if outer_name:
            own["busy_s"] += dur
        if outer_layer:
            lay["busy_s"] += dur

    out = {}
    for b in BOUNDARIES:
        for f in _FIELDS:
            out[f"{b}.{f}"] = per_name[b][f]
    for layer in LAYERS:
        for f in _FIELDS:
            out[f"{layer}.{f}"] = per_layer[layer][f]
    out["fft.calls"] = per_layer[FFT]["calls"]
    out["fft.xf"] = per_layer[FFT]["xf"]
    out["fft.self_s"] = per_layer[FFT]["self_s"]
    out["fft.points"] = points

    def ratio(a, b):
        return a / b if b else 0.0

    out["mhd.step.xf_per_call"] = ratio(incl["mhd.step"], out["mhd.step.calls"])
    append = "diagnostics.DiagnosticsStream.append"
    out[f"{append}.xf_per_call"] = ratio(incl[append], out[f"{append}.calls"])
    out["diagnostics.curl_pair.calls_per_record"] = ratio(
        out["diagnostics.curl_pair.calls"], out["diagnostics.record.calls"]
    )
    out["paracalc.unique_input_frac"] = ratio(
        len({d[1:] for d in digests}), len(digests)
    )
    for fam in COMMUTATOR_FAMILIES:
        idx = names.index(fam)
        mine = [d[1:] for d in digests if d[0] == idx]
        out[f"{fam}.unique_input_frac"] = ratio(len(set(mine)), len(mine))
    out["mhd.pressure_gradient.busy_share"] = ratio(
        out["mhd.pressure_gradient.busy_s"], out["mhd.step.busy_s"]
    )
    return out
