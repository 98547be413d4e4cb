import math

import pytest


@pytest.fixture(autouse=True, scope="session")
def pinned_allocator():
    """Fix glibc's allocator thresholds once for the session, as the CLI
    does for its own process: the lab's and the solver's large arrays are
    then reused, not mapped and faulted in afresh on every call."""
    from lpmhd import cli

    cli._pin_allocator()


@pytest.fixture
def count_transforms(monkeypatch):
    """Return a function that starts counting transforms: it wraps
    scipy.fft rfftn/irfftn and returns the list that then receives the
    number of scalar N^d transforms (the batch size) of every call."""

    def start():
        import scipy.fft

        counts = []
        for name in ("rfftn", "irfftn"):
            original = getattr(scipy.fft, name)

            def counted(x, s=None, axes=None, *args, _original=original, **kwargs):
                if axes is None:
                    axes = (
                        range(x.ndim - len(s), x.ndim) if s is not None else range(x.ndim)
                    )
                transformed = {a % x.ndim for a in axes}
                counts.append(
                    math.prod(n for a, n in enumerate(x.shape) if a not in transformed)
                )
                return _original(x, s, axes, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        return counts

    return start
