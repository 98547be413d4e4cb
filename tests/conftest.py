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
    scipy.fft rfftn/irfftn and rfft/irfft, and returns the list that then
    receives the number of scalar N^d transforms (the batch size) of every
    call.

    A pruned transform (`spectral._forward` or `_inverse` with a half-width
    k) of m components counts m: its one rfft or irfft, over the last axis
    of an (m, N, .., N, .) array with N points per transform, is counted,
    and its fft or ifft passes are not."""

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

        def boxed(original):
            def counted(x, *args, **kwargs):
                # the last-axis pass over an (m, N, .., N, .) array
                counts.append(math.prod(x.shape[:-1]) // x.shape[1] ** (x.ndim - 2))
                return original(x, *args, **kwargs)

            return counted

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name, boxed(getattr(scipy.fft, name)))
        return counts

    return start


@pytest.fixture
def box_passes(monkeypatch):
    """List that receives one entry per scipy.fft.ifft call: the leading-axis
    passes of box inverses (`spectral._inverse` with a half-width k), so a
    test can see that the box path ran.  The entry is the last-axis width
    of the pass's input, the box's k + 1 columns, so a test can also see
    which box it was."""
    import scipy.fft

    passes, ifft = [], scipy.fft.ifft

    def counted(x, *args, **kwargs):
        passes.append(x.shape[-1])
        return ifft(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "ifft", counted)
    return passes
