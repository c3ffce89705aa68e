"""Weighted draws with numpy's ``Generator.choice`` stream, at less cost per call.

``rng.choice(n, p=p)`` checks ``p`` and rebuilds its cumulative
distribution on every call, which costs several times the draw itself.
:func:`choice_cdf` builds that distribution once, exactly as numpy
builds it, and :func:`draw` then makes the same single uniform draw and
the same right-sided search.  The generator's stream and every result
stay as they were; ``tests/synth/test_stream_oracle.py`` holds the
synthetic world to the ``rng.choice`` forms.

A draw over a sequence, ``rng.choice(seq)``, has an exact cheap form
too, written inline where it is used: ``seq[int(rng.integers(len(seq)))]``
makes the same one bounded-integer draw.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cdf ``Generator.choice`` searches for ``p``: its cumsum over the last entry."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw(cdf: list[float], rng: np.random.Generator) -> int:
    """``int(rng.choice(len(cdf), p=p))`` for ``cdf == choice_cdf(p)``."""
    return bisect_right(cdf, rng.random())
