"""Process-global kernel backend selection: one switch for every layer.

Hot kernels in this codebase come in two implementations: a batched
``vectorized`` numpy path (the production default) and a ``scalar``
Python-loop path kept as the bit-identical reference the vectorized
kernels are differentially tested against (DESIGN decision 12 states
the construction rules that make them bit-identical).  One switch
governs them all: the analysis kernels (BBV normalisation, random
projection, distances, k-means, BIC) and the engine's trace builder and
functional profilers.

Select the backend for a whole process with ``$REPRO_BACKEND`` (read
once, at first use) or for a block with :func:`use_backend`.  An
unknown name from either raises :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from .errors import ConfigError

#: Recognised backend names, fastest first; index 0 is the default.
BACKENDS: Tuple[str, ...] = ("vectorized", "scalar")

#: Environment variable selecting the backend at first use.
BACKEND_ENV = "REPRO_BACKEND"

_active: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    return name


def get_backend() -> str:
    """The active backend name (``$REPRO_BACKEND`` consulted on first use)."""
    global _active
    if _active is None:
        _active = _validate(os.environ.get(BACKEND_ENV, BACKENDS[0]))
    return _active


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Run a block under backend *name*, then restore the previous one."""
    global _active
    previous = get_backend()
    _active = _validate(name)
    try:
        yield name
    finally:
        _active = previous
