"""Disk cache for expensive experiment artefacts.

Whole-program detailed baselines take seconds-to-minutes per benchmark and
config; the cache stores their JSON-serialised results keyed by a content
key that includes a schema version, so stale entries are ignored after
incompatible changes.

The cache is safe under concurrent writers (the parallel suite runner fans
worker processes out over one shared cache directory): writes go to a
uniquely named temporary file in the cache directory and are published with
an atomic :func:`os.replace`, and readers tolerate corrupt or partially
written entries by treating them as misses.  A corrupt entry is also
*quarantined* — renamed to ``<entry>.corrupt`` so it cannot be re-read as
corrupt forever (or hide a disk problem), and counted on the instance's
``corrupt`` counter; ``clear()`` sweeps quarantined files along with
stranded temp files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from ..obs import CACHE_CORRUPT, CACHE_HITS, CACHE_MISSES, MetricsRegistry

#: Bump when cached payload layouts change.  The version is part of the
#: content key *and* stored inside every entry, so an entry written under
#: another schema is detectable (and quarantined) even if it lands on the
#: same path.
CACHE_SCHEMA_VERSION = 7

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache/``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


def atomic_write(path: Path, text: str) -> None:
    """Replace *path* with *text* atomically.

    The text goes to a ``mkstemp`` file beside *path* (unique per process
    and call, named ``<stem>.*.tmp`` so :meth:`ResultCache.clear` sweeps
    one a crash strands), published with :func:`os.replace`; on error
    the temporary file is removed.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.stem + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """A trivially simple key -> JSON file cache.

    ``hits`` / ``misses`` / ``corrupt`` count :meth:`get` outcomes —
    backed by counters on a :class:`MetricsRegistry` (a private one by
    default; :meth:`bind_metrics` rebinds to a shared registry, which is
    how the experiment runner folds cache traffic into its observability
    context and ``--metrics-out``).  They are per-process statistics,
    not shared state.  Every corrupt read is also a miss.
    """

    def __init__(
        self,
        directory: Optional[Path] = None,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Re-home this cache's counters onto *registry*.

        Counts already booked on the old registry carry over, so binding
        after use loses nothing.
        """
        if registry is self.metrics:
            return
        registry.merge(self.metrics)
        self.metrics = registry

    @property
    def hits(self) -> int:
        """Reads served from a whole, current-schema entry."""
        return int(self.metrics.value(CACHE_HITS))

    @property
    def misses(self) -> int:
        """Reads that found nothing usable (corrupt reads included)."""
        return int(self.metrics.value(CACHE_MISSES))

    @property
    def corrupt(self) -> int:
        """Reads that quarantined a torn, stale or colliding entry."""
        return int(self.metrics.value(CACHE_CORRUPT))

    def path_for(self, key: str) -> Path:
        """The on-disk path an entry for *key* occupies."""
        digest = hashlib.sha256(
            f"v{CACHE_SCHEMA_VERSION}:{key}".encode()
        ).hexdigest()[:24]
        return self.directory / f"{digest}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``*.json.corrupt``) so it is not
        re-read forever, and count it."""
        self.metrics.counter(CACHE_CORRUPT).inc()
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            # A concurrent reader quarantined it first, or the directory
            # is read-only; either way the entry already reads as a miss.
            pass

    def get(self, key: str) -> Optional[Any]:
        """Fetch a cached payload, or None."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path) as handle:
                wrapper = json.load(handle)
        except FileNotFoundError:
            self.metrics.counter(CACHE_MISSES).inc()
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Unreadable or partially written by a crashed writer: a
            # miss, and the torn file is quarantined so the recompute's
            # fresh entry replaces it.
            self.metrics.counter(CACHE_MISSES).inc()
            self._quarantine(path)
            return None
        if (
            not isinstance(wrapper, dict)
            or wrapper.get("version") != CACHE_SCHEMA_VERSION
            or wrapper.get("key") != key
        ):
            # Wrong schema generation or a key collision: structurally
            # whole but unusable — quarantine it too.
            self.metrics.counter(CACHE_MISSES).inc()
            self._quarantine(path)
            return None
        self.metrics.counter(CACHE_HITS).inc()
        return wrapper.get("payload")

    def put(self, key: str, payload: Any) -> None:
        """Store *payload* (must be JSON-serialisable) under *key*.

        Concurrent writers never clobber each other mid-write: each write
        goes to its own ``mkstemp`` file (unique per process and call)
        before the atomic rename.  Losing a same-key race is harmless —
        both writers publish identical payloads.
        """
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        # One ``json.dumps`` string: ``json.dump`` to a stream runs the
        # pure-Python encoder, about 3x slower for the same text.
        text = json.dumps({
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
        })
        atomic_write(path, text)

    def clear(self) -> int:
        """Delete all cache files — including stranded ``*.tmp`` files
        left by crashed writers and quarantined ``*.corrupt`` entries;
        returns how many live entries were removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for pattern in ("*.tmp", "*.corrupt"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
