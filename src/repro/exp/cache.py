"""Content-addressed on-disk result cache.

Every simulation result is stored under
``<root>/<code_version>/<config_hash>.json`` — the config hash
identifies *what* ran (every knob of the resolved run config) and the
code-version directory pins *which code* ran it: the package version
plus a hash of the model sources (:func:`code_version`), so editing
the physics never serves results the old code computed.  Re-running
a sweep therefore only executes new or changed points, and an
interrupted sweep resumes for free: every point that completed before
the interruption is a cache hit.

The root directory defaults to ``.repro-cache`` in the working
directory and can be moved with the ``REPRO_CACHE_DIR`` environment
variable.  Writes are atomic (temp file + rename), so a sweep killed
mid-write never corrupts an entry — a torn entry simply reads as a
miss.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import tempfile
import time
from typing import Dict, List, Optional

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


#: Subpackages whose sources decide simulation results; the code
#: version hashes them (reporting, caching and the CLI are left out).
MODEL_PACKAGES = (
    "system", "core", "storage", "harvest", "nvm", "isa", "workloads",
    "baselines", "policy", "lang",
)


@functools.lru_cache(maxsize=None)
def code_version(package_dir: Optional[str] = None) -> str:
    """``<__version__>+<12 hex>``: the namespace of cache entries.

    The hex part is a SHA-256 over the sorted relative paths and bytes
    of every ``*.py`` file under :data:`MODEL_PACKAGES` of
    ``package_dir`` (default: the installed ``repro`` package), so any
    edit to the model code moves results to a fresh namespace.  It is
    computed once per process and directory.
    """
    import repro

    root = package_dir or os.path.dirname(os.path.abspath(repro.__file__))
    paths = sorted(
        os.path.relpath(path, root).replace(os.sep, "/")
        for package in MODEL_PACKAGES
        for path in glob.glob(
            os.path.join(root, package, "**", "*.py"), recursive=True
        )
    )
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as handle:
            digest.update(f"{path}\0".encode() + handle.read() + b"\0")
    return f"{repro.__version__}+{digest.hexdigest()[:12]}"


class ResultCache:
    """Content-addressed store for sweep results.

    Args:
        root: cache root directory; ``None`` uses
            :func:`default_cache_dir` (which honours
            ``REPRO_CACHE_DIR``).
        version: code-version namespace; ``None`` uses
            :func:`code_version`.
        tracer: optional :class:`~repro.obs.spans.SpanTracer`; when
            set, every :meth:`get` / :meth:`put` records a span with
            hit attribution (the cache-hit timeline in
            ``repro sweep --trace``).
    """

    def __init__(
        self,
        root: Optional[str] = None,
        version: Optional[str] = None,
        tracer=None,
    ) -> None:
        self.root = root or default_cache_dir()
        self.version = version or code_version()
        self.tracer = tracer

    @property
    def directory(self) -> str:
        """The version-namespaced entry directory."""
        return os.path.join(self.root, self.version)

    def path(self, key: str) -> str:
        """Entry path for a config hash."""
        if not key or os.sep in key or key.startswith("."):
            raise ValueError(f"invalid cache key {key!r}")
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry is treated as a miss (and left
        for the next :meth:`put` to overwrite).
        """
        if self.tracer is not None:
            with self.tracer.span("cache.get", key=key) as attrs:
                payload = self._get(key)
                attrs["hit"] = payload is not None
            return payload
        return self._get(key)

    def _get(self, key: str) -> Optional[Dict]:
        try:
            with open(self.path(key)) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def put(self, key: str, payload: Dict) -> str:
        """Atomically store ``payload`` under ``key``; returns the path.

        The stored record carries the key, version and write time next
        to the caller's payload so entries are self-describing.
        """
        if self.tracer is not None:
            with self.tracer.span("cache.put", key=key):
                return self._put(key, payload)
        return self._put(key, payload)

    def _put(self, key: str, payload: Dict) -> str:
        record = {
            "key": key,
            "code_version": self.version,
            "stored_unix": time.time(),
        }
        record.update(payload)
        path = self.path(key)
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def keys(self) -> List[str]:
        """Every stored config hash (sorted)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name[:-5]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry in this version namespace; returns count."""
        removed = 0
        for key in self.keys():
            try:
                os.unlink(self.path(key))
                removed += 1
            except OSError:
                pass
        return removed
