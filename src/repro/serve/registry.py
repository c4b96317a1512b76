"""Many bundles behind one daemon: the :class:`BundleRegistry`.

One production daemon rarely serves one catalog. The registry maps
bundle *names* to on-disk artifact bundles, opens a
:class:`~repro.serve.session.LinkSession` lazily on a name's first
request, and keeps at most ``max_open`` warm sessions alive — the
least-recently-used *idle* session is evicted when the cap is crossed.
"Idle" is load-bearing: a session with in-flight requests (tracked by
:meth:`lease`) or live delta streams is never evicted, because stream
state is cumulative and closing it mid-stream would silently reset a
client's fold.

Open/evict/request counters feed ``GET /stats``; a cheap manifest-only
summary (no component reads) feeds ``GET /bundles`` for closed entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.serve.session import LinkSession, ServeError

#: Default cap on simultaneously-open warm sessions.
DEFAULT_MAX_OPEN = 4


class UnknownBundleError(ServeError):
    """A request named a bundle the registry does not host (HTTP 404)."""


class BundleRegistry:
    """Named artifact bundles with lazy open and idle-LRU eviction."""

    def __init__(
        self,
        bundles: Mapping[str, Path | str],
        *,
        default: Optional[str] = None,
        max_open: int = DEFAULT_MAX_OPEN,
        cache_size: Optional[int] = None,
    ) -> None:
        if not bundles:
            raise ServeError("a bundle registry needs at least one bundle")
        if max_open < 1:
            raise ServeError(f"max_open must be >= 1, got {max_open}")
        self._paths: Dict[str, Path] = {
            name: Path(path) for name, path in bundles.items()
        }
        for name in self._paths:
            if not name:
                raise ServeError("bundle names must be non-empty")
        if default is None:
            default = next(iter(self._paths))
        if default not in self._paths:
            raise ServeError(
                f"default bundle {default!r} is not registered "
                f"(have: {', '.join(sorted(self._paths))})"
            )
        self._default = default
        self._max_open = max_open
        self._cache_size = cache_size
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, LinkSession]" = OrderedDict()
        self._open_locks = {name: threading.Lock() for name in self._paths}
        self._leases: Dict[str, int] = {name: 0 for name in self._paths}
        self._requests: Dict[str, int] = {name: 0 for name in self._paths}
        self._opens = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def default_bundle(self) -> str:
        """The name ``/link`` requests without a ``bundle`` field route to."""
        return self._default

    @property
    def max_open(self) -> int:
        """The cap on simultaneously-open warm sessions."""
        return self._max_open

    def names(self) -> Tuple[str, ...]:
        """All registered bundle names, sorted."""
        return tuple(sorted(self._paths))

    def is_open(self, name: str) -> bool:
        """Whether *name* currently holds a warm session."""
        with self._lock:
            return name in self._sessions

    def open_sessions(self) -> Dict[str, LinkSession]:
        """A snapshot of the open sessions, without touching LRU order."""
        with self._lock:
            return dict(self._sessions)

    def resolve(self, name: Optional[str]) -> str:
        """Map a request's bundle field (or ``None``) to a hosted name."""
        if name is None:
            return self._default
        if not isinstance(name, str) or name not in self._paths:
            raise UnknownBundleError(
                f"unknown bundle {name!r}; hosted bundles: "
                f"{', '.join(self.names())}"
            )
        return name

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self, name: Optional[str] = None) -> LinkSession:
        """The warm session for *name*, opening it lazily if needed."""
        name = self.resolve(name)
        with self._lock:
            session = self._sessions.get(name)
            if session is not None:
                self._sessions.move_to_end(name)
                return session
        # load outside the registry lock (bundle loads take real time
        # and other names must keep answering), but one load per name
        with self._open_locks[name]:
            with self._lock:
                session = self._sessions.get(name)
                if session is not None:
                    self._sessions.move_to_end(name)
                    return session
            session = self._open(name)
            with self._lock:
                self._sessions[name] = session
                self._sessions.move_to_end(name)
                self._opens += 1
                self._evict_idle(protect=name)
            return session

    def _open(self, name: str) -> LinkSession:
        from repro.index.artifacts import load_bundle

        return LinkSession(load_bundle(self._paths[name]), cache_size=self._cache_size)

    def _evict_idle(self, protect: Optional[str] = None) -> None:
        # under self._lock. Walk oldest-first, skipping busy sessions:
        # an in-flight lease means a request is mid-run on it, a live
        # stream means a client's cumulative fold would be lost, and
        # *protect* is the session just opened for the caller. The cap
        # is therefore soft under pathological load — correctness over
        # ceremony.
        while len(self._sessions) > self._max_open:
            victim = None
            for name, session in self._sessions.items():
                if name == protect:
                    continue
                if self._leases.get(name, 0) > 0:
                    continue
                if session.stream_count > 0:
                    continue
                victim = name
                break
            if victim is None:
                return
            del self._sessions[victim]
            self._evictions += 1

    @contextmanager
    def lease(self, name: Optional[str] = None) -> Iterator[LinkSession]:
        """A session checked out for one request.

        While leased, the session cannot be LRU-evicted; the request
        counter ticks on checkout.
        """
        name = self.resolve(name)
        session = self.session(name)
        with self._lock:
            self._leases[name] += 1
            self._requests[name] += 1
        try:
            yield session
        finally:
            with self._lock:
                self._leases[name] -= 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Registry-level counters plus per-bundle open/request state."""
        with self._lock:
            return {
                "default": self._default,
                "max_open": self._max_open,
                "open": len(self._sessions),
                "opens": self._opens,
                "evictions": self._evictions,
                "bundles": {
                    name: {
                        "open": name in self._sessions,
                        "requests": self._requests[name],
                        "in_flight": self._leases[name],
                    }
                    for name in sorted(self._paths)
                },
            }

    def summary(self) -> Dict[str, Any]:
        """The ``GET /bundles`` body: every hosted bundle, cheaply.

        Open bundles report their live session snapshot; closed ones
        only their manifest facts (no component reads, so listing a
        registry of cold multi-GB bundles stays O(names)).
        """
        from repro.index.artifacts import ArtifactError, read_manifest

        with self._lock:
            open_names = set(self._sessions)
            sessions = dict(self._sessions)
        entries: Dict[str, Any] = {}
        for name in self.names():
            entry: Dict[str, Any] = {"open": name in open_names}
            if name in open_names:
                session = sessions[name]
                entry["records"] = len(session.local_store)
                entry["blocking"] = session.blocking_name
                entry["requests"] = session.request_count
            else:
                try:
                    manifest = read_manifest(self._paths[name])
                except ArtifactError as exc:
                    entry["error"] = str(exc)
                else:
                    entry["bytes"] = sum(
                        component["bytes"]
                        for component in manifest.get("components", {}).values()
                    )
                    entry["components"] = sorted(manifest.get("components", {}))
            entries[name] = entry
        return {"default": self._default, "bundles": entries}
