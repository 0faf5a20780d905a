"""Result caching for the engine layer.

:class:`LRUCache` is an optional bounded result cache keyed by the
exact query (plus query parameters).  Hits skip both steps entirely —
the right trade for heavy-traffic serving where a small set of hot
queries dominates.  It holds answers from one dataset epoch:
:class:`~repro.engine.base.BaseEngine` clears it whenever the dataset's
mutation epoch moves, so it cannot serve a pre-mutation answer after an
``insert``/``delete``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LRUCache"]

#: Sentinel distinguishing "miss" from a cached ``None``.
_MISS = object()


class LRUCache:
    """A bounded mapping evicting the least recently used entry."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit.

        Returns ``default`` (``None`` unless given) on a miss; callers
        that cache ``None``-valued entries should pass
        :data:`LRUCache.MISS` as the default to disambiguate.
        """
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the oldest entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are preserved)."""
        self._data.clear()


LRUCache.MISS = _MISS
