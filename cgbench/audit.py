"""Consistency audit: every cached value against the database, at quiescence.

After a replay (and after pending refreshes drain) each key held by a cache
server is mapped back to its cached object and parameters, and the cached
value is compared with a fresh ``compute_from_db`` under the semantics the
object's query declares:

* a count must be equal;
* an unordered list is compared as a multiset of rows;
* an ordered list must have the same sequence of order keys, and its rows
  are then compared as a multiset (rows tied on the key may come back in
  any order).  When a limit cut the list, the rows tied with the key at
  the cut are compared by length only: the database may pick another
  subset of the tied rows than the cache holds, and both are right.

The audit reports; it does not gate.  Update-in-place has known divergences
and the benchmark shows them as ``stale_key_share``.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _row_token(row: Any) -> str:
    if isinstance(row, dict):
        return repr(sorted(row.items()))
    return repr(row)


def _multiset(rows: Sequence[Any]) -> Counter:
    return Counter(_row_token(row) for row in rows)


def values_agree(cached: Any, fresh: Any,
                 order_key: Optional[Callable[[Any], Any]] = None,
                 limit: Optional[int] = None) -> bool:
    """Whether a cached value is a correct answer to the query ``fresh`` answers.

    ``order_key`` is the declared ordering of a list (None: unordered);
    ``limit`` the declared cut of an ordered list (None: no cut).
    """
    if not isinstance(cached, list) or not isinstance(fresh, list):
        return cached == fresh
    if order_key is None:
        return _multiset(cached) == _multiset(fresh)
    cached_keys = [order_key(row) for row in cached]
    if cached_keys != [order_key(row) for row in fresh]:
        return False
    cut = (cached_keys[-1]
           if limit is not None and cached_keys and len(cached_keys) >= limit
           else None)
    if cut is None:
        return _multiset(cached) == _multiset(fresh)
    return (_multiset([r for r in cached if order_key(r) != cut])
            == _multiset([r for r in fresh if order_key(r) != cut]))


def declared_semantics(cached_object: Any
                       ) -> Tuple[Optional[Callable[[Any], Any]], Optional[int]]:
    """(order key, limit) of a cached object's query, as presented to readers."""
    column = (getattr(cached_object, "sort_column", None)
              or getattr(cached_object, "order_column", None))
    if not column:
        return None, None
    limit = getattr(cached_object, "k", None)
    if limit is None:
        limit = getattr(cached_object, "limit", None)
    return (lambda row: row.get(column)), limit


@dataclass
class AuditResult:
    """Outcome of one audit."""

    keys_audited: int = 0
    stale_keys: int = 0
    #: Keys no cached object claims, or whose parameters could not be
    #: recovered from the key; an audit with any is incomplete.
    unmapped_keys: int = 0
    stale_by_object: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.unmapped_keys == 0


def _params_from_key(cached_object: Any, key: str) -> Optional[Dict[str, Any]]:
    """Recover evaluate() parameters from a key, or None if not possible."""
    parts = key[len(cached_object.keys.prefix) + 1:].split(":")
    if len(parts) != len(cached_object.where_fields):
        return None
    try:
        values = [ast.literal_eval(part) for part in parts]
    except (ValueError, SyntaxError):
        return None
    params = dict(zip(cached_object.where_fields, values))
    if cached_object.make_key(**params) != key:
        return None
    return params


def audit_cache(genie: Any, cache_servers: Sequence[Any]) -> AuditResult:
    """Compare every cached value with the database, after refreshes drain."""
    genie.run_pending_refreshes()
    by_prefix = {obj.keys.prefix + ":": obj
                 for obj in genie.cached_objects.values()}
    result = AuditResult()
    keys: List[str] = sorted(key for server in cache_servers
                             for key in server.store.keys())
    for key in keys:
        cached_object = next((obj for prefix, obj in by_prefix.items()
                              if key.startswith(prefix)), None)
        params = (_params_from_key(cached_object, key)
                  if cached_object is not None else None)
        if params is None:
            result.unmapped_keys += 1
            continue
        cached = cached_object.peek(**params)
        if cached is None:  # expired between listing and reading
            continue
        cached = cached_object._present(cached)
        fresh = cached_object._present(cached_object.compute_from_db(params))
        order_key, limit = declared_semantics(cached_object)
        result.keys_audited += 1
        if not values_agree(cached, fresh, order_key, limit):
            result.stale_keys += 1
            result.stale_by_object[cached_object.name] = (
                result.stale_by_object.get(cached_object.name, 0) + 1)
    return result
