"""Per-worker-process cache for broadcast objects (``ray.put`` refs).

Stateless ``map_batches`` tasks get actor-pool-style amortization
(deserialize a broadcast once per worker process) without the cost of
starting an actor pool on every stage call. Only the most recent
``CACHE_ENTRIES`` broadcasts are kept, so a long-lived worker does not pin
every earlier call's objects.
"""

from __future__ import annotations

from collections import OrderedDict

CACHE_ENTRIES = 8

_WORKER_CACHE: OrderedDict[str, object] = OrderedDict()


def get_cached(ref):
    """``ray.get(ref)``, deserialized at most once per worker process while
    the ref stays among the most recently used entries."""
    import ray

    key = ref.hex()
    if key in _WORKER_CACHE:
        _WORKER_CACHE.move_to_end(key)
        return _WORKER_CACHE[key]
    value = ray.get(ref)
    _WORKER_CACHE[key] = value
    while len(_WORKER_CACHE) > CACHE_ENTRIES:
        _WORKER_CACHE.popitem(last=False)
    return value
