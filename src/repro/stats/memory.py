"""Memory accounting for the samplers' index structures (Figure 11).

Python has no direct equivalent of the paper's resident-set measurements, so
memory usage is estimated by a recursive ``sys.getsizeof`` walk over the
sampler's object graph (deduplicating shared objects).  The absolute numbers
are Python-object sizes, not C++ heap bytes, but the *growth behaviour* —
linear in the input size even while the join size explodes — is exactly what
Figure 11 demonstrates and is preserved by this estimate.
"""

from __future__ import annotations

import sys
from typing import Any, Set


def deep_sizeof(obj: Any, _seen: Set[int] = None) -> int:
    """Approximate total size in bytes of an object graph.

    Follows containers (dict/list/tuple/set/frozenset), instance ``__dict__``
    and ``__slots__``.  Shared objects are counted once.
    """
    seen = _seen if _seen is not None else set()
    stack = [obj]
    total = 0
    while stack:
        current = stack.pop()
        identity = id(current)
        if identity in seen:
            continue
        seen.add(identity)
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        else:
            instance_dict = getattr(current, "__dict__", None)
            if instance_dict is not None:
                stack.append(instance_dict)
            slots = getattr(type(current), "__slots__", ())
            for slot in slots if isinstance(slots, (list, tuple)) else (slots,):
                if isinstance(slot, str) and hasattr(current, slot):
                    stack.append(getattr(current, slot))
    return total


def sampler_memory_bytes(sampler: Any) -> int:
    """Estimated memory footprint of a sampler (index + reservoir + data)."""
    return deep_sizeof(sampler)


def megabytes(num_bytes: int) -> float:
    """Bytes to MiB, for reporting."""
    return num_bytes / (1024.0 * 1024.0)
