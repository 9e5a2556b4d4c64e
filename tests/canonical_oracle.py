"""Executable specification of the request-hashing encoder.

:func:`canonical_value` is the type-tagged reduction that request
fingerprints have always hashed: dataclasses become ``{"__class__":
class name, field: value}`` mappings over their compared fields,
tuples and lists become lists, and JSON scalars stay as they are.
:func:`repro.service.cache.canonical_json` writes the text directly,
with per-type key layouts and a per-instance memo, and
``tests/test_service_cache.py`` pins it against
``json.dumps(canonical_value(x), sort_keys=True)``.

Nothing in ``repro`` imports this module.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass


def canonical_value(obj):
    """Recursively reduce ``obj`` to JSON-serializable primitives.

    Fields excluded from comparison (like
    :attr:`repro.cluster.topology.ClusterSpec.description`) are
    skipped.  Any type outside dataclasses, lists, tuples and JSON
    scalars raises ``TypeError``.  Unmemoised: every call walks the
    whole object.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        payload = {"__class__": type(obj).__name__}
        for f in fields(obj):
            if f.compare:
                payload[f.name] = canonical_value(getattr(obj, f.name))
        return payload
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")
