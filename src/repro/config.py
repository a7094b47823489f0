"""Config-normalization helpers: JSON round-trips.

The protocol/fault configs (:class:`~repro.protocols.inicproto.INICProtoConfig`,
:class:`~repro.protocols.raw.RawConfig`,
:class:`~repro.net.batching.BatchPolicy`, :class:`~repro.faults.FaultSpec`)
share field conventions — ``max_retries``, ``timeout``, ``seed`` — and a
``to_json``/``from_json`` round-trip.  This module provides the plumbing:
:func:`config_to_json` / :func:`config_from_json` — recursive
dataclass <-> plain-JSON-dict conversion with unknown-key rejection.

:class:`~repro.errors.ConfigError` (re-exported here) roots the error
family: domain-specific config errors such as
:class:`~repro.errors.FaultConfigError` subclass it, so unknown-key
rejection is catchable uniformly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Type, TypeVar

from .errors import ConfigError

__all__ = [
    "ConfigError",
    "config_to_json",
    "config_from_json",
]

T = TypeVar("T")


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, (list, dict, str, int, float, bool)) or value is None:
        return value
    raise ConfigError(f"cannot JSON-encode config value {value!r}")


def config_to_json(obj: Any) -> dict[str, Any]:
    """A dataclass config as a plain JSON-safe dict (recursive)."""
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise ConfigError(f"config_to_json needs a dataclass instance, got {obj!r}")
    return _encode(obj)


def config_from_json(cls: Type[T], doc: dict[str, Any]) -> T:
    """Rebuild a dataclass config from :func:`config_to_json` output.

    Unknown keys are rejected (catching typos and stale documents);
    nested dataclass fields are rebuilt recursively; lists are restored
    to tuples where the field was a tuple.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__}: config document must be a dict")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown config fields {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in doc.items():
        f = known[name]
        if isinstance(value, dict):
            # Nested dataclass: infer the class from the field's default
            # (the configs here always default their nested policies).
            nested = None
            if f.default is not dataclasses.MISSING and dataclasses.is_dataclass(
                f.default
            ):
                nested = type(f.default)
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                probe = f.default_factory()  # type: ignore[misc]
                if dataclasses.is_dataclass(probe):
                    nested = type(probe)
            if nested is not None:
                value = config_from_json(nested, value)
        elif isinstance(value, list) and isinstance(f.default, tuple):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[name] = value
    return cls(**kwargs)
