"""Name-keyed registry of recovery schemes.

Schemes self-register at import time with :func:`register_scheme`; the
built-ins are registered when :mod:`repro.schemes` is imported.  External
schemes load from the ``REPRO_SCHEME_MODULES`` environment variable — a
comma-separated list of importable module paths (e.g.
``examples.custom_scheme``) imported on the first lookup miss, which also
makes plugin schemes available inside process-pool workers: the variable
is inherited, and every worker resolves names through this registry.
"""

from __future__ import annotations

import difflib
import importlib
import os
from typing import Dict, Iterable, Sequence, Tuple, Type

from .base import RecoveryScheme

#: Environment variable naming extra modules to import for registration.
PLUGIN_ENV = "REPRO_SCHEME_MODULES"

_REGISTRY: Dict[str, Type[RecoveryScheme]] = {}
_plugins_loaded = False


def register_scheme(cls: Type[RecoveryScheme]) -> Type[RecoveryScheme]:
    """Class decorator: add ``cls`` to the registry under ``cls.name``.

    Re-registration of the *same* class (or a re-executed definition of
    it, as ``runpy`` produces) is idempotent; two distinct schemes
    claiming one name is an error.
    """
    if not issubclass(cls, RecoveryScheme):
        raise TypeError(
            f"@register_scheme needs a RecoveryScheme subclass, got {cls!r}"
        )
    name = cls.name
    if not name:
        raise ValueError(
            f"scheme class {cls.__qualname__} must set a non-empty `name`"
        )
    existing = _REGISTRY.get(name)
    if (
        existing is not None
        and existing is not cls
        and existing.__qualname__ != cls.__qualname__
    ):
        raise ValueError(
            f"scheme name {name!r} is already registered by "
            f"{existing.__module__}.{existing.__qualname__}"
        )
    _REGISTRY[name] = cls
    return cls


def _load_plugins() -> None:
    """Import the modules named by ``REPRO_SCHEME_MODULES`` (once)."""
    global _plugins_loaded
    if _plugins_loaded:
        return
    _plugins_loaded = True
    spec = os.environ.get(PLUGIN_ENV, "")
    for module in filter(None, (part.strip() for part in spec.split(","))):
        importlib.import_module(module)


def unknown_scheme_error(name: str) -> ValueError:
    """The registry's lookup failure: lists schemes and the nearest match."""
    registered = ", ".join(sorted(_REGISTRY))
    message = f"unknown recovery scheme {name!r}: registered schemes are {registered}"
    close = difflib.get_close_matches(name, sorted(_REGISTRY), n=1)
    if close:
        message += f"; did you mean {close[0]!r}?"
    return ValueError(message)


def get_scheme(name: str) -> Type[RecoveryScheme]:
    """The scheme class registered under ``name`` (loads plugins on miss)."""
    cls = _REGISTRY.get(name)
    if cls is None:
        _load_plugins()
        cls = _REGISTRY.get(name)
    if cls is None:
        raise unknown_scheme_error(name)
    return cls


def scheme_names() -> Tuple[str, ...]:
    """Registered scheme names, sorted (plugins loaded first)."""
    _load_plugins()
    return tuple(sorted(_REGISTRY))


def validate_names(names: Iterable[str]) -> None:
    """Raise the registry's :class:`ValueError` on the first unknown name."""
    for name in names:
        get_scheme(name)


def create_scheme(name: str, **options: object) -> RecoveryScheme:
    """Construct one scheme by name with the shared option bag."""
    return get_scheme(name)(**options)


def build_schemes(
    names: Sequence[str], **options: object
) -> Dict[str, RecoveryScheme]:
    """Construct one scheme per name with one shared option bag.

    The returned dict preserves ``names`` order.  A ``fault_plan`` option
    (a :class:`~repro.chaos.FaultPlan`) reaches every scheme's
    constructor like any other option.
    """
    return {name: create_scheme(name, **options) for name in names}
