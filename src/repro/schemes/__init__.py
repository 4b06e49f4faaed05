"""Pluggable recovery schemes: one contract, one registry, many schemes.

Adding a scheme is one module: subclass
:class:`~repro.schemes.base.RecoveryScheme`, decorate it with
:func:`register_scheme`, and every driver — serial runner, parallel
shards, traffic engine, CLI — can run it by name.  External modules load
through the ``REPRO_SCHEME_MODULES`` environment variable (see
:mod:`repro.schemes.registry`).
"""

from .base import RecoveryScheme, SchemeInstance, SchemeLifecycleError
from .registry import (
    PLUGIN_ENV,
    build_schemes,
    create_scheme,
    get_scheme,
    register_scheme,
    scheme_names,
    unknown_scheme_error,
    validate_names,
)

# Built-in schemes self-register on import, in the paper's comparison order.
from .rtr import RTRScheme
from .fcp import FCPScheme
from .mrc import MRCScheme
from .ospf import OSPFScheme
from .oracle import OracleScheme
from .r3 import R3Scheme

__all__ = [
    "RecoveryScheme",
    "SchemeInstance",
    "SchemeLifecycleError",
    "PLUGIN_ENV",
    "build_schemes",
    "create_scheme",
    "get_scheme",
    "register_scheme",
    "scheme_names",
    "unknown_scheme_error",
    "validate_names",
    "RTRScheme",
    "FCPScheme",
    "MRCScheme",
    "OSPFScheme",
    "OracleScheme",
    "R3Scheme",
]
