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

# The r3 scheme lives in the TE layer (repro.te.r3) but registers here
# with the built-ins.  Import the *module* (not the class): when
# repro.te.r3 is imported first, it re-enters this package mid-body and
# its class does not exist yet — the module object binding is cycle-safe
# and registration completes when its body resumes.
from ..te import r3 as _te_r3


def __getattr__(name: str):
    if name == "R3Scheme":
        return _te_r3.R3Scheme
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
