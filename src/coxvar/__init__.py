"""Varchenko determinants of finite Coxeter reflection arrangements.

The names below are re-exported lazily (PEP 562): ``import coxvar`` loads
no submodule and so no numpy, and the first read of a name imports the
module that defines it.  This lets ``coxvar.cli`` choose the BLAS thread
count of its own process before numpy is loaded.
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> submodule that defines it
_EXPORTS = {
    "CoxeterDiagram": "coxeter_core",
    "EnumeratedGroup": "coxeter_core",
    "build_group": "coxeter_core",
    "group": "coxeter_core",
    "parse_group_spec": "coxeter_core",
    "Factorization": "exact_algebra",
    "Monomial": "exact_algebra",
    "det_mod_p": "exact_algebra",
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
