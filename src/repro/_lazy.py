"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports offline code (training, benches, load
drivers) would otherwise load it into every importer, the serving
process included.  ``__getattr__ = lazy_exports(__name__, {...})``
defers each such submodule to the first access of one of its names.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` that imports a name's submodule on use.

    Args:
        package: the package's ``__name__``.
        exports: submodule name (relative to ``package``) -> the names
            the package re-exports from it.
    """
    owners = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(
            importlib.import_module(f"{package}.{owners[name]}"), name
        )
        # Cache in the package namespace: later lookups skip this hook.
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
