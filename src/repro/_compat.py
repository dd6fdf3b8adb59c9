"""Small compatibility shims, and the lazy-export hook of package roots."""

import importlib
import sys
from functools import cached_property

__all__ = ["cached_property", "lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose names
    load on first use.

    ``exports`` maps each submodule to the names the package re-exports
    from it.  A name resolves to its submodule's own object, which is
    then bound in the package, so the hook runs once per name; any other
    submodule resolves as an attribute, as if the package had imported
    it.  A process-backend rank imports its program's package, and so
    pays only for the submodules its program runs.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in owner:
            module = importlib.import_module(f"{package}.{owner[name]}")
            value = namespace[name] = getattr(module, name)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner, *exports})

    return __getattr__, __dir__
