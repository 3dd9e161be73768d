"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists which of its submodules defines each public name; the
submodule is imported the first time one of its names is read, so
``import repro.checker`` (or any ``repro.*`` module, which imports the
root package first) costs no more than the modules a command actually
uses.  ``from repro.checker import X``, ``repro.checker.X``, ``__all__``
and ``dir()`` behave as they did with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """The ``(__getattr__, __dir__, names)`` hooks of ``package``.

    Args:
        package: the package's ``__name__``.
        sources: submodule path -> the public names it defines.

    ``names`` is the sorted list of lazy names, the package's
    ``__all__`` unless it also binds names itself.
    """
    owner = {name: module for module, names in sources.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = getattr(importlib.import_module(module), name)
        # bind it so later reads skip this hook
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, sorted(owner)
