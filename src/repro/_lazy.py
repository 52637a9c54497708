"""Lazy package namespaces (PEP 562).

A package ``__init__`` maps each public name to the module that
defines it; the module is imported the first time the name is looked
up, so ``import repro.cli`` pays only for what a command runs while
``from repro[.pkg] import X`` keeps working for every exported name.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, namespace: Dict, exports: Dict[str, str]
) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for a package namespace.

    Args:
        package: the package's ``__name__``.
        namespace: the package's ``globals()``; a resolved name is
            cached there, so each is imported once.
        exports: public name -> defining module, relative to
            ``package`` when it starts with ``.``; ``"module:attr"``
            exports ``attr`` under another name.
    """

    def __getattr__(name: str):
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, _, attr = target.partition(":")
        value = getattr(import_module(module, package), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__
