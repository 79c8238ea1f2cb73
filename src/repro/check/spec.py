"""Picklable system descriptions (:class:`SystemSpec`) and their builder.

Protocol objects carry lambdas and cannot be pickled, so anything that
runs a transition system in another process — the owner-computes driver
in :mod:`repro.check.partitioned` — *reconstructs* it there from a
picklable :class:`SystemSpec` (library protocols by name +
refinement-config kwargs) through :func:`build_system`.  The CLI and
the benchmarks build their in-process systems through the same function,
so one description means one system everywhere.

User protocols participate by registering a module-level factory with
:func:`register_factory`; its ``module:function`` path rides inside the
spec, so workers resolve it by import — which works under every
multiprocessing start method, including ``spawn``, where workers inherit
nothing from the parent.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

__all__ = ["SystemSpec", "build_system", "register_factory",
           "resolve_factory", "shippable_spec"]


@dataclass(frozen=True)
class SystemSpec:
    """Picklable description of a transition system to reconstruct.

    ``protocol`` is a library protocol name (``migratory``, ``invalidate``,
    ``msi``, ``mesi``) or a name registered via :func:`register_factory`.
    ``config`` holds :class:`~repro.refine.plan.RefinementConfig` kwargs as
    a tuple of items (hashable/picklable).  ``factory`` optionally pins a
    ``module:function`` protocol factory path, which worker processes
    resolve by import — the only registration that survives the ``spawn``
    start method; :func:`~repro.check.partitioned.explore_partitioned`
    fills it in automatically for registered factories.
    """

    protocol: str
    level: str  # "rendezvous" | "async"
    n_remotes: int
    config: tuple[tuple[str, Any], ...] = ()
    symmetry: bool = False
    factory: Optional[str] = None
    #: ample-set partial-order reduction (async level only; counts-preset
    #: — ``repro check`` sweeps verify no state predicates)
    por: bool = False

    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)

    def reductions(self) -> tuple[str, ...]:
        """Active reduction names, in wrapping order (inner first)."""
        return tuple(name for name, active in
                     (("por", self.por), ("symmetry", self.symmetry))
                     if active)


#: name -> (callable for this process, importable path for workers)
_EXTRA_FACTORIES: dict[str, tuple[Callable[[], Any], Optional[str]]] = {}


def _factory_path(factory: Callable[[], Any]) -> Optional[str]:
    """The ``module:function`` path of ``factory``, if import resolves
    back to the same object; None for lambdas/closures/instance cruft."""
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", "")
    if not module or not qualname or "<" in qualname or "." in qualname:
        return None
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return None
    if getattr(imported, qualname, None) is not factory:
        return None
    return f"{module}:{qualname}"


def resolve_factory(path: str) -> Callable[[], Any]:
    """Import a ``module:function`` factory path (worker side)."""
    module, _, attr = path.partition(":")
    if not module or not attr:
        raise ValueError(f"factory path {path!r} is not 'module:function'")
    factory = getattr(importlib.import_module(module), attr, None)
    if not callable(factory):
        raise ValueError(f"factory path {path!r} does not name a callable")
    return factory


def register_factory(name: str, factory: Callable[[], Any]) -> None:
    """Register a protocol factory under ``name`` for :func:`build_system`.

    A *module-level* function (importable as ``module:function``) also
    works in worker processes under any start method — its path is
    shipped inside the :class:`SystemSpec`.  A lambda/closure still works
    in this process and in ``fork`` workers (which inherit the registry),
    but cannot be shipped to ``spawn`` workers.
    """
    _EXTRA_FACTORIES[name] = (factory, _factory_path(factory))


def shippable_spec(spec: SystemSpec) -> SystemSpec:
    """Attach the registered factory path, so workers can rebuild it."""
    if spec.factory is not None:
        return spec
    entry = _EXTRA_FACTORIES.get(spec.protocol)
    if entry is None or entry[1] is None:
        return spec
    return replace(spec, factory=entry[1])


def build_system(spec: SystemSpec) -> Any:
    """Construct the transition system described by ``spec``."""
    from ..protocols import LIBRARY_PROTOCOLS
    from ..refine.engine import refine
    from ..refine.plan import RefinementConfig
    from ..semantics.asynchronous import AsyncSystem
    from ..semantics.rendezvous import RendezvousSystem

    entry = _EXTRA_FACTORIES.get(spec.protocol)
    if entry is not None:
        protocol = entry[0]()
    elif spec.factory is not None:
        protocol = resolve_factory(spec.factory)()
    else:
        try:
            protocol = LIBRARY_PROTOCOLS[spec.protocol]()
        except KeyError:
            raise KeyError(
                f"unknown protocol {spec.protocol!r}; register a "
                "module-level factory with register_factory()") from None
    system: Any
    if spec.level == "rendezvous":
        if spec.por:
            raise ValueError(
                "--por prunes asynchronous message interleavings; the "
                "rendezvous level has none (use --level async)")
        system = RendezvousSystem(protocol, spec.n_remotes)
    elif spec.level == "async":
        refined = refine(protocol, RefinementConfig(**spec.config_dict()))
        system = AsyncSystem(refined, spec.n_remotes)
    else:
        raise ValueError(f"unknown level {spec.level!r}")
    if spec.por:
        from .por import PRESERVE_COUNTS, PORSystem
        system = PORSystem(system, preserve=PRESERVE_COUNTS)
    if spec.symmetry:
        from ..protocols.symmetry import symmetry_spec_for
        from .symmetry import SymmetricSystem
        system = SymmetricSystem(system, symmetry_spec_for(spec.protocol))
    return system
