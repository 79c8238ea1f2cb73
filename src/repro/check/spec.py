"""System descriptions (:class:`SystemSpec`) and their builder.

A :class:`SystemSpec` names a transition system — library protocol,
level, node count, refinement configuration, reductions — as one
hashable value, and :func:`build_system` constructs it.  The CLI, the
benchmarks and the tests all build their systems through this one
function, so one description means one system everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from ..refine.plan import RefinementConfig

__all__ = ["SystemSpec", "build_system"]


@dataclass(frozen=True)
class SystemSpec:
    """Hashable description of a transition system to construct.

    ``protocol`` is a library protocol name (``migratory``, ``invalidate``,
    ``msi``, ``mesi``).  ``config`` is the
    :class:`~repro.refine.plan.RefinementConfig` the asynchronous level
    is refined under; None is the paper's standard configuration, as for
    :func:`~repro.refine.engine.refine`.
    """

    protocol: str
    level: str  # "rendezvous" | "async"
    n_remotes: int
    config: Optional[RefinementConfig] = None
    symmetry: bool = False
    #: ample-set partial-order reduction (async level only)
    por: bool = False
    #: what POR preserves (:mod:`repro.check.por`): ``"counts"`` for raw
    #: sweeps (``repro check``), ``"invariants"`` for ``repro verify``'s
    preserve: str = "counts"

    def reductions(self) -> tuple[str, ...]:
        """Active reduction names, in wrapping order (inner first)."""
        return tuple(name for name, active in
                     (("por", self.por), ("symmetry", self.symmetry))
                     if active)


def build_system(spec: SystemSpec) -> Any:
    """Construct the transition system described by ``spec``."""
    from ..protocols import LIBRARY_PROTOCOLS
    from ..refine.engine import refine
    from ..semantics.asynchronous import AsyncSystem
    from ..semantics.rendezvous import RendezvousSystem

    try:
        protocol = LIBRARY_PROTOCOLS[spec.protocol]()
    except KeyError:
        raise KeyError(
            f"unknown protocol {spec.protocol!r}; choose from "
            f"{', '.join(sorted(LIBRARY_PROTOCOLS))}") from None
    system: Any
    if spec.level == "rendezvous":
        if spec.por:
            raise ValueError(
                "--por prunes asynchronous message interleavings; the "
                "rendezvous level has none (use --level async)")
        system = RendezvousSystem(protocol, spec.n_remotes)
    elif spec.level == "async":
        system = AsyncSystem(refine(protocol, spec.config), spec.n_remotes)
    else:
        raise ValueError(f"unknown level {spec.level!r}")
    if spec.por:
        from .por import PORSystem
        system = PORSystem(system, preserve=spec.preserve)
    if spec.symmetry:
        from ..protocols.symmetry import symmetry_spec_for
        from .symmetry import SymmetricSystem
        system = SymmetricSystem(system, symmetry_spec_for(spec.protocol))
    return system
