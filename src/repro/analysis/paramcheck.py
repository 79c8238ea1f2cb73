"""Parameterized deadlock-freedom analysis (the P45xx family).

The explorer decides deadlock freedom at fixed node counts; this module
claims it for *arbitrary N*.  The argument has three legs, and an
obligation blocks a discharge only if the argument uses it:

1. **Buffers** (purely static): the home buffer demand of the
   refinement must be finite with the reservation discipline on
   (**P4503** otherwise — the paper's section 4 deadlock returns for
   some N if a remote can demand unbounded slots).

2. **Projection and stuck states**: one sweep of
   :mod:`repro.analysis.environment`'s abstraction — one concrete
   remote plus a stateless Other, *ungated*, so it over-approximates
   every environment unconditionally (gating only ever removes
   behaviour) and needs no lemma.  Every N-node run projects onto it,
   for every choice of the concrete remote.  A reachable *stuck* state
   (no tau, no rendezvous between the home and the concrete remote,
   and the home not waiting on Other alone; the rule and why it is
   sound are in that module) is **P4502**: a deadlocked N-node state
   projects onto one.  A sweep that cannot settle this — truncated,
   semantics error, a construct Other cannot model — is **P4507**.

3. **Transfer**: the claim is established at the rendezvous level; the
   repo's P44xx simulation certificate (``docs/ANALYSIS.md``) is what
   carries it to the asynchronous refinement.  The differential suite
   (``tests/property/test_flows_differential.py``,
   ``benchmarks/anyn_vs_exploration.py``) cross-checks the verdict
   against explicit-state exploration at n = 2..5.

The flow graph of :mod:`repro.analysis.flows` is no leg and is not
consulted: ``repro flows`` prints it beside this verdict, and its cover
gaps are the flows pass's P4501.

When every leg holds, **P4505** (info) records the discharge: deadlock
freedom for arbitrary N.  Everything here is WARNING/INFO severity —
obligations gate nothing by default; ``repro lint --strict`` (or
``repro flows``) is where they bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..csp.ast import Protocol
from .bufferdemand import remote_demand
from .diagnostics import Diagnostic, make
from .environment import Sweep, sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import RefinementConfig

__all__ = [
    "ParamVerdict",
    "check_parameterized",
    "paramcheck_pass",
]

#: Concrete remotes the abstraction keeps: the stuck-state rule looks at
#: the home and one remote.
N_CONCRETE = 1

#: state budget of the abstract sweep
DEFAULT_BUDGET = 20_000


@dataclass(frozen=True)
class ParamVerdict:
    """The parameterized deadlock-freedom verdict for one protocol.

    ``concrete`` / ``abstract_states`` / ``completed`` / ``stuck`` are
    the facts of the environment-abstraction sweep the stuck-state rule
    was checked on.
    """

    protocol: str
    discharged: bool
    obligations: tuple[Diagnostic, ...]
    concrete: int
    abstract_states: int
    completed: bool
    stuck: int
    buffer_demand: Optional[int]

    @property
    def verdict(self) -> str:
        return "deadlock-free-any-N" if self.discharged else "obligations"

    def as_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "verdict": self.verdict,
            "discharged": self.discharged,
            "abstraction": {
                "concrete": self.concrete,
                "states": self.abstract_states,
                "completed": self.completed,
                "stuck": self.stuck,
            },
            "buffer_demand_per_remote": self.buffer_demand,
            "obligations": [d.as_dict() for d in self.obligations],
        }


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


def check_parameterized(protocol: Protocol, *,
                        graph: Any = None,
                        config: Optional["RefinementConfig"] = None,
                        witness_nodes: int = 2,
                        max_states: int = DEFAULT_BUDGET,
                        ) -> ParamVerdict:
    """Run the full parameterized deadlock-freedom analysis.

    ``graph`` and ``witness_nodes`` are accepted and ignored: no leg
    reads the flow graph, and there is no witness instance any more (the
    frozen ``perf/`` harness still passes both).
    """
    # deferred import: repro.refine reaches back into the analysis
    # package (see flows.py)
    from ..refine.plan import RefinementConfig

    config = config or RefinementConfig()
    where = f"{protocol.name}:paramcheck"
    obligations: list[Diagnostic] = []
    demand = _check_buffer(protocol, config, where, obligations)
    run = sweep(protocol, N_CONCRETE, (), max_states=max_states,
                name=f"{protocol.name}-paramcheck-abstract")
    _sweep_obligations(run, where, obligations)

    # every obligation above is a leg of the argument, so each blocks
    discharged = not obligations
    if discharged:
        obligations.append(make(
            "P4505", where,
            f"deadlock freedom discharged for arbitrary N: on the "
            f"environment abstraction ({N_CONCRETE} concrete remote + "
            f"ungated Other, {run.n_states} states), which every N-node "
            f"run projects onto, no state is stuck without a move of the "
            f"home or the concrete remote; home buffer demand "
            f"{demand}/remote under reservations; transferred to the "
            f"async refinement via the P44xx simulation certificate"))

    return ParamVerdict(
        protocol=protocol.name,
        discharged=discharged,
        obligations=tuple(obligations),
        concrete=N_CONCRETE,
        abstract_states=run.n_states,
        completed=run.reason is None,
        stuck=len(run.stuck),
        buffer_demand=demand,
    )


def _check_buffer(protocol: Protocol, config: "RefinementConfig",
                  where: str,
                  obligations: list[Diagnostic]) -> Optional[int]:
    demand = remote_demand(protocol.remote, config.fire_and_forget)
    if demand is None:
        obligations.append(make(
            "P4503", where,
            "a remote can issue unboundedly many unacknowledged "
            "messages (no finite per-remote demand); the k-bounded "
            "home-buffer argument does not close for any fixed "
            "capacity",
            hint="see P3203 and docs/ANALYSIS.md#P4503"))
    missing = [flag for flag, on in (
        ("reserve_progress_buffer", config.reserve_progress_buffer),
        ("reserve_ack_buffer", config.reserve_ack_buffer)) if not on]
    if missing:
        obligations.append(make(
            "P4503", where,
            f"reservation discipline disabled ({', '.join(missing)}); "
            "the section 4 overflow deadlock returns for some N "
            "regardless of capacity k"))
    return demand


def _sweep_obligations(run: Sweep, where: str,
                       obligations: list[Diagnostic]) -> None:
    """What the abstract sweep leaves open: stuck states (P4502), and
    whatever kept it from settling them (P4507)."""
    if run.stuck:
        obligations.append(make(
            "P4502", where,
            f"{len(run.stuck)} reachable abstract state(s) are stuck — no "
            f"tau and no rendezvous between the home and a concrete remote "
            f"is enabled, and the home is not waiting on the environment "
            f"alone — e.g. {run.stuck[0].describe()}; a stuck abstract "
            f"state: no concrete deadlock is confirmed"))
    for note in ([run.reason] if run.reason is not None else run.issues):
        obligations.append(make(
            "P4507", where,
            f"the environment abstraction could not settle the stuck "
            f"states: {note}"))


# ---------------------------------------------------------------------------
# the analysis pass
# ---------------------------------------------------------------------------


def paramcheck_pass(protocol: Protocol, *,
                    config: Optional["RefinementConfig"] = None,
                    ) -> Iterator[Diagnostic]:
    """Pass-manager entry point: yield the P45xx obligations/verdict."""
    yield from check_parameterized(protocol, config=config).obligations
