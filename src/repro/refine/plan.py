"""Refinement configuration and plan records.

:class:`RefinementConfig` collects every knob the paper's refinement
procedure exposes (plus ablation switches used by the benchmark suite to
demonstrate *why* each mechanism exists):

* ``home_buffer_capacity`` — the paper's ``k >= 2`` home message buffer.
* ``use_reqreply`` — apply the section 3.3 request/reply (ack elision)
  optimization where statically applicable.
* ``reserve_progress_buffer`` — keep the last buffer slot for requests that
  can complete a rendezvous in the home's current state (section 3.2;
  switching this off reintroduces the livelock the paper describes).
* ``reserve_ack_buffer`` — reserve a slot for the awaited remote's message
  while the home is in a transient state (rows T4-T6; switching this off
  can deadlock the implicit-nack path).
* ``fire_and_forget`` — message types sent without any ack/nack handshake,
  modelling the hand-designed Avalanche protocol whose only difference from
  the refined protocol is an unacknowledged ``LR`` (the "dotted lines" of
  the paper's Figures 4-5).

:class:`RefinementPlan` is the engine's *output*: the config plus the
fused request/reply pairs it chose.  The plan is the input of
:func:`~repro.refine.transitions.build_step_table`, the one place that
decides from it how each output guard refines.  Whoever needs to know
that — the asynchronous semantics, the certificate, the abstraction,
the analysis passes and the renderers — asks the step table; the plan
has no lookups of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..csp.ast import Protocol
from ..errors import RefinementError

__all__ = ["RefinementConfig", "FusedPair", "RefinementPlan", "RefinedProtocol"]


@dataclass(frozen=True)
class RefinementConfig:
    """Tunable parameters of the refinement procedure."""

    home_buffer_capacity: int = 2
    use_reqreply: bool = True
    #: refuse request/reply fusion when the home's reply path contains a
    #: loop (see :func:`repro.refine.reqreply.check_pair`)
    strict_reqreply_cycles: bool = False
    reserve_progress_buffer: bool = True
    reserve_ack_buffer: bool = True
    fire_and_forget: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.home_buffer_capacity < 2:
            raise RefinementError(
                "the home node needs a buffer of capacity k >= 2 "
                f"(got {self.home_buffer_capacity}); see paper section 3.2"
            )


@dataclass(frozen=True)
class FusedPair:
    """One request/reply pair fused by the section 3.3 optimization.

    ``requester`` names the side that sends ``request_msg`` (and therefore
    receives ``reply_msg``), a :class:`~repro.csp.ast.ProcessKind`:
    ``REMOTE`` for ``req``/``gr``-style pairs, ``HOME`` for
    ``inv``/``ID``-style pairs.
    """

    request_msg: str
    reply_msg: str
    requester: str

    def describe(self) -> str:
        return f"{self.request_msg}/{self.reply_msg} ({self.requester}-initiated)"


@dataclass(frozen=True)
class RefinementPlan:
    """Everything the asynchronous semantics needs beyond the rendezvous AST."""

    config: RefinementConfig = field(default_factory=RefinementConfig)
    fused: tuple[FusedPair, ...] = ()

    def describe(self) -> str:
        parts = [f"k={self.config.home_buffer_capacity}"]
        if self.fused:
            parts.append("fused: " + ", ".join(p.describe() for p in self.fused))
        if self.config.fire_and_forget:
            parts.append("fire-and-forget: "
                         + ", ".join(sorted(self.config.fire_and_forget)))
        if not self.config.reserve_progress_buffer:
            parts.append("NO progress buffer (ablation)")
        if not self.config.reserve_ack_buffer:
            parts.append("NO ack buffer (ablation)")
        return "; ".join(parts)


@dataclass(frozen=True)
class RefinedProtocol:
    """A rendezvous protocol together with its refinement plan.

    This is the executable artifact the paper's procedure produces: feed it
    to :class:`~repro.semantics.asynchronous.AsyncSystem` to run/verify the
    asynchronous protocol, or to :mod:`repro.viz` to draw the refined state
    machines of Figures 4-5.
    """

    protocol: Protocol
    plan: RefinementPlan = field(default_factory=RefinementPlan)

    @property
    def name(self) -> str:
        return f"{self.protocol.name}-async"

    def describe(self) -> str:
        return f"{self.name} [{self.plan.describe()}]"
