"""Ample-set partial-order reduction for asynchronous exploration.

Table 3's asynchronous columns explode mostly through *commuting
interleavings*: deliveries to distinct remotes, independent remote-local
steps, and home activity on disjoint channels reach the same state in
every order.  Symmetry reduction (:mod:`repro.check.symmetry`) collapses
the ``n!`` relabelling factor; this module collapses the orthogonal
interleaving factor by expanding, at selected states, only an *ample
subset* of the enabled transitions.

Independence relation
---------------------

Two steps are independent when they touch disjoint nodes and channel
ends, with FIFO channels split into a *head* (pop side) and a *tail*
(push side): popping the head of a non-empty queue commutes with pushing
its tail.  The relation is static — it falls out of the refinement's
step-table schema (:mod:`repro.refine.transitions`): every Table 1/2 row
either acts on the home node plus its channel ends, or on exactly one
remote ``i`` plus *its* channel ends (the step memo refuses any other
family, and ``tests/unit/test_por.py::TestActionClasses`` checks every
step of the library protocols against it).  Partition the actions
accordingly:

* class ``P(i)`` — everything touching remote ``i``'s node or the head
  of channel home→remote(i): ``DeliverToRemote(i)``, ``RemoteSend(i)``,
  ``RemoteC3(i)``, ``RemoteTau(i)``;
* class ``H`` — home decisions/taus and all deliveries *to* home.

A class-``P(i)`` step with no sends touches only remote ``i``'s fields
and the head of home→remote(i) — disjoint from every step outside
``P(i)`` (home pushes to that channel hit the *tail*).  Moreover, the
enabledness of every ``P(i)`` step depends only on remote ``i``'s fields
and that same channel head, which only ``P(i)`` steps write: no step
outside the class can enable or disable one inside it.

Ample rule
----------

At state ``s``, for the lowest remote ``i`` (ascending scan — the choice
must be a pure function of ``s`` so every run of a model reports the
same counts) such that

* ``DeliverToRemote(i)`` is enabled and is the *only* enabled ``P(i)``
  step (C1: by the class argument, nothing dependent on it can fire
  before it on any path leaving ``s``),
* the delivery sends nothing (a NACK delivery retransmits; excluded),
* the delivery is invisible to the checked properties (C2, see below),

the ample set is the singleton ``{DeliverToRemote(i)}``; otherwise the
state is fully expanded (C0 holds trivially: ample is empty only when
nothing is enabled, so deadlock states are exactly preserved — every
full-graph deadlock remains reachable because any path to it commutes
ample-first, and the reduced graph invents none).

Cycle proviso (C3)
------------------

The textbook in-stack check is DFS-bound and depends on visit order —
useless for a level-synchronous BFS.  We use a *measure* proviso
instead: every ample step pops one message and pushes none, so it
strictly decreases ``channels.total_in_flight``.  A cycle of the reduced
graph therefore cannot consist of ample steps alone, i.e. every cycle
contains a fully expanded state — no enabled action is deferred forever.

Visibility presets (C2)
-----------------------

``preserve="counts"`` deems every send-free delivery invisible.  Sound
for raw reachability sweeps that check no state predicate (``repro
check``): deadlock states, invariant-free verdicts and stop semantics
are preserved; per-level counts shrink.

``preserve="invariants"`` (``repro verify``) additionally requires the
popped message to be a ``REQ`` whose only write is remote ``i``'s buffer
slot ``buf`` (read off the step's delta) — exactly the REQ-buffering and
T3-drop deliveries.  Checked predicate by predicate against
:mod:`repro.protocols.invariants`: the coherence invariants read remote
``(state, mode)``; ``buffer_capacity`` reads the home buffer;
``handshake_discipline`` counts ACK/NACK/REPL in flight (REQ pops do not
change it); ``remote_transient_shape`` reads ``(mode, buf)``, and a
buffer write while IDLE preserves its truth.  These ample steps also
complete no rendezvous, so the completion-labelled progress/response
conclusions survive reduction (verified differentially in the test
suite).  What reduction *drops* is anything reading identity-labelled
edge orderings — exact transition counts, per-interleaving traces, and
the SCC structure the Equation-1/progress checkers want, which is why
``repro verify --progress`` keeps running on the unreduced system.

Cost
----

The rule reads nothing but the inner system's memoized deltas
(:meth:`~repro.semantics.asynchronous.AsyncSystem.deltas`): the action
of each, the ``sends`` of the candidate deliveries, and for the
invariants preset the candidate's own delta.  :meth:`PORSystem.expand`
then builds only the successors it keeps — one at a reduced state —
with :func:`~repro.semantics.asynchronous.successor`, and builds no
:class:`~repro.semantics.asynchronous.Step` at all.  The delta's fields
are read by name (``delta.action``, ``delta.sends``).
:meth:`PORSystem.steps` builds a whole step, successor included, for
each delta it keeps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..errors import CheckError
from ..semantics.asynchronous import (
    AsyncAction,
    AsyncState,
    AsyncSystem,
    DeliverToRemote,
    Delta,
    RemoteC3,
    RemoteSend,
    RemoteTau,
    Step,
    successor,
)
from ..semantics.network import REQ, Channels

__all__ = ["PRESERVE_COUNTS", "PRESERVE_INVARIANTS", "PORSystem"]

#: Preserve deadlocks and reachability verdicts of invariant-free sweeps.
PRESERVE_COUNTS = "counts"
#: Additionally preserve the library's state-predicate invariants and
#: completion-labelled progress/response conclusions.
PRESERVE_INVARIANTS = "invariants"

_PRESETS = (PRESERVE_COUNTS, PRESERVE_INVARIANTS)

#: the action kinds of ``P(i)`` besides the delivery to remote ``i``
_LOCAL = (RemoteSend, RemoteC3, RemoteTau)


class PORSystem:
    """Wrap an :class:`AsyncSystem` so the explorer sees ample sets.

    Exposes the same ``initial_state``/``steps``/``successors`` surface
    as the inner system plus :meth:`expand`, which the explorer uses to
    report the full enabled count next to the reduced successor list
    (the per-level reduction ratio of a profile).  Compose
    with symmetry as ``SymmetricSystem(PORSystem(inner), spec)`` —
    reduction picks the ample step on the concrete state, normalization
    canonicalizes the survivors.

    The ample set is chosen on the inner system's memoized deltas
    (:meth:`AsyncSystem.deltas`), so a sweep builds no :class:`Step`
    and only the successors it keeps; :meth:`steps` wraps the same
    choice in steps for the callers that read ``completes``.
    """

    def __init__(self, inner: AsyncSystem, *,
                 preserve: str = PRESERVE_INVARIANTS) -> None:
        if not isinstance(inner, AsyncSystem):
            raise CheckError(
                "partial-order reduction targets asynchronous "
                f"interleavings; cannot wrap {type(inner).__name__}")
        if preserve not in _PRESETS:
            raise CheckError(
                f"unknown POR preservation mode {preserve!r}; "
                f"choose from {_PRESETS}")
        self.inner = inner
        self.preserve = preserve
        self.n_remotes: int = inner.n_remotes

    # -- system surface ------------------------------------------------------

    def initial_state(self) -> AsyncState:
        return self.inner.initial_state()

    def steps(self, state: AsyncState) -> list[Step]:
        """The ample subset of the inner system's enabled steps."""
        deltas = self.inner.deltas(state)
        ample = self.ample(state, deltas)
        return [Step(d.action, successor(state, d), d.completes, d.sends)
                for d in (deltas if ample is None else (ample,))]

    def successors(self, state: AsyncState,
                   ) -> list[tuple[AsyncAction, AsyncState]]:
        return self.expand(state)[0]

    def expand(self, state: AsyncState,
               ) -> tuple[list[tuple[AsyncAction, AsyncState]], int]:
        """Reduced successors plus the full enabled-transition count."""
        deltas = self.inner.deltas(state)
        ample = self.ample(state, deltas)
        if ample is not None:
            return [(ample.action, successor(state, ample))], len(deltas)
        return [(d.action, successor(state, d)) for d in deltas], len(deltas)

    # -- the ample rule ------------------------------------------------------

    def ample(self, state: AsyncState,
              deltas: list[Delta]) -> Optional[Delta]:
        """The ample step's delta among ``state``'s enabled ``deltas``
        (:meth:`AsyncSystem.deltas`), or None for full expansion."""
        if len(deltas) < 2:
            return None
        local: set[int] = set()
        deliveries: list[Delta] = []  # by ascending remote: deltas' order
        for delta in deltas:
            action = delta.action
            if type(action) is DeliverToRemote:
                deliveries.append(delta)
            elif isinstance(action, _LOCAL):
                local.add(action.remote)
        for delta in deliveries:
            i = delta.action.remote
            if i in local:
                continue  # not the sole enabled P(i) step
            if delta.sends:
                continue  # sends: a NACK retransmit pushes a channel tail
            if (self.preserve == PRESERVE_INVARIANTS
                    and not self._invisible(state, delta, i)):
                continue
            return delta
        return None

    def _invisible(self, state: AsyncState, delta: Delta, i: int) -> bool:
        """C2 for the invariant-preserving preset: a REQ pop whose only
        write is remote ``i``'s ``buf`` (REQ buffering / T3 drop), read
        off the step's memoized delta — no successor is built."""
        if state.channels.queues[Channels.to_remote(i)][0].kind != REQ:
            return False
        if delta.home is not None:
            return False
        if delta.moved is None:
            return True
        j, node = delta.moved
        # the dataclass ``==`` compares exactly the ``fields_of`` tuple
        return j == i and replace(node, buf=state.remotes[i].buf) \
            == state.remotes[i]
