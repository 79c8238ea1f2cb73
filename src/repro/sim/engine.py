"""Discrete-event simulator for refined DSM protocols.

Executes an asynchronous protocol on a timed network model:

* **messages** traverse reliable, in-order channels with sampled latency
  (the paper's section 2.2 communication model, plus time);
* **protocol-internal** node steps execute eagerly (zero processing time —
  the protocol logic is microcoded, as the paper envisions);
* **workload-gated** steps (CPU accesses, evictions — see
  :mod:`repro.sim.policy`) fire when the workload generator says so.

The simulator reuses the exact transition core the model checker verifies
(:class:`~repro.semantics.asynchronous.AsyncSystem`), so simulated behaviour
is by construction a timed scheduling of verified behaviour — nondeterminism
is *resolved*, never re-implemented.

It asks :meth:`~repro.semantics.asynchronous.AsyncSystem.deltas` once per
state it reaches (events, eager settlement and the workload share that
list; taking a step drops it) and builds only the successor it takes.
The taken :class:`~repro.semantics.asynchronous.Delta` says the rest:
its ``moved`` remote is the one whose gate goes stale, its ``ops`` the
channels to schedule and the messages sent.

Typical use::

    from repro import migratory_protocol, refine
    from repro.sim import Simulator, SyntheticWorkload

    sim = Simulator(refine(migratory_protocol()), n_remotes=8,
                    workload=SyntheticWorkload(seed=1, write_fraction=0.8))
    metrics = sim.run(until=50_000)
    print(metrics.describe())
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Optional

from ..errors import SimulationError
from ..refine.plan import RefinedProtocol
from ..semantics.asynchronous import (
    AsyncState,
    AsyncSystem,
    DeliverToHome,
    DeliverToRemote,
    Delta,
    HomeStep,
    HomeTau,
    RemoteC3,
    RemoteSend,
    RemoteTau,
    successor,
)
from ..semantics.network import Channels
from .metrics import SimMetrics
from .policy import SEND, TAU, AccessClass, GatedOption, WorkloadSpec, \
    workload_spec_for

__all__ = ["Simulator"]

#: event kinds, in tie-breaking priority order
_DELIVERY = 0
_GATE = 1

_ACQUIRE_CLASSES = frozenset({
    AccessClass.ACQUIRE, AccessClass.ACQUIRE_READ,
    AccessClass.ACQUIRE_WRITE, AccessClass.UPGRADE,
})

#: bound on eager (zero-time) protocol steps between two timed events —
#: a correct protocol quiesces quickly; hitting this means a logic loop
_CASCADE_LIMIT = 10_000


class Simulator:
    """Timed execution of a refined protocol under a workload."""

    def __init__(
        self,
        refined: RefinedProtocol,
        n_remotes: int,
        workload,
        *,
        spec: Optional[WorkloadSpec] = None,
        latency: float = 5.0,
        latency_jitter: float = 2.0,
        seed: int = 0,
        oracles: tuple = (),
        record_trace: bool = False,
    ) -> None:
        self.system = AsyncSystem(refined, n_remotes)
        self.n_remotes = n_remotes
        self.workload = workload
        self.spec = spec or workload_spec_for(refined.protocol.name)
        self.latency = latency
        self.latency_jitter = latency_jitter
        self._rng = random.Random(seed)
        self._seq = itertools.count()

        self.oracles = tuple(oracles)
        self.record_trace = record_trace
        #: message-level event log (see :mod:`repro.sim.trace`)
        self.trace: list = []
        self.state: AsyncState = self.system.initial_state()
        #: ``system.deltas(self.state)``, asked for once; :meth:`_apply`
        #: drops it with the state it belongs to
        self._enabled_memo: Optional[list[Delta]] = None
        self.now = 0.0
        self.metrics = SimMetrics(n_remotes=n_remotes)

        self._heap: list = []
        n_channels = 2 * n_remotes
        self._scheduled: list[int] = [0] * n_channels
        self._last_delivery_time: list[float] = [0.0] * n_channels
        self._gate_epoch: list[int] = [0] * n_remotes
        self._gate_pending: list[bool] = [False] * n_remotes
        self._outstanding_acquire: dict[int, float] = {}

    # -- main loop -----------------------------------------------------------

    def run(self, until: float, max_events: Optional[int] = None) -> SimMetrics:
        """Simulate until time ``until`` (or the system quiesces)."""
        self._settle()
        events = 0
        while self._heap:
            if max_events is not None and events >= max_events:
                break
            when = self._heap[0][0]
            if when > until:
                self.now = until
                break
            _when, _seq, kind, payload = heapq.heappop(self._heap)
            self.now = when
            events += 1
            if kind == _DELIVERY:
                self._fire_delivery(payload)
            else:
                self._fire_gate(*payload)
            self._settle()
        self.metrics.end_time = self.now
        return self.metrics

    def _enabled(self) -> list[Delta]:
        """The current state's deltas — one ``deltas()`` call per state,
        shared by every event and workload query until :meth:`_apply`."""
        if self._enabled_memo is None:
            self._enabled_memo = self.system.deltas(self.state)
        return self._enabled_memo

    # -- event firing -----------------------------------------------------------

    def _fire_delivery(self, channel: int) -> None:
        self._scheduled[channel] -= 1
        remote, to_remote = divmod(channel, 2)
        wanted = (DeliverToHome(remote=remote) if to_remote
                  else DeliverToRemote(remote=remote))
        for delta in self._enabled():
            if delta.action == wanted:
                self._apply(delta)
                return
        raise SimulationError(
            f"scheduled delivery on channel {channel} has no matching "
            f"transition in state {self.state.describe()}")

    def _fire_gate(self, remote: int, epoch: int, kind: str,
                   label: Optional[str]) -> None:
        self._gate_pending[remote] = False
        if epoch != self._gate_epoch[remote]:
            return  # the node moved on; the workload will be re-consulted
        for delta in self._enabled():
            if self._gate_matches(delta, remote, kind, label):
                node_state = self.state.remotes[remote].state
                access = self.spec.classify(node_state, kind, label)
                if access in _ACQUIRE_CLASSES:
                    self._outstanding_acquire.setdefault(remote, self.now)
                self._apply(delta)
                return
        # option vanished between scheduling and firing (e.g. an inv
        # arrived); drop silently — _settle reconsults the workload.

    @staticmethod
    def _gate_matches(delta: Delta, remote: int, kind: str,
                      label: Optional[str]) -> bool:
        action = delta.action
        if kind == SEND:
            return isinstance(action, RemoteSend) and action.remote == remote
        return (isinstance(action, RemoteTau) and action.remote == remote
                and action.label == label)

    # -- applying steps and eager settlement ----------------------------------

    def _apply(self, delta: Delta) -> None:
        before = self.state
        self.state = successor(before, delta)
        self._enabled_memo = None
        self.metrics.record_sends(self.now, delta.sends)
        self.metrics.record_completions(self.now, delta.completes)
        self.metrics.record_buffer(self.now, self.state.home.buffer)
        for oracle in self.oracles:
            for rendezvous in delta.completes:
                oracle.observe(self.now, rendezvous)
        if self.record_trace:
            self._record_trace(before, delta)
        self._track_acquires(delta)
        if delta.moved is not None:
            i, node = delta.moved
            old = before.remotes[i]
            if (old.state, old.mode) != (node.state, node.mode):
                self._gate_epoch[i] += 1
                self._gate_pending[i] = False
        self._schedule_deliveries(delta)

    def _record_trace(self, before: AsyncState, delta: Delta) -> None:
        from ..semantics.state import HOME_ID
        from .trace import TraceEvent, message_event

        action = delta.action
        if isinstance(action, (DeliverToRemote, DeliverToHome)):
            popped = (Channels.to_remote if isinstance(action, DeliverToRemote)
                      else Channels.to_home)(action.remote)
            self.trace.append(message_event(
                self.now, "deliver", popped,
                before.channels.queues[popped][0]))
        for channel, _popped, pushed in delta.ops:
            for message in pushed:
                self.trace.append(message_event(self.now, "send", channel,
                                                message))
        for rendezvous in delta.completes:
            active = ("h" if rendezvous.active == HOME_ID
                      else f"r{rendezvous.active}")
            passive = ("h" if rendezvous.passive == HOME_ID
                       else f"r{rendezvous.passive}")
            self.trace.append(TraceEvent(
                time=self.now, kind="complete", src=active, dst=passive,
                label=rendezvous.msg, payload=rendezvous.payload))

    def _track_acquires(self, delta: Delta) -> None:
        for rendezvous in delta.completes:
            if rendezvous.msg not in self.spec.acquire_complete_msgs:
                continue
            remote = rendezvous.remote
            issued = self._outstanding_acquire.pop(remote, None)
            if issued is not None:
                self.metrics.record_latency(self.now - issued)

    def _schedule_deliveries(self, delta: Delta) -> None:
        """Schedule what ``delta`` pushed (every other channel is
        scheduled already), by ascending channel."""
        queues = self.state.channels.queues
        for channel, _popped, _pushed in delta.ops:
            while self._scheduled[channel] < len(queues[channel]):
                delay = self.latency + self._rng.uniform(
                    0, self.latency_jitter)
                when = max(self.now + delay,
                           self._last_delivery_time[channel] + 1e-9)
                self._last_delivery_time[channel] = when
                self._scheduled[channel] += 1
                heapq.heappush(self._heap,
                               (when, next(self._seq), _DELIVERY, channel))

    def _settle(self) -> None:
        """Run all eager protocol steps, then consult the workload."""
        for _ in range(_CASCADE_LIMIT):
            delta = self._next_eager_step()
            if delta is None:
                break
            self._apply(delta)
        else:
            raise SimulationError(
                "protocol did not quiesce within the cascade limit; "
                "suspected zero-time logic loop")
        self._consult_workload()

    def _next_eager_step(self) -> Optional[Delta]:
        for delta in self._enabled():
            action = delta.action
            if isinstance(action, (DeliverToHome, DeliverToRemote)):
                continue  # timed, goes through the heap
            if isinstance(action, (HomeStep, HomeTau, RemoteC3)):
                return delta
            if isinstance(action, RemoteSend):
                node = self.state.remotes[action.remote].state
                if self.spec.classify(node, SEND, None) is None:
                    return delta  # protocol-internal send (e.g. LR after evict)
            elif isinstance(action, RemoteTau):
                node = self.state.remotes[action.remote].state
                if self.spec.classify(node, TAU, action.label) is None:
                    return delta
        return None

    def _consult_workload(self) -> None:
        gated = self._gated_options()
        for i in range(self.n_remotes):
            if self._gate_pending[i]:
                continue
            options = gated[i]
            if not options:
                continue
            choice = self.workload.choose(self.now, options)
            if choice is None:
                continue
            delay, option = choice
            self._gate_pending[i] = True
            heapq.heappush(
                self._heap,
                (self.now + max(0.0, delay), next(self._seq), _GATE,
                 (i, self._gate_epoch[i], option.kind, option.label)))

    def _gated_options(self) -> list[list[GatedOption]]:
        """Every remote's workload-gated options, in step order, from one
        pass over the current deltas."""
        options: list[list[GatedOption]] = [[] for _ in range(self.n_remotes)]
        remotes = self.state.remotes
        for delta in self._enabled():
            action = delta.action
            if isinstance(action, RemoteSend):
                kind, label = SEND, None
            elif isinstance(action, RemoteTau):
                kind, label = TAU, action.label
            else:
                continue
            i = action.remote
            node = remotes[i]  # idle: only an idle remote has local steps
            access = self.spec.classify(node.state, kind, label)
            if access is not None:
                options[i].append(GatedOption(
                    remote=i, kind=kind, state=node.state, label=label,
                    access_class=access))
        return options
