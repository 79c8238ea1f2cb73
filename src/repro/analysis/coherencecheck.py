"""Parameterized coherence verification via environment abstraction (P46xx).

The explorer checks single-writer and SWMR (``protocols/invariants.py``)
at fixed node counts; this pass lifts the same two properties to *any*
number of remotes.  Both mention at most two remotes, so they are
checked on :mod:`repro.analysis.environment`'s abstraction with **two
concrete remotes** and every further remote collapsed into the
stateless **Other**: a violation in any N-node run projects — with the
two offending nodes as the concrete pair — onto a run of the abstract
system, so if that has no reachable violation, no instance does.  How
Other sends, receives and keeps id-sets sticky is documented there.

Unrefined, Other is too wild for some protocols: it can answer a
point-to-point handshake it was never part of.  **Noninterference
lemmas** tame it: "home at ``h`` ⇒ the remote bound to ``v`` is in R",
so that remote can only send what R can produce.  The candidates are
read off the protocol's own two-node instance (:func:`observed_lemmas`:
R is what that remote was seen in beside ``h``), so their source is
untrusted: every candidate gates Other from the first sweep and is
checked, on the concrete remotes, as an invariant of that same sweep; a
falsified one is dropped and the sweep repeated until none falls, so a
lemma never gates an abstraction it does not hold on.

The verdict, read off the last sweep: no reachable violation —
**discharged**; a violation trace without an Other/sticky step is a
genuine two-node counterexample (replayed through
:class:`~repro.semantics.rendezvous.RendezvousSystem` to make sure,
rendered as an MSC by the CLI) — **refuted**; a violation only Other's
interference reaches, a budget that ran out, or a home guard the
abstraction cannot model (``P4605``) — **inconclusive**, never a silent
discharge.  The ``BENCH_param.json`` differential cross-checks every
verdict against bounded exploration at n = 2..4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..csp.ast import Protocol, VarSender
from .diagnostics import Diagnostic, make
from .environment import (
    LEMMAS,
    Lemma,
    Sweep,
    is_abstract,
    region_lemma,
    sweep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..check.stats import Counterexample
    from ..protocols.invariants import CoherenceSpec

__all__ = [
    "CoherenceVerdict",
    "check_coherence",
    "coherencecheck_pass",
    "observed_lemmas",
]

#: Concrete remotes the abstraction keeps: coherence is a two-index
#: property, so two suffice.
N_CONCRETE = 2


# ---------------------------------------------------------------------------
# noninterference lemmas
# ---------------------------------------------------------------------------


def observed_lemmas(protocol: Protocol,
                    max_states: int = 50_000) -> tuple[Lemma, ...]:
    """Candidate noninterference lemmas read off the two-node instance.

    One per home state ``h`` and variable ``v`` where ``h`` has a
    ``VarSender(v)`` input — the only guards a lemma gates: "home at
    ``h`` ⇒ the remote bound to ``v`` is in R", R the states that remote
    occupies beside ``h`` among the reachable states of
    ``RendezvousSystem(protocol, 2)``.  Candidates are *not* yet trusted
    (a truncated instance sweep only makes more of them fall) — see
    :func:`check_coherence` for the check each must survive.
    """
    from .symbolic import enumerate_contexts

    gated: dict[str, set[str]] = {}
    for name, sdef in protocol.home.states.items():
        for guard in sdef.inputs:
            if isinstance(guard.sender, VarSender):
                gated.setdefault(name, set()).add(guard.sender.var)
    regions: dict[tuple[str, str], set[str]] = {}
    contexts, _ = enumerate_contexts(protocol, max_states=max_states)
    for rv in contexts:
        for var in gated.get(rv.home.state, ()):
            idx = rv.home.env.get(var)
            if isinstance(idx, int) and 0 <= idx < len(rv.remotes):
                regions.setdefault((rv.home.state, var), set()).add(
                    rv.remotes[idx].state)
    lemmas = [region_lemma(protocol.remote, name=f"{home}:{var}", var=var,
                           home_states=frozenset({home}),
                           region=frozenset(region))
              for (home, var), region in regions.items()]
    return tuple(sorted(lemmas, key=lambda lemma: lemma.name))


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------


@dataclass
class CoherenceVerdict:
    """Outcome of the parameterized coherence check for one protocol.

    ``lemmas`` are the candidates that hold on the abstraction and gate
    its Other (``validated`` of them, out of ``candidates``);
    ``iterations`` counts the sweeps it took to get there.
    """

    protocol: str
    spec: CoherenceSpec
    status: str  # "discharged" | "refuted" | "inconclusive"
    properties: tuple[str, ...]
    lemmas: tuple[Lemma, ...]
    candidates: int
    validated: int
    iterations: int
    abstract_states: int
    obligations: tuple[Diagnostic, ...]
    witness: Optional[Counterexample] = None
    reason: Optional[str] = None

    @property
    def discharged(self) -> bool:
        return self.status == "discharged"

    def as_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "status": self.status,
            "discharged": self.discharged,
            "properties": list(self.properties),
            "lemmas": [lemma.as_dict() for lemma in self.lemmas],
            "candidates": self.candidates,
            "validated": self.validated,
            "iterations": self.iterations,
            "abstract_states": self.abstract_states,
            "reason": self.reason,
            "witness_steps": (len(self.witness.steps)
                              if self.witness is not None else None),
            "obligations": [d.as_dict() for d in self.obligations],
        }


# ---------------------------------------------------------------------------
# helper stages
# ---------------------------------------------------------------------------


def _replay_concrete(protocol: Protocol,
                     cex: Counterexample) -> Optional[str]:
    """Replay an all-concrete abstract trace through the real two-node
    rendezvous semantics (defence in depth for refutations); ``None``
    when it is a run of it, else what went wrong."""
    from ..check.explorer import replay_actions
    from ..semantics.rendezvous import RendezvousSystem

    try:
        states = replay_actions(RendezvousSystem(protocol, N_CONCRETE),
                                cex.steps)
    except Exception as exc:
        return str(exc)
    return None if states == cex.states else "state divergence"


def _judge(protocol: Protocol, run: Sweep,
           ) -> tuple[str, Optional[Counterexample], Optional[str]]:
    """``(status, witness, reason)`` from the settled sweep."""
    if run.reason is not None:
        return "inconclusive", None, run.reason
    violations = [cex for cex in run.result.violations
                  if cex.property_name != LEMMAS]
    concrete = [cex for cex in violations
                if not any(is_abstract(step) for step in cex.steps)]
    if concrete:
        cex = min(concrete, key=lambda c: len(c.steps))
        note = _replay_concrete(protocol, cex)
        if note is None:
            return "refuted", cex, None
        return "inconclusive", None, (  # pragma: no cover - defensive
            f"concrete-looking violation failed replay ({note})")
    if violations:
        shortest = min(violations, key=lambda c: len(c.steps))
        return "inconclusive", None, (
            f"abstract violation of {shortest.property_name!r} persists "
            f"({len(shortest.steps)} steps, with Other interference) and "
            "no lemma that holds on the abstraction blocks it")
    if run.issues:
        return "inconclusive", None, (
            "the abstraction over-approximation is incomplete: "
            + run.issues[0])
    return "discharged", None, None


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def check_coherence(protocol: Protocol,
                    spec: Optional[CoherenceSpec] = None, *,
                    graph: Any = None, config: Any = None,
                    max_states: int = 50_000) -> CoherenceVerdict:
    """Check single-writer/SWMR for every node count.

    :param spec: the coherence spec to check; defaults to the registered
        spec for ``protocol.name`` (raises ``KeyError`` when none is).
    :param max_states: state budget of the two-node instance sweep and
        of each abstract exploration.

    ``graph`` and ``config`` are accepted and ignored: no part of the
    verdict depends on them (the frozen ``perf/`` harness still passes
    them).
    """
    from ..protocols.invariants import COHERENCE_SPECS, coherence_invariants

    if spec is None:
        spec = COHERENCE_SPECS[protocol.name]
    invariants = coherence_invariants(spec)
    candidates = observed_lemmas(protocol, max_states)
    run = sweep(protocol, N_CONCRETE, candidates, invariants=invariants,
                max_states=max_states,
                name=f"{protocol.name}-coherence-abstract")
    status, witness, reason = _judge(protocol, run)
    return CoherenceVerdict(
        protocol=protocol.name, spec=spec, status=status,
        properties=tuple(name for name, _ in invariants), lemmas=run.held,
        candidates=len(candidates), validated=len(run.held),
        iterations=run.iterations, abstract_states=run.n_states,
        obligations=tuple(_build_obligations(
            protocol, status, reason, witness, candidates, run)),
        witness=witness, reason=reason)


def _build_obligations(
        protocol: Protocol, status: str, reason: Optional[str],
        witness: Optional[Counterexample],
        candidates: tuple[Lemma, ...], run: Sweep) -> list[Diagnostic]:
    where = f"{protocol.name}:coherence"
    obligations: list[Diagnostic] = []
    for issue in run.issues:
        obligations.append(make(
            "P4605", where, issue,
            hint="restrict the protocol to the id-opaque fragment "
                 "(variable/set/any senders, variable targets) or check "
                 "coherence by bounded exploration only"))
    if candidates:
        held = ", ".join(lemma.name for lemma in run.held) or "none"
        fell = (f"; fell: {', '.join(sorted(run.fallen))}"
                if run.fallen else "")
        obligations.append(make(
            "P4604", where,
            f"{len(candidates)} candidate noninterference lemma(s) observed "
            f"on the two-node instance, {len(run.held)} hold on the "
            f"abstraction they gate ({held}){fell}"))
    if status == "discharged":
        obligations.append(make(
            "P4601", where,
            f"single-writer and SWMR hold for every node count: the "
            f"environment abstraction ({N_CONCRETE} concrete remotes + "
            f"Other) has no reachable violation ({run.n_states} abstract "
            f"states, {run.iterations} iteration(s), {len(run.held)} "
            f"lemma(s) assumed of Other and checked on the same sweep); "
            f"coherence mentions at most two remotes, so remote symmetry "
            f"lifts the result to arbitrary N"))
    elif status == "refuted":
        assert witness is not None
        obligations.append(make(
            "P4602", where,
            f"{witness.property_name!r} is violated by a concrete "
            f"two-node trace ({len(witness.steps)} steps, replayed "
            f"through the rendezvous semantics) — the protocol is "
            f"incoherent at every N >= 2",
            hint=f"run `repro paramverify {protocol.name}` for the "
                 "message sequence chart of the witness"))
    else:
        obligations.append(make(
            "P4603", where,
            f"parameterized coherence is inconclusive: "
            f"{reason or 'unknown'}",
            hint="an inconclusive verdict is not a refutation; check "
                 "coherence by bounded exploration (`repro check`)"))
    return obligations


# ---------------------------------------------------------------------------
# the analysis pass
# ---------------------------------------------------------------------------


def coherencecheck_pass(protocol: Protocol, *,
                        spec: Optional[CoherenceSpec] = None,
                        ) -> Iterable[Diagnostic]:
    """Pass-manager entry point; silent for protocols without a
    registered coherence spec (nothing to check them against)."""
    from ..protocols.invariants import COHERENCE_SPECS

    if spec is None:
        spec = COHERENCE_SPECS.get(protocol.name)
        if spec is None:
            return []
    verdict = check_coherence(protocol, spec)
    return list(verdict.obligations)
