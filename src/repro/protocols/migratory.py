"""The migratory protocol of the Avalanche DSM machine (paper Figures 2-3).

Exactly one remote node at a time holds the cache line with read/write
permission; the line *migrates* between nodes through the home.

Home node (Figure 2) — states::

    F  --r(i)?req-->  F1  --r(i)!gr(data)-->  E
    E  --r(o)?LR(data)--> F
    E  --r(j)?req--> I1
    I1 --r(o)!inv--> I2          (revoke current owner's permission)
    I1 --r(o)?LR(data)--> I3     (owner relinquished on its own)
    I2 --r(o)?LR(data)--> I3
    I2 --r(o)?ID(data)--> I3
    I3 --r(j)!gr(data)--> E

Remote node (Figure 3) — states::

    I  --τ:rw-->  I.req  --h!req-->  I.gr  --h?gr(data)-->  V
    V  --τ:evict--> V.lr  --h!LR(data)--> I
    V  --h?inv--> V.id  --h!ID(data)--> I

``data_values`` controls the payload model: ``None`` (the default) uses the
abstract :data:`~repro.csp.ast.DATA` token so payloads never affect the
state count (the standard protocol-verification abstraction); an integer
``m`` uses the finite domain ``0..m-1`` with the CPU write modelled as an
increment mod ``m``, which lets the coherence test suite check *data
integrity* (the value read is the last value written) and not just
permission safety.

``explicit_rw`` controls how the CPU's read/write intent (the ``rw`` arc of
Figure 3) is modelled.  With ``False`` (default) the intent is fused into
the ``h!req`` offer itself — state ``I`` is directly an active
communication state — which matches how SPIN models of such protocols are
written and keeps the verified state space polynomial in the node count
(every idle remote is interchangeable).  With ``True`` the ``rw`` decision
is a separate tau step through an ``I.req`` state; this is closer to the
figure's drawing but gives every idle remote an independent bit of state,
so the reachable space grows as :math:`2^n` — the variant exists to
demonstrate exactly that modelling pitfall (see the scaling benchmark).
"""

from __future__ import annotations

from typing import Optional

from ..csp.ast import DATA, AnySender, Protocol, VarSender, VarTarget
from ..csp.builder import ProcessBuilder, inp, out, protocol, tau
from ..csp.validate import validate_protocol

__all__ = ["migratory_protocol"]


def migratory_protocol(data_values: Optional[int] = None,
                       explicit_rw: bool = False) -> Protocol:
    """Build the migratory rendezvous protocol.

    :param data_values: size of the finite data domain, or ``None`` for the
        abstract single-token payload model.
    :param explicit_rw: model the CPU access intent as a separate tau step
        (exponential state growth; see module docstring).
    :returns: a validated :class:`~repro.csp.ast.Protocol`.
    """
    abstract = data_values is None

    def initial_data():
        return DATA if abstract else 0

    home = ProcessBuilder.home(
        "migratory-home", o=None, j=None, mem=initial_data())
    def grant_payload(env):
        return env["mem"]

    home.state(
        "F",
        inp("req", sender=AnySender(), bind_sender="j", to="F1"),
    )
    home.state(
        "F1",
        out("gr", target=VarTarget("j"), payload=grant_payload,
            update=lambda env: env.update({"o": env["j"], "j": None}),
            to="E"),
    )
    home.state(
        "E",
        inp("LR", sender=VarSender("o"), bind_value="mem",
            update=lambda env: env.set("o", None), to="F"),
        inp("req", sender=AnySender(), bind_sender="j", to="I1"),
    )
    home.state(
        "I1",
        out("inv", target=VarTarget("o"), to="I2"),
        inp("LR", sender=VarSender("o"), bind_value="mem", to="I3"),
    )
    home.state(
        "I2",
        inp("LR", sender=VarSender("o"), bind_value="mem", to="I3"),
        inp("ID", sender=VarSender("o"), bind_value="mem", to="I3"),
    )
    home.state(
        "I3",
        out("gr", target=VarTarget("j"), payload=grant_payload,
            update=lambda env: env.update({"o": env["j"], "j": None}),
            to="E"),
    )

    remote = ProcessBuilder.remote("migratory-remote", d=initial_data())
    if explicit_rw:
        remote.state("I", tau("rw", to="I.req"))
        remote.state("I.req", out("req", to="I.gr"))
    else:
        remote.state("I", out("req", to="I.gr"))
    remote.state(
        "I.gr",
        inp("gr", bind_value="d", to="V"),
    )
    write_guards = []
    if not abstract:
        write_guards.append(
            tau("write", to="V",
                update=lambda env: env.set("d", (env["d"] + 1) % data_values))
        )
    remote.state(
        "V",
        tau("evict", to="V.lr"),
        inp("inv", to="V.id"),
        *write_guards,
    )
    remote.state(
        "V.lr",
        out("LR", payload=lambda env: env["d"],
            update=lambda env: env.set("d", initial_data()), to="I"),
    )
    remote.state(
        "V.id",
        out("ID", payload=lambda env: env["d"],
            update=lambda env: env.set("d", initial_data()), to="I"),
    )

    return validate_protocol(protocol("migratory", home, remote))
