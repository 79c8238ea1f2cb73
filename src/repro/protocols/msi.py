"""MSI protocol with a first-class upgrade transaction (library extension).

The paper's conclusion claims the refinement procedure "applies to large
classes of DSM protocols"; this module stresses that claim beyond the two
protocols the paper evaluates.  It extends the invalidate protocol with an
**upgrade** transaction: a read-sharer that wants to write asks the home to
invalidate *the other* sharers only, keeping its own copy (no data
transfer), instead of evicting and re-fetching.

Everything else is :mod:`~repro.protocols.invalidate`'s pieces, called in
invalidate's order: the home's ``F``, ``Sh`` (plus a ``reqU`` input), the
``W`` invalidation loop, ``W.grant`` and ``E`` with its revocations, and
the remote's ``I``, ``S`` (plus a ``wantUp`` tau) and ``M``.  This module
writes only the upgrade: the ``u`` variable, the ``U`` loop (the ``W``
loop over every sharer but the upgrader), ``U.grant``, ``S.up`` and
``S.grU``, and the ``upfail`` denials both loops add.

New messages: ``reqU`` (upgrade request, sent from the ``S`` state),
``grU`` (upgrade grant — no payload, the requester already has the data)
and ``upfail`` (upgrade denial — sent when the home is already invalidating
on behalf of another writer; the denied sharer returns to ``S`` and will
shortly receive that writer's ``invS`` like any other sharer).

The denial path is forced by the rendezvous model itself: a sharer blocked
in its upgrade request cannot simultaneously accept ``invS`` (remote nodes
have no output non-determinism), so every home state that can try to
invalidate sharers must also be able to *consume* a competing ``reqU`` —
otherwise the rendezvous protocol deadlocks, and the model checker catches
it immediately.  This is a nice demonstration of the paper's methodology:
the race shows up (and is fixed) at the small rendezvous level, not in the
asynchronous jungle.

Fusion note: ``reqU`` is *not* request/reply fusable — its requester waits
for one of *two* possible answers (``grU``/``upfail``), and section 3.3
requires a unique reply.  The engine correctly leaves it as a plain
acked request, while still fusing ``reqR``/``grR``, ``reqW``/``grW``,
``invS``/``IA`` and ``inv``/``ID`` around it.
"""

from __future__ import annotations

from typing import Optional

from ..csp.ast import Protocol, SetSender, VarTarget
from ..csp.builder import ProcessBuilder, inp, out, protocol, tau
from ..csp.validate import validate_protocol
from .invalidate import (blank, exclusive_grant, exclusive_states,
                         free_states, invalidation_loop, remote_idle_states,
                         remote_modified_states, remote_shared_states,
                         shared_states, sharers)

__all__ = ["msi_protocol"]


def msi_protocol(data_values: Optional[int] = None) -> Protocol:
    """Build the MSI-with-upgrade rendezvous protocol.

    :param data_values: finite data domain size, or ``None`` for abstract
        payloads (as in :func:`repro.protocols.invalidate.invalidate_protocol`).
    """
    home = ProcessBuilder.home(
        "msi-home",
        o=None, j=None, t=None, t0=None, u=None, S=frozenset(),
        mem=blank(data_values))
    free_states(home)
    shared_states(home, "grR", inp("reqU", sender=SetSender("S"),
                                   bind_sender="j", to="U.chk"))
    # W.*: invalidate everyone, writer is outside the sharer set.
    # U.*: invalidate everyone except the upgrading sharer j.
    invalidation_loop(home, "W", sharers, deny_upgrades=True)
    invalidation_loop(home, "U",
                      lambda env: env["S"] - frozenset({env["j"]}),
                      deny_upgrades=True)
    home.state("W.grant", exclusive_grant("grW", "E"))
    home.state("U.grant", out("grU", target=VarTarget("j"),
                              update=lambda env: env.update(
                                  {"o": env["j"], "j": None,
                                   "S": frozenset()}),
                              to="E"))
    exclusive_states(home)

    remote = ProcessBuilder.remote("msi-remote", d=blank(data_values))
    remote_idle_states(remote)
    remote_shared_states(remote, data_values, tau("wantUp", to="S.up"))
    remote.state("S.up", out("reqU", to="S.grU"))
    # No invS guard is needed in S.grU: once the home has acked reqU it is
    # committed to answer with grU or upfail before invalidating us (the
    # U-loop skips the upgrader; the deny states reply immediately), and
    # an invS racing the reqU is absorbed by the transient-drop/implicit-
    # nack rules.  The model checker confirms no deadlock without it.
    remote.state(
        "S.grU",
        inp("grU", to="M"),
        inp("upfail", to="S"),
    )
    remote_modified_states(remote, data_values)
    return validate_protocol(protocol("msi", home, remote))
