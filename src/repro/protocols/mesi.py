"""MESI protocol (library extension): exclusive-clean copies.

Stresses the refinement machinery with the defining MESI feature: the
first reader receives an **exclusive-clean** (E) copy and may upgrade it to
Modified *silently* — no message, just a local tau — so the home cannot
know whether the line it granted is clean or dirty.  Consequences this
module exercises:

* when the home revokes an exclusive copy it must accept *either* a clean
  acknowledgement (``dnC``/``IC``, no data) or a dirty write-back
  (``dnD``/``ID``, with data), depending on hidden remote state;
* precisely because two reply types are possible, the section 3.3
  request/reply optimization is **not applicable** to the revocation pairs
  — the engine's static checks refuse them (asserted in tests), while
  still fusing ``reqW``/``grM`` and the sharer-invalidation ``invS``/``IA``;
* a read request has two possible answers too (``grE`` if the line is
  free, ``grS`` after a downgrade), so ``reqR`` also stays un-fused.

Home node — variables ``o`` (exclusive owner), ``j`` (pending requester),
``t``/``t0`` (sharer bookkeeping), ``S`` (sharers), ``mem``::

    F   --r(j)?reqR--> F.ge --r(j)!grE(mem) [o:=j]--> X
    F   --r(j)?reqW--> F.gm --r(j)!grM(mem) [o:=j]--> X

    X   --r(o)?evE  [o:=None]--> F            (clean evict: no data)
    X   --r(o)?LR(mem) [o:=None]--> F         (dirty write-back evict)
    X   --r(j)?reqR--> X.r                     (downgrade to shared)
    X   --r(j)?reqW--> X.w                     (full revocation)

    X.r --r(o)!down--> X.rw ; X.r --r(o)?{evE,LR}--> X.fgr   (race)
    X.rw --r(o)?dnC  [S:={o}]--> X.sgr         (was clean)
    X.rw --r(o)?dnD(mem) [S:={o}]--> X.sgr     (was dirty)
    X.sgr --r(j)!grS(mem) [S∪={j}, o:=None]--> Sh
    X.fgr --r(j)!grE(mem) [o:=j]--> X

    X.w --r(o)!invX--> X.ww ; X.w --r(o)?{evE,LR}--> X.wgr   (race)
    X.ww --r(o)?IC--> X.wgr ; X.ww --r(o)?ID(mem)--> X.wgr
    X.wgr --r(j)!grM(mem) [o:=j]--> X

    Sh  --r(j)?reqR--> Sh.gr --r(j)!grS(mem) [S∪={j}]--> Sh
    Sh  --r(t∈S)?evS [S-={t}]--> Sh.chk (τ: empty ? F : Sh)
    Sh  --r(j)?reqW--> W.chk                   (invalidate-all loop, then)
    W.grant --r(j)!grM(mem) [o:=j]--> X

Remote node — variable ``d``::

    I --τ:wantR--> I.r --h!reqR--> I.gr ; I.gr --h?grE(d)--> E
                                         I.gr --h?grS(d)--> S
    I --τ:wantW--> I.w --h!reqW--> I.gm --h?grM(d)--> M
    E --τ:write--> M                      (the silent MESI upgrade)
    E --τ:evict--> E.ev --h!evE--> I      (clean: no data travels)
    E --h?down--> E.dc --h!dnC--> S
    E --h?invX--> E.ic --h!IC--> I
    M --τ:evict--> M.lr --h!LR(d)--> I
    M --h?down--> M.dd --h!dnD(d)--> S
    M --h?invX--> M.id --h!ID(d)--> I
    S --τ:evict--> S.ev --h!evS--> I ; S --h?invS--> S.ia --h!IA--> I

The silent ``E -> M`` write tau exists at the rendezvous level regardless
of the data domain — it is a *protocol* state change (the copy becomes
dirty), not just a value change.

From :mod:`~repro.protocols.invalidate` this module takes the sharer
updates and the exclusive grant (sent as ``grE``/``grM``), ``Sh``,
``Sh.gr`` (granting ``grS``) and ``Sh.chk``, the ``W`` invalidation loop,
the remote's ``S`` and the ``LR``/``ID`` write-backs out of ``M``.  It
writes its own ``X`` states and the remote's ``I``, ``E`` and ``M``.
"""

from __future__ import annotations

from typing import Optional

from ..csp.ast import AnySender, Protocol, VarSender, VarTarget
from ..csp.builder import ProcessBuilder, inp, out, protocol, tau
from ..csp.validate import validate_protocol
from .invalidate import (blank, exclusive_grant, forget, grant,
                         invalidation_loop, remote_shared_states,
                         shared_states, sharers, write_back)

__all__ = ["mesi_protocol"]


def mesi_protocol(data_values: Optional[int] = None) -> Protocol:
    """Build the MESI rendezvous protocol.

    :param data_values: finite data domain size, or ``None`` for abstract
        payloads.  With a domain, the E-state write increments the value —
        silently, which is exactly what the dirty/clean reply split and the
        coherence oracle then have to get right.
    """
    home = ProcessBuilder.home(
        "mesi-home",
        o=None, j=None, t=None, t0=None, S=frozenset(), mem=blank(data_values))

    # -- free -----------------------------------------------------------------
    home.state(
        "F",
        inp("reqR", sender=AnySender(), bind_sender="j", to="F.ge"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="F.gm"),
    )
    home.state("F.ge", exclusive_grant("grE", "X"))
    home.state("F.gm", exclusive_grant("grM", "X"))

    # -- exclusive (E or M at the remote — the home cannot tell) ---------------
    home.state(
        "X",
        inp("evE", sender=VarSender("o"),
            update=lambda env: env.set("o", None), to="F"),
        inp("LR", sender=VarSender("o"), bind_value="mem",
            update=lambda env: env.set("o", None), to="F"),
        inp("reqR", sender=AnySender(), bind_sender="j", to="X.r"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="X.w"),
    )
    home.state(
        "X.r",
        out("down", target=VarTarget("o"), to="X.rw"),
        inp("evE", sender=VarSender("o"), to="X.fgr"),
        inp("LR", sender=VarSender("o"), bind_value="mem", to="X.fgr"),
    )
    home.state(
        "X.rw",
        inp("dnC", sender=VarSender("o"),
            update=lambda env: env.update({"S": frozenset({env["o"]})}),
            to="X.sgr"),
        inp("dnD", sender=VarSender("o"), bind_value="mem",
            update=lambda env: env.update({"S": frozenset({env["o"]})}),
            to="X.sgr"),
    )
    home.state("X.sgr",
               out("grS", target=VarTarget("j"), payload=grant,
                   update=lambda env: env.update(
                       {"S": env["S"] | frozenset({env["j"]}),
                        "o": None, "j": None}),
                   to="Sh"))
    home.state("X.fgr", exclusive_grant("grE", "X"))
    home.state(
        "X.w",
        out("invX", target=VarTarget("o"), to="X.ww"),
        inp("evE", sender=VarSender("o"), to="X.wgr"),
        inp("LR", sender=VarSender("o"), bind_value="mem", to="X.wgr"),
    )
    home.state(
        "X.ww",
        inp("IC", sender=VarSender("o"), to="X.wgr"),
        inp("ID", sender=VarSender("o"), bind_value="mem", to="X.wgr"),
    )
    home.state("X.wgr", exclusive_grant("grM", "X"))

    # -- shared ------------------------------------------------------------------
    shared_states(home, "grS")
    invalidation_loop(home, "W", sharers)
    home.state("W.grant", exclusive_grant("grM", "X"))

    # -- remote ---------------------------------------------------------------------
    remote = ProcessBuilder.remote("mesi-remote", d=blank(data_values))
    remote.state(
        "I",
        tau("wantR", to="I.r"),
        tau("wantW", to="I.w"),
    )
    remote.state("I.r", out("reqR", to="I.gr"))
    remote.state(
        "I.gr",
        inp("grE", bind_value="d", to="E"),
        inp("grS", bind_value="d", to="S"),
    )
    remote.state("I.w", out("reqW", to="I.gm"))
    remote.state("I.gm", inp("grM", bind_value="d", to="M"))

    write_update = (None if data_values is None else
                    (lambda env: env.set("d", (env["d"] + 1) % data_values)))
    remote.state(
        "E",
        tau("write", update=write_update, to="M"),
        tau("evict", to="E.ev"),
        inp("down", to="E.dc"),
        inp("invX", to="E.ic"),
    )
    remote.state("E.ev", out("evE", update=forget(data_values), to="I"))
    remote.state("E.dc", out("dnC", to="S"))
    remote.state("E.ic", out("IC", update=forget(data_values), to="I"))

    extra_writes = [] if data_values is None else [
        tau("write", update=write_update, to="M")]
    remote.state(
        "M",
        tau("evict", to="M.lr"),
        inp("down", to="M.dd"),
        inp("invX", to="M.id"),
        *extra_writes,
    )
    remote.state("M.lr", write_back("LR", data_values))
    remote.state("M.dd", out("dnD", payload=lambda env: env["d"], to="S"))
    remote.state("M.id", write_back("ID", data_values))
    remote_shared_states(remote, data_values)
    return validate_protocol(protocol("mesi", home, remote))
