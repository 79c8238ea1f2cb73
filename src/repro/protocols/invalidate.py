"""The invalidate protocol — "another DSM protocol used in Avalanche".

The paper evaluates this protocol in Table 3 but does not give its figures;
we reconstruct it in the standard DASH/Avalanche style: any number of
remote nodes may hold *read* copies simultaneously (tracked in a sharers
set at the home), one node may hold an exclusive *write* copy, and a write
request invalidates all read copies first.  The reconstruction stays inside
the paper's specification language: star topology, restricted remote
guards, generalized home guards, sets as ordinary home-node variables.

Home node — variables ``o`` (exclusive owner), ``j`` (pending requester),
``t``/``t0`` (sharer being removed / invalidated), ``S`` (sharers set),
``mem`` (line value)::

    F   --r(j)?reqR-->  F.gr   --r(j)!grR(mem)  [S∪={j}]--> Sh
    F   --r(j)?reqW-->  F.grw  --r(j)!grW(mem)  [o:=j]-->   E

    Sh  --r(j)?reqR-->  Sh.gr  --r(j)!grR(mem)  [S∪={j}]--> Sh
    Sh  --r(t∈S)?evS    [S-={t}]--> Sh.chk (τ: empty? F : Sh)
    Sh  --r(j)?reqW-->  W.chk                    (invalidation loop)

    W.chk  : τ done[S=∅] --> W.grant ; τ more[S≠∅, t0:=min S] --> W.send
    W.send : --r(t0)!invS--> W.wait ; --r(t∈S)?evS [S-={t}]--> W.chk
    W.wait : --r(t0)?IA [S-={t0}]--> W.chk
             --r(t∈S)?evS [S-={t}]--> W.wait
    W.grant: --r(j)!grW(mem) [o:=j]--> E

    E   --r(o)?LR(mem) [o:=None]--> F
    E   --r(j)?reqR--> RI ; RI --r(o)!inv--> RI2 ; RI --r(o)?LR--> RI3
        RI2 --r(o)?{ID,LR}(mem)--> RI3 ; RI3 --r(j)!grR(mem) [S:={j}]--> Sh
    E   --r(j)?reqW--> WI ; WI --r(o)!inv--> WI2 ; WI --r(o)?LR--> WI3
        WI2 --r(o)?{ID,LR}(mem)--> WI3 ; WI3 --r(j)!grW(mem) [o:=j]--> E

Remote node — variable ``d``::

    I  --τ:wantR--> I.r --h!reqR--> I.grR --h?grR(d)--> S
    I  --τ:wantW--> I.w --h!reqW--> I.grW --h?grW(d)--> M
    S  --τ:evict--> S.ev --h!evS--> I
    S  --h?invS--> S.ia --h!IA--> I
    M  --τ:evict--> M.lr --h!LR(d)--> I
    M  --h?inv--> M.id --h!ID(d)--> I

A write upgrade from ``S`` is expressed compositionally (evict the read
copy, then request write); the :mod:`repro.protocols.msi` extension adds a
first-class upgrade transaction instead.

Note the CPU intent (``wantR``/``wantW``) is necessarily an explicit tau
here — a remote must choose *which* single rendezvous to pursue, and the
section 2.4 restriction forbids output non-determinism — so every idle
remote carries an intent bit and the state space grows exponentially in the
node count even at the rendezvous level.  That matches the paper's Table 3,
where even the *rendezvous* invalidate protocol reaches 228 kstates at a
mere 6 nodes (vs. 965 states for migratory at 8).

Fusable pairs detected by the engine: ``reqR``/``grR``, ``reqW``/``grW``
(reply path through the invalidation loop — accepted because the loop
terminates; see :func:`repro.refine.reqreply.check_pair`), ``invS``/``IA``
and ``inv``/``ID``.

The module-level pieces below write each part of that picture once:
the sharer updates, ``F``, ``Sh``, the invalidation loop, ``E`` with its
revocations, and the remote's ``I``, ``S`` and ``M``.  The
:mod:`~repro.protocols.msi` and :mod:`~repro.protocols.mesi` builders
call them in the same declaration order and write only what they change.
The pieces are not part of :mod:`repro.protocols`' exports.
"""

from __future__ import annotations

from typing import Optional

from ..csp.ast import (DATA, AnySender, Guard, Output, Protocol, SetSender,
                       Tau, VarSender, VarTarget)
from ..csp.builder import ProcessBuilder, inp, out, protocol, tau
from ..csp.env import Value
from ..csp.validate import validate_protocol

__all__ = ["invalidate_protocol"]


def blank(data_values: Optional[int]) -> Value:
    """A line's initial value: the abstract token, or 0 of a finite domain."""
    return DATA if data_values is None else 0


def forget(data_values: Optional[int]):
    """Update: the remote drops its copy (``d`` back to its initial value)."""
    value = blank(data_values)
    return lambda env: env.set("d", value)


def grant(env):
    """Payload of every data grant: the home's copy of the line."""
    return env["mem"]


def own(var: str):
    """Update: the remote named by ``var`` becomes the owner ``o``."""
    return lambda env: env.update({"o": env[var], var: None})


def add_sharer(var: str):
    """Update: the remote named by ``var`` joins the sharers ``S``."""
    return lambda env: env.update(
        {"S": env["S"] | frozenset({env[var]}), var: None})


def drop_sharer(var: str):
    """Update: the remote named by ``var`` leaves the sharers ``S``."""
    return lambda env: env.set("S", env["S"] - frozenset({env[var]}))


def sharers(env):
    """Victims of the ``W`` loop: every sharer (the writer holds no copy)."""
    return env["S"]


def exclusive_grant(msg: str, to: str) -> Output:
    """``r(j)!msg(mem)``: the requester ``j`` becomes the owner in ``to``."""
    return out(msg, target=VarTarget("j"), payload=grant, update=own("j"),
               to=to)


def free_states(home: ProcessBuilder) -> None:
    """``F``: no remote holds the line; a reader shares it, a writer owns it."""
    home.state(
        "F",
        inp("reqR", sender=AnySender(), bind_sender="j", to="F.gr"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="F.grw"),
    )
    home.state("F.gr", out("grR", target=VarTarget("j"), payload=grant,
                           update=add_sharer("j"), to="Sh"))
    home.state("F.grw", exclusive_grant("grW", "E"))


def shared_states(home: ProcessBuilder, grant_msg: str,
                  *extra: Guard) -> None:
    """``Sh`` (a read grant, an eviction, a write into the ``W`` loop, then
    ``extra``), its read grant ``Sh.gr`` by ``grant_msg`` and ``Sh.chk``."""
    home.state(
        "Sh",
        inp("reqR", sender=AnySender(), bind_sender="j", to="Sh.gr"),
        inp("evS", sender=SetSender("S"), bind_sender="t",
            update=drop_sharer("t"), to="Sh.chk"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="W.chk"),
        *extra,
    )
    home.state("Sh.gr", out(grant_msg, target=VarTarget("j"), payload=grant,
                            update=add_sharer("j"), to="Sh"))
    home.state(
        "Sh.chk",
        tau("empty", cond=lambda env: not env["S"], to="F"),
        tau("nonempty", cond=lambda env: bool(env["S"]), to="Sh"),
    )


def invalidation_loop(home: ProcessBuilder, prefix: str, victims,
                      deny_upgrades: bool = False) -> None:
    """``<prefix>.chk/.send/.wait``: ``invS`` to ``min(victims(env))`` and
    await its ``IA`` until no victim is left, then ``<prefix>.grant``; a
    sharer evicting meanwhile just leaves ``S``.  With ``deny_upgrades``,
    ``.send`` and ``.wait`` also take a competing ``reqU`` and answer it
    ``upfail`` from ``<state>.deny``."""
    chk, send, wait = f"{prefix}.chk", f"{prefix}.send", f"{prefix}.wait"
    home.state(
        chk,
        tau("done", cond=lambda env: not victims(env), to=f"{prefix}.grant"),
        tau("more", cond=lambda env: bool(victims(env)),
            update=lambda env: env.set("t0", min(victims(env))), to=send),
    )

    def waiting(state: str, back: str, *guards: Guard) -> None:
        if not deny_upgrades:
            home.state(state, *guards)
            return
        home.state(state, *guards, inp("reqU", sender=SetSender("S"),
                                       bind_sender="u", to=f"{state}.deny"))
        home.state(f"{state}.deny",
                   out("upfail", target=VarTarget("u"),
                       update=lambda env: env.set("u", None), to=back))

    waiting(send, chk,
            out("invS", target=VarTarget("t0"), to=wait),
            inp("evS", sender=SetSender("S"), bind_sender="t",
                update=drop_sharer("t"), to=chk))
    waiting(wait, wait,
            inp("IA", sender=VarSender("t0"),
                update=lambda env: env.update(
                    {"S": env["S"] - frozenset({env["t0"]}), "t0": None}),
                to=chk),
            inp("evS", sender=SetSender("S"), bind_sender="t",
                update=drop_sharer("t"), to=wait))


def exclusive_states(home: ProcessBuilder) -> None:
    """``E`` (owner ``o`` holds the line) and its revocations: ``RI*``
    takes it back for a reader, ``WI*`` hands it on to a writer."""
    home.state(
        "E",
        inp("LR", sender=VarSender("o"), bind_value="mem",
            update=lambda env: env.set("o", None), to="F"),
        inp("reqR", sender=AnySender(), bind_sender="j", to="RI"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="WI"),
    )
    for prefix, grant_state in (("RI", "RI3"), ("WI", "WI3")):
        home.state(
            prefix,
            out("inv", target=VarTarget("o"), to=f"{prefix}2"),
            inp("LR", sender=VarSender("o"), bind_value="mem",
                to=grant_state),
        )
        home.state(
            f"{prefix}2",
            inp("LR", sender=VarSender("o"), bind_value="mem",
                to=grant_state),
            inp("ID", sender=VarSender("o"), bind_value="mem",
                to=grant_state),
        )
    home.state("RI3", out("grR", target=VarTarget("j"), payload=grant,
                          update=lambda env: env.update(
                              {"S": frozenset({env["j"]}),
                               "o": None, "j": None}),
                          to="Sh"))
    home.state("WI3", exclusive_grant("grW", "E"))


def remote_idle_states(remote: ProcessBuilder) -> None:
    """``I``: pick a read or a write miss, request it, await the grant."""
    remote.state(
        "I",
        tau("wantR", to="I.r"),
        tau("wantW", to="I.w"),
    )
    remote.state("I.r", out("reqR", to="I.grR"))
    remote.state("I.grR", inp("grR", bind_value="d", to="S"))
    remote.state("I.w", out("reqW", to="I.grW"))
    remote.state("I.grW", inp("grW", bind_value="d", to="M"))


def remote_shared_states(remote: ProcessBuilder, data_values: Optional[int],
                         *extra: Tau) -> None:
    """``S``: evict (``evS``), take one of ``extra``, or be invalidated."""
    remote.state(
        "S",
        tau("evict", to="S.ev"),
        *extra,
        inp("invS", to="S.ia"),
    )
    remote.state("S.ev", out("evS", update=forget(data_values), to="I"))
    remote.state("S.ia", out("IA", update=forget(data_values), to="I"))


def write_back(msg: str, data_values: Optional[int]) -> Output:
    """``h!msg(d)``: the remote hands its copy home and is left in ``I``."""
    return out(msg, payload=lambda env: env["d"], update=forget(data_values),
               to="I")


def remote_modified_states(remote: ProcessBuilder,
                           data_values: Optional[int]) -> None:
    """``M``: evict (``LR``), be revoked (``ID``) or, with a data domain,
    write (the value increments mod the domain)."""
    write_guards = []
    if data_values is not None:
        write_guards.append(
            tau("write", to="M",
                update=lambda env: env.set("d", (env["d"] + 1) % data_values)))
    remote.state(
        "M",
        tau("evict", to="M.lr"),
        inp("inv", to="M.id"),
        *write_guards,
    )
    remote.state("M.lr", write_back("LR", data_values))
    remote.state("M.id", write_back("ID", data_values))


def invalidate_protocol(data_values: Optional[int] = None) -> Protocol:
    """Build the invalidate rendezvous protocol.

    :param data_values: size of the finite data domain, or ``None`` for the
        abstract single-token payload model (writes then leave the value
        unchanged; with a domain, M-state writes increment mod the domain).
    :returns: a validated :class:`~repro.csp.ast.Protocol`.
    """
    home = ProcessBuilder.home(
        "invalidate-home",
        o=None, j=None, t=None, t0=None, S=frozenset(), mem=blank(data_values))
    free_states(home)
    shared_states(home, "grR")
    invalidation_loop(home, "W", sharers)
    home.state("W.grant", exclusive_grant("grW", "E"))
    exclusive_states(home)

    remote = ProcessBuilder.remote("invalidate-remote", d=blank(data_values))
    remote_idle_states(remote)
    remote_shared_states(remote, data_values)
    remote_modified_states(remote, data_values)
    return validate_protocol(protocol("invalidate", home, remote))
