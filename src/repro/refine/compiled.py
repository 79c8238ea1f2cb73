"""Protocol-specialized compiled step engine (ROADMAP item 1).

:class:`~repro.semantics.asynchronous.AsyncSystem` interprets the guard
AST on every expansion: each ``steps()`` call re-fetches ``StateDef``
tuples, re-dispatches on sender patterns and transition-spec kinds, and
rebuilds frozen dataclasses through their (slow) generated ``__init__``.
All of that structure is *per-protocol constant*.  This module compiles
it away: from the shared :class:`~repro.refine.transitions.StepTable`
plus the protocol AST it generates one specialized successor function
per ``(role, state)`` — guard tests, payload slots, env-variable
indices and control targets (rewind/forward/fused-reply) baked in as
literals — and ``compile()``/``exec``-s the result into a module cached
on disk keyed by a structural protocol fingerprint.

Codegen invariants (the contract with the interpreter, which stays the
differential oracle — see ``tests/property/test_reduction_matrix.py``):

* **Byte-identical successor lists.**  The generated ``steps``/
  ``successors`` mirror ``AsyncSystem.steps`` branch for branch,
  including successor *order* — truncated-budget runs must agree.
* **Structure-only source.**  The emitted module contains no user
  callables; payload/cond/update/predicate lambdas are enumerated in a
  deterministic walk and injected through the ``funcs`` tuple at
  ``make_steps`` time.  Two structurally identical protocols with
  different lambdas therefore share source but never share closures.
* **Table-driven, not AST-derived.**  Control targets come from the
  (possibly mutated) :class:`StepTable` handed to :func:`compile_system`
  — a ``StepTable.mutate`` mutant compiles to a *different* module (the
  fingerprint covers every spec row) exhibiting the same faulty
  behaviour the interpreter does.
* **Fast constructors never copy instance dicts.**  States are built
  via ``__new__`` plus a fresh attribute dict, so the memo caches
  (``_hash_cache``/``_key_cache``) of an existing node can never leak
  into a modified copy.
* **Payloads are effect-free and hashable.**  The compiled engine may
  evaluate a payload expression zero times where the interpreter's
  value is observably unused (the lean ``successors`` path), and skips
  ``Env``'s eager per-value hashability validation on rebound
  variables; both are unobservable for the pure, hashable payloads the
  spec layer requires.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from ..csp.ast import (
    AnySender,
    ConstTarget,
    ExprTarget,
    Input,
    Output,
    PredSender,
    SetSender,
    StateDef,
    Tau,
    VarSender,
    VarTarget,
)
from .plan import RefinedProtocol
from .transitions import (
    HOME,
    KIND_NOTE,
    KIND_REPLY,
    REMOTE,
    StepTable,
    TransitionSpec,
)

__all__ = [
    "CODEGEN_VERSION",
    "CompiledEngine",
    "compile_system",
    "generate_source",
    "protocol_fingerprint",
]

#: Bumped whenever the emitted code changes shape; part of the cache key.
CODEGEN_VERSION = 2


def _generator_digest() -> str:
    """Digest of this very module's source, folded into every fingerprint.

    CODEGEN_VERSION is the human-readable part of the key, but relying on
    a hand-bumped counter alone is a trap: an edit to the generator that
    forgets the bump would keep serving stale modules from the disk
    cache.  Hashing the generator source makes cache invalidation
    automatic.
    """
    try:
        blob = Path(__file__).read_bytes()
    except OSError:  # frozen/zipped distributions: fall back to version
        return f"v{CODEGEN_VERSION}"
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


_GENERATOR_DIGEST = _generator_digest()


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------


def _sender_desc(pat: Any) -> tuple:
    if pat is None or isinstance(pat, AnySender):
        return ("any",)
    if isinstance(pat, VarSender):
        return ("var", pat.var)
    if isinstance(pat, SetSender):
        return ("set", pat.var)
    return ("pred", getattr(pat, "name", "pred"))


def _target_desc(tgt: Any) -> tuple:
    if tgt is None:
        return ("none",)
    if isinstance(tgt, VarTarget):
        return ("var", tgt.var)
    if isinstance(tgt, ConstTarget):
        return ("const", tgt.remote)
    return ("expr", getattr(tgt, "name", "expr"))


def _guard_desc(g: Any) -> tuple:
    if isinstance(g, Output):
        return ("out", g.msg, g.to, _target_desc(g.target),
                g.payload is not None, g.update is not None,
                g.cond is not None)
    if isinstance(g, Input):
        return ("in", g.msg, g.to, _sender_desc(g.sender), g.bind_sender,
                g.bind_value, g.cond is not None, g.update is not None)
    return ("tau", g.label, g.to, g.cond is not None, g.update is not None)


def _structure(refined: RefinedProtocol, table: StepTable) -> tuple:
    proto = refined.protocol
    cfg = refined.plan.config

    def proc_desc(p: Any) -> tuple:
        return (p.name, p.initial_state,
                tuple(k for k, _ in p.initial_env.canonical_key()),
                tuple((name, tuple(_guard_desc(g) for g in p.states[name].guards))
                      for name in sorted(p.states)))

    return (
        "repro.compiled", CODEGEN_VERSION, _GENERATOR_DIGEST, proto.name,
        proc_desc(proto.home), proc_desc(proto.remote),
        (cfg.home_buffer_capacity, cfg.use_reqreply,
         cfg.strict_reqreply_cycles, cfg.reserve_progress_buffer,
         cfg.reserve_ack_buffer, tuple(sorted(cfg.fire_and_forget))),
        tuple((s.role, s.state, s.out_index, s.msg, s.kind, s.rewind_to,
               s.forward_to, s.fused_reply, s.reply_to)
              for s in table.specs),
    )


def protocol_fingerprint(refined: RefinedProtocol, table: StepTable) -> str:
    """Structural cache key: AST shapes + table rows + plan + codegen
    version.  User callables are deliberately excluded — they are
    injected at load time, never baked into the source."""
    blob = repr(_structure(refined, table)).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


def _fesc(s: str) -> str:
    """Escape a literal for interpolation into an emitted f-string."""
    return s.replace("{", "{{").replace("}", "}}")


_PRELUDE = '''\
from repro.csp.env import Env
from repro.errors import SemanticsError, SpecError
from repro.semantics.asynchronous import (
    AsyncState, BufEntry, DeliverToHome, DeliverToRemote, HomeNode,
    HomeStep, HomeTau, RemoteC3, RemoteNode, RemoteSend, RemoteTau, Step)
from repro.semantics.network import Channels, Msg
from repro.semantics.rendezvous import RendezvousStep


def make_steps(n_remotes, funcs):
'''

# Fast constructors: ``__new__`` plus a *fresh* attribute dict.  Never
# copy an existing instance's ``__dict__`` — it may hold memoized
# ``_hash_cache``/``_key_cache`` entries that would poison the copy.
#
# Node-level values (environments, messages, buffer entries, home and
# remote nodes) are *interned* per engine: their configuration spaces are
# tiny compared to the state space, and handing the visited store one
# canonical object per value means (a) its memoized hash is computed once
# ever and (b) equality checks on duplicate successor states
# short-circuit on object identity inside the tuple comparisons.  States
# and channels are interned through *bounded* tables (cleared when they
# grow past ``_LIMIT``): their configuration counts scale with the state
# count, and pinning them forever would defeat the fingerprint store's
# memory story on 10^7-state runs.  Clearing is safe — interning is
# purely an optimization, and equal-but-distinct survivors still compare
# by value.
_CTORS = '''\
    _osa = object.__setattr__
    _LIMIT = 1 << 20

    _ENVS = {}

    def _env(it):
        e = _ENVS.get(it)
        if e is None:
            e = Env.__new__(Env)
            _osa(e, "_items", it)
            _osa(e, "_hash", hash(it))
            _ENVS[it] = e
        return e

    _HOMES = {}

    def _home(st, env, mode, oi, aw, po, buf):
        key = (st, env, mode, oi, aw, po, buf)
        h = _HOMES.get(key)
        if h is None:
            h = HomeNode.__new__(HomeNode)
            _osa(h, "__dict__", {
                "state": st, "env": env, "mode": mode, "out_idx": oi,
                "awaiting": aw, "pending_out": po, "buffer": buf})
            if len(_HOMES) > _LIMIT:
                _HOMES.clear()
            _HOMES[key] = h
        return h

    _REMOTES = {}

    def _remote(st, env, mode, po, buf):
        key = (st, env, mode, po, buf)
        r = _REMOTES.get(key)
        if r is None:
            r = RemoteNode.__new__(RemoteNode)
            _osa(r, "__dict__", {"state": st, "env": env, "mode": mode,
                                 "pending_out": po, "buf": buf})
            if len(_REMOTES) > _LIMIT:
                _REMOTES.clear()
            _REMOTES[key] = r
        return r

    _BUFS = {}

    def _buf(s, m, p, nt):
        key = (s, m, p, nt)
        b = _BUFS.get(key)
        if b is None:
            b = BufEntry.__new__(BufEntry)
            _osa(b, "__dict__", {"sender": s, "msg": m, "payload": p,
                                 "note": nt})
            _BUFS[key] = b
        return b

    _MSGS = {}

    def _msg(k, m, p):
        key = (k, m, p)
        g = _MSGS.get(key)
        if g is None:
            g = Msg.__new__(Msg)
            _osa(g, "__dict__", {"kind": k, "msg": m, "payload": p})
            _MSGS[key] = g
        return g

    _CHANS = {}

    def _chan(q):
        c = _CHANS.get(q)
        if c is None:
            c = Channels.__new__(Channels)
            _osa(c, "__dict__", {"queues": q})
            if len(_CHANS) > _LIMIT:
                _CHANS.clear()
            _CHANS[q] = c
        return c

    _STATES = {}

    def _async(h, r, c):
        key = (h, r, c)
        s = _STATES.get(key)
        if s is None:
            s = AsyncState.__new__(AsyncState)
            _osa(s, "__dict__", {"home": h, "remotes": r, "channels": c})
            if len(_STATES) > _LIMIT:
                _STATES.clear()
            _STATES[key] = s
        return s

    def _step(a, s, c, z):
        t = Step.__new__(Step)
        _osa(t, "__dict__", {"action": a, "state": s, "completes": c,
                             "sends": z})
        return t

    def _rvz(a, p, m, pl):
        r = RendezvousStep.__new__(RendezvousStep)
        _osa(r, "__dict__", {"active": a, "passive": p, "msg": m,
                             "payload": pl, "out_index": 0})
        return r

    def _push(ch, c, m):
        q = ch.queues
        return _chan(q[:c] + (q[c] + (m,),) + q[c + 1:])

    def _ke(k):
        raise KeyError(f"variable {k!r} not declared in this Env")

    def _nonnote(b):
        n = 0
        for e in b:
            if not e.note:
                n += 1
        return n

    DEL_H = tuple(DeliverToHome(i) for i in range(n_remotes))
    DEL_R = tuple(DeliverToRemote(i) for i in range(n_remotes))
    R_SEND = tuple(RemoteSend(i) for i in range(n_remotes))
    R_C3 = tuple(RemoteC3(i) for i in range(n_remotes))
    NACK_MSG = Msg("NACK")
    ACK_MSG = Msg("ACK")
    _C1A = {}

    def _c1a(e):
        a = _C1A.get(e)
        if a is None:
            who = "h" if e.sender == "h" else f"r{e.sender}"
            tag = "~" if e.note else ""
            a = HomeStep("C1", f"{tag}{who}:{e.msg}")
            _C1A[e] = a
        return a
'''

# The delivery drivers are protocol-independent; they pop the channel
# head and dispatch to the per-state handlers (mirroring
# ``_deliver_to_home``/``_deliver_to_remote`` including error order).
_DELIVER = '''\
    def _dh(state, queues, home, remotes, i, q):
        c = 2 * i + 1
        ch = _chan(queues[:c] + (q[1:],) + queues[c + 1:])
        msg = q[0]
        kind = msg.kind
        if kind == "REQ":
            return H_REQ[home.state](ch, home, remotes, i, msg)
        if kind == "NOTE":
            nh = _home(home.state, home.env, home.mode, home.out_idx,
                       home.awaiting, home.pending_out,
                       home.buffer + (_buf(i, msg.msg, msg.payload, True),))
            return _step(DEL_H[i], _async(nh, remotes, ch), (), ())
        if home.mode != "trans" or home.awaiting != i:
            raise SemanticsError(
                f"home received {msg.describe()} from r{i} but is not "
                f"awaiting it (state {home.describe()})")
        if home.pending_out is None:
            raise SemanticsError("home has no pending output in TRANS mode")
        return H_T[home.state](ch, home, remotes, i, msg, kind)

    def _dhl(state, queues, home, remotes, i, q):
        c = 2 * i + 1
        ch = _chan(queues[:c] + (q[1:],) + queues[c + 1:])
        msg = q[0]
        kind = msg.kind
        if kind == "REQ":
            return H_REQL[home.state](ch, home, remotes, i, msg)
        if kind == "NOTE":
            nh = _home(home.state, home.env, home.mode, home.out_idx,
                       home.awaiting, home.pending_out,
                       home.buffer + (_buf(i, msg.msg, msg.payload, True),))
            return (DEL_H[i], _async(nh, remotes, ch))
        if home.mode != "trans" or home.awaiting != i:
            raise SemanticsError(
                f"home received {msg.describe()} from r{i} but is not "
                f"awaiting it (state {home.describe()})")
        if home.pending_out is None:
            raise SemanticsError("home has no pending output in TRANS mode")
        return H_TL[home.state](ch, home, remotes, i, msg, kind)

    def _dr(state, queues, home, remotes, i, q):
        c = 2 * i
        ch = _chan(queues[:c] + (q[1:],) + queues[c + 1:])
        msg = q[0]
        kind = msg.kind
        node = remotes[i]
        if kind == "REQ":
            if node.mode == "trans":
                return _step(DEL_R[i], _async(home, remotes, ch), (), ())
            if node.buf is not None:
                raise SemanticsError(
                    f"remote r{i} single-slot buffer overflow "
                    f"({node.describe()} receiving {msg.describe()})")
            nn = _remote(node.state, node.env, node.mode, node.pending_out,
                         _buf("h", msg.msg, msg.payload, False))
            return _step(
                DEL_R[i],
                _async(home, remotes[:i] + (nn,) + remotes[i + 1:], ch),
                (), ())
        if node.mode != "trans":
            raise SemanticsError(
                f"remote r{i} received {msg.describe()} while not transient")
        if node.pending_out is None:
            raise SemanticsError("remote has no pending output in TRANS mode")
        return R_T[node.state](ch, home, remotes, i, msg, kind)

    def _drl(state, queues, home, remotes, i, q):
        c = 2 * i
        ch = _chan(queues[:c] + (q[1:],) + queues[c + 1:])
        msg = q[0]
        kind = msg.kind
        node = remotes[i]
        if kind == "REQ":
            if node.mode == "trans":
                return (DEL_R[i], _async(home, remotes, ch))
            if node.buf is not None:
                raise SemanticsError(
                    f"remote r{i} single-slot buffer overflow "
                    f"({node.describe()} receiving {msg.describe()})")
            nn = _remote(node.state, node.env, node.mode, node.pending_out,
                         _buf("h", msg.msg, msg.payload, False))
            return (DEL_R[i],
                    _async(home, remotes[:i] + (nn,) + remotes[i + 1:], ch))
        if node.mode != "trans":
            raise SemanticsError(
                f"remote r{i} received {msg.describe()} while not transient")
        if node.pending_out is None:
            raise SemanticsError("remote has no pending output in TRANS mode")
        return R_TL[node.state](ch, home, remotes, i, msg, kind)
'''

_DRIVERS = '''\
    def steps(state):
        out = []
        home = state.home
        remotes = state.remotes
        queues = state.channels.queues
        for i in range(n_remotes):
            q = queues[2 * i + 1]
            if q:
                out.append(_dh(state, queues, home, remotes, i, q))
            q = queues[2 * i]
            if q:
                out.append(_dr(state, queues, home, remotes, i, q))
        if home.mode == "idle":
            H_DEC[home.state](state, home, remotes, out)
        for i in range(n_remotes):
            node = remotes[i]
            if node.mode == "idle":
                R_STEP[node.state](state, home, remotes, node, i, out)
        return out

    # -- delta-memoized lean driver ------------------------------------
    #
    # Every step family is *channel-delta-pure* over a compact key: a
    # home decision depends only on the (interned) home node, a remote
    # spontaneous step on (i, node), a delivery on (i, receiver node,
    # head message).  The first time a key is seen, the ordinary lean
    # handler runs and its outcome is diffed into a replayable delta —
    # the new node (if any) plus per-channel pop/push ops.  Every later
    # state sharing that key replays the delta with tuple surgery,
    # skipping guard evaluation, payload lambdas, and env updates
    # entirely.  A step whose effect is not expressible as a delta
    # (never the case for this semantics, but the extractor refuses
    # rather than assumes) simply stays on the slow path.

    def _ch_delta(oq, nq):
        ops = []
        for c in range(len(oq)):
            o = oq[c]
            n = nq[c]
            if n is o or n == o:
                continue
            lo = len(o)
            ln = len(n)
            if ln >= lo and n[:lo] == o:
                ops.append((c, 0, n[lo:]))        # pure push(es)
            elif ln >= lo - 1 and n[:lo - 1] == o[1:]:
                ops.append((c, 1, n[lo - 1:]))    # pop head (+ pushes)
            else:
                return None
        return tuple(ops)

    def _mk_delta(state, entries):
        oq = state.channels.queues
        home = state.home
        remotes = state.remotes
        out = []
        for action, ns in entries:
            ops = _ch_delta(oq, ns.channels.queues)
            if ops is None:
                return None
            # Diff by value, not identity: state interning can hand back
            # a canonical successor whose components are equal to — but
            # not the same objects as — the origin's, and recording an
            # unchanged component as an absolute replacement would bake
            # the *origin's* value into the delta.
            nh = ns.home
            h2 = None if (nh is home or nh == home) else nh
            rdel = None
            nr = ns.remotes
            if nr is not remotes:
                for j in range(n_remotes):
                    nj = nr[j]
                    if nj is not remotes[j] and nj != remotes[j]:
                        if rdel is not None:
                            return None
                        rdel = (j, nj)
            out.append((action, h2, rdel, ops))
        return tuple(out)

    def _replay(state, delta, out):
        q0 = state.channels.queues
        home = state.home
        remotes = state.remotes
        for action, h2, rdel, ops in delta:
            q = q0
            for c, start, app in ops:
                qc = q[c]
                q = q[:c] + ((qc[start:] + app) if start else qc + app,) \
                    + q[c + 1:]
            if rdel is None:
                r = remotes
            else:
                j = rdel[0]
                r = remotes[:j] + (rdel[1],) + remotes[j + 1:]
            out.append((action, _async(home if h2 is None else h2, r,
                                       _chan(q))))

    _DH_MEMO = {}
    _DR_MEMO = {}
    _HD_MEMO = {}
    _RS_MEMO = {}

    def successors(state):
        out = []
        home = state.home
        remotes = state.remotes
        queues = state.channels.queues
        for i in range(n_remotes):
            q = queues[2 * i + 1]
            if q:
                key = (i, home, q[0])
                d = _DH_MEMO.get(key)
                if d is not None:
                    _replay(state, d, out)
                else:
                    e = _dhl(state, queues, home, remotes, i, q)
                    out.append(e)
                    d = _mk_delta(state, (e,))
                    if d is not None:
                        if len(_DH_MEMO) > _LIMIT:
                            _DH_MEMO.clear()
                        _DH_MEMO[key] = d
            q = queues[2 * i]
            if q:
                node = remotes[i]
                key = (i, node, q[0])
                d = _DR_MEMO.get(key)
                if d is not None:
                    _replay(state, d, out)
                else:
                    e = _drl(state, queues, home, remotes, i, q)
                    out.append(e)
                    d = _mk_delta(state, (e,))
                    if d is not None:
                        if len(_DR_MEMO) > _LIMIT:
                            _DR_MEMO.clear()
                        _DR_MEMO[key] = d
        if home.mode == "idle":
            d = _HD_MEMO.get(home)
            if d is not None:
                _replay(state, d, out)
            else:
                tmp = []
                H_DECL[home.state](state, home, remotes, tmp)
                out.extend(tmp)
                d = _mk_delta(state, tmp)
                if d is not None:
                    if len(_HD_MEMO) > _LIMIT:
                        _HD_MEMO.clear()
                    _HD_MEMO[home] = d
        for i in range(n_remotes):
            node = remotes[i]
            if node.mode == "idle":
                key = (i, node)
                d = _RS_MEMO.get(key)
                if d is not None:
                    _replay(state, d, out)
                else:
                    tmp = []
                    R_STEPL[node.state](state, home, remotes, node, i, tmp)
                    out.extend(tmp)
                    d = _mk_delta(state, tmp)
                    if d is not None:
                        if len(_RS_MEMO) > _LIMIT:
                            _RS_MEMO.clear()
                        _RS_MEMO[key] = d
        return out

    return steps, successors
'''


class _Gen:
    """One-shot source emitter for a (refined protocol, step table) pair."""

    def __init__(self, refined: RefinedProtocol, table: StepTable) -> None:
        self.refined = refined
        self.protocol = refined.protocol
        self.plan = refined.plan
        self.table = table
        self.cap = refined.plan.config.home_buffer_capacity
        self.reserve_progress = refined.plan.config.reserve_progress_buffer
        self.reserve_ack = refined.plan.config.reserve_ack_buffer
        self.remote_fused = table.fused_requests(REMOTE)
        self.home_fused = table.fused_requests(HOME)
        self.has_notes = bool(table.notes)
        self.home_idx = {k: i for i, (k, _) in enumerate(
            self.protocol.home.initial_env.canonical_key())}
        self.remote_idx = {k: i for i, (k, _) in enumerate(
            self.protocol.remote.initial_env.canonical_key())}
        self.home_states = sorted(self.protocol.home.states)
        self.remote_states = sorted(self.protocol.remote.states)
        self.slots: list[Callable[..., Any]] = []
        self._slot_names: dict[int, str] = {}
        self.lines: list[str] = []

    # -- small emission helpers --------------------------------------------

    def w(self, indent: int, text: str = "") -> None:
        self.lines.append("    " * indent + text if text else "")

    def slot(self, fn: Callable[..., Any]) -> str:
        name = self._slot_names.get(id(fn))
        if name is None:
            name = f"F{len(self.slots)}"
            self._slot_names[id(fn)] = name
            self.slots.append(fn)
        return name

    def ev(self, role: str, var: str, env: str = "env") -> str:
        idx = (self.home_idx if role == HOME else self.remote_idx).get(var)
        if idx is None:
            return f"_ke({var!r})"
        return f"{env}._items[{idx}][1]"

    def pay(self, g: Output, env: str) -> str:
        return (f"{self.slot(g.payload)}({env})"
                if g.payload is not None else "None")

    def upd(self, g: Any, env: str) -> str:
        return (f"{self.slot(g.update)}({env})"
                if g.update is not None else env)

    def free_expr(self, buf: str) -> str:
        if self.has_notes:
            return f"{self.cap} - _nonnote({buf})"
        return f"{self.cap} - len({buf})"

    def accepts(self, g: Input, role: str, env: str, snd: str,
                val: str) -> str:
        """Boolean expression mirroring ``Input.accepts`` (may be '')."""
        parts: list[str] = []
        s = g.sender
        if isinstance(s, VarSender):
            parts.append(f"{self.ev(role, s.var, env)} == {snd}")
        elif isinstance(s, SetSender):
            e = self.ev(role, s.var, env)
            parts.append(f"(isinstance({e}, frozenset) and {snd} in {e})")
        elif isinstance(s, PredSender):
            parts.append(f"{self.slot(s.pred)}({env}, {snd})")
        if g.cond is not None:
            parts.append(f"{self.slot(g.cond)}({env}, {snd}, {val})")
        return " and ".join(parts)

    def emit_complete(self, ind: int, g: Input, role: str, src: str,
                      snd: str, val: str, dst: str) -> None:
        """Statements mirroring ``Input.complete``: bind sender, bind
        value (in-place item surgery at the baked sorted index), then
        apply the update callable."""
        idx_map = self.home_idx if role == HOME else self.remote_idx
        cur = src
        binds = []
        if g.bind_sender is not None:
            binds.append((g.bind_sender, snd))
        if g.bind_value is not None:
            binds.append((g.bind_value, val))
        if binds:
            self.w(ind, f"it = {src}._items")
            for key, v in binds:
                i = idx_map.get(key)
                if i is None:
                    self.w(ind, f"_ke({key!r})")
                else:
                    self.w(ind, f"it = it[:{i}] + (({key!r}, {v}),)"
                                f" + it[{i + 1}:]")
            self.w(ind, f"{dst} = _env(it)")
            cur = dst
        if g.update is not None:
            self.w(ind, f"{dst} = {self.slot(g.update)}({cur})")
            cur = dst
        if cur != dst:
            self.w(ind, f"{dst} = {cur}")

    def emit_target(self, ind: int, g: Output, env: str) -> None:
        """Statements computing ``t`` (the remote id) with the exact
        interpreter error behaviour, plus the range check."""
        tgt = g.target
        assert tgt is not None
        if isinstance(tgt, VarTarget):
            self.w(ind, f"t = {self.ev(HOME, tgt.var, env)}")
            self.w(ind, "if not isinstance(t, int):")
            self.w(ind + 1, "raise SpecError(f\"output target variable "
                            f"{_fesc(repr(tgt.var))} holds {{t!r}}, "
                            "expected a remote id (int)\")")
        elif isinstance(tgt, ConstTarget):
            self.w(ind, f"t = {tgt.remote}")
        else:
            self.w(ind, f"t = int({self.slot(tgt.expr)}({env}))")
        desc = _fesc(g.describe())
        self.w(ind, "if not 0 <= t < n_remotes:")
        self.w(ind + 1, f"raise SemanticsError(f\"home output {desc} "
                        "targets r{t}\")")

    # -- per-state handlers ------------------------------------------------

    def emit_home_req(self, sid: int, sdef: StateDef, lean: bool) -> None:
        L = "l" if lean else ""
        w = self.w
        outputs = sdef.outputs
        w(1, f"def _hq{sid}{L}(ch, home, remotes, i, msg):")
        w(2, "entry = _buf(i, msg.msg, msg.payload, False)")
        w(2, "buffer = home.buffer")
        if outputs:
            w(2, "if home.mode == \"trans\" and home.awaiting == i:")
            w(3, "po = home.pending_out")
            for gi in range(len(outputs)):
                spec = self.table.spec(HOME, sdef.name, gi)
                nidx = (gi + 1) % len(outputs)
                kw = "if" if gi == 0 else "elif"
                w(3, f"{kw} po == {gi}:")
                w(4, f"if {self.free_expr('buffer')} >= 1:")
                w(5, f"nh = _home({spec.rewind_to!r}, home.env, \"idle\", "
                     f"{nidx}, None, None, buffer + (entry,))")
                if lean:
                    w(5, "return (DEL_H[i], _async(nh, remotes, ch))")
                else:
                    w(5, "return _step(DEL_H[i], _async(nh, remotes, ch), "
                         "(), ())")
                if self.reserve_ack:
                    w(4, "raise SemanticsError(f\"ack-buffer reservation "
                         "violated: home is transient with a full buffer "
                         "({home.describe()})\")")
                else:
                    w(4, f"nh = _home({spec.rewind_to!r}, home.env, "
                         f"\"idle\", {nidx}, None, None, buffer)")
                    w(4, "ch = _push(ch, 2 * i, NACK_MSG)")
                    if lean:
                        w(4, "return (DEL_H[i], _async(nh, remotes, ch))")
                    else:
                        w(4, "return _step(DEL_H[i], "
                             "_async(nh, remotes, ch), (), (NACK_MSG,))")
            w(3, "raise SemanticsError(\"home has no pending output in "
                 "TRANS mode\")")
        # normal buffering path (T4-T6 / communication-state analogue)
        inputs = sdef.inputs
        if inputs and self.reserve_progress:
            w(2, "m = msg.msg")
            w(2, "v = msg.payload")
            w(2, "env = home.env")
            alts = []
            for g in inputs:
                acc = self.accepts(g, HOME, "env", "i", "v")
                alts.append(f"(m == {g.msg!r} and {acc})" if acc
                            else f"m == {g.msg!r}")
            w(2, "sat = " + " or ".join(alts))
        if self.reserve_progress:
            sat = "sat" if inputs else "False"
            w(2, f"res = 0 if {sat} else 1" if inputs else "res = 1")
        else:
            w(2, "res = 0")
        if self.reserve_ack:
            w(2, "if home.mode == \"trans\":")
            w(3, "res += 1")
        w(2, f"if {self.free_expr('buffer')} > res:")
        w(3, "nh = _home(home.state, home.env, home.mode, home.out_idx, "
             "home.awaiting, home.pending_out, buffer + (entry,))")
        if lean:
            w(3, "return (DEL_H[i], _async(nh, remotes, ch))")
        else:
            w(3, "return _step(DEL_H[i], _async(nh, remotes, ch), (), ())")
        w(2, "ch = _push(ch, 2 * i, NACK_MSG)")
        if lean:
            w(2, "return (DEL_H[i], _async(home, remotes, ch))")
        else:
            w(2, "return _step(DEL_H[i], _async(home, remotes, ch), (), "
                 "(NACK_MSG,))")
        w(0)

    def emit_home_trans(self, sid: int, sdef: StateDef, lean: bool) -> None:
        """ACK/NACK/REPL arriving at a transient home in this state."""
        L = "l" if lean else ""
        w = self.w
        outputs = sdef.outputs
        w(1, f"def _ht{sid}{L}(ch, home, remotes, i, msg, kind):")
        w(2, "env = home.env")
        w(2, "po = home.pending_out")
        for gi, g in enumerate(outputs):
            spec = self.table.spec(HOME, sdef.name, gi)
            nidx = (gi + 1) % len(outputs)
            kw = "if" if gi == 0 else "elif"
            w(2, f"{kw} po == {gi}:")
            w(3, "if kind == \"NACK\":")
            w(4, f"nh = _home({spec.rewind_to!r}, env, \"idle\", {nidx}, "
                 "None, None, home.buffer)")
            if lean:
                w(4, "return (DEL_H[i], _async(nh, remotes, ch))")
            else:
                w(4, "return _step(DEL_H[i], _async(nh, remotes, ch), "
                     "(), ())")
            if not lean:
                w(3, f"rp = {self.pay(g, 'env')}")
            w(3, "if kind == \"ACK\":")
            w(4, f"nh = _home({spec.forward_to!r}, {self.upd(g, 'env')}, "
                 "\"idle\", 0, None, None, home.buffer)")
            if lean:
                w(4, "return (DEL_H[i], _async(nh, remotes, ch))")
            else:
                w(4, "return _step(DEL_H[i], _async(nh, remotes, ch), "
                     f"(_rvz(\"h\", i, {g.msg!r}, rp),), ())")
            w(3, "if kind == \"REPL\":")
            self._emit_home_repl(4, g, spec, lean)
            w(3, "raise SemanticsError(f\"unknown message kind "
                 "{kind!r}\")")
        w(2, "raise SemanticsError(\"home has no pending output in "
             "TRANS mode\")")
        w(0)

    def _emit_home_repl(self, ind: int, g: Output, spec: TransitionSpec,
                        lean: bool) -> None:
        w = self.w
        unexpected = ("raise SemanticsError(f\"home got unexpected reply "
                      "{msg.describe()} while awaiting the reply to "
                      f"{_fesc(repr(g.msg))}\")")
        if spec.fused_reply is None:
            w(ind, unexpected)
            return
        fr = spec.fused_reply
        assert spec.reply_to is not None
        w(ind, f"if msg.msg != {fr!r}:")
        w(ind + 1, unexpected)
        w(ind, f"env2 = {self.upd(g, 'env')}")
        w(ind, "v = msg.payload")
        mid = self.protocol.home.state(spec.reply_to)
        candidates = [gg for gg in mid.inputs if gg.msg == fr]
        closed = False
        for ci, gg in enumerate(candidates):
            acc = self.accepts(gg, HOME, "env2", "i", "v")
            if not acc and ci == 0:
                # unconditional first candidate: always taken
                self.emit_complete(ind, gg, HOME, "env2", "i", "v", "env3")
                w(ind, f"nh = _home({gg.to!r}, env3, \"idle\", 0, None, "
                       "None, home.buffer)")
                closed = True
                break
            kw = "if" if ci == 0 else "elif"
            w(ind, f"{kw} {acc or 'True'}:")
            self.emit_complete(ind + 1, gg, HOME, "env2", "i", "v", "env3")
            w(ind + 1, f"nh = _home({gg.to!r}, env3, \"idle\", 0, None, "
                       "None, home.buffer)")
        nomatch = (f"raise SemanticsError(\"home: no input guard in state "
                   f"{_fesc(repr(spec.reply_to))} accepts the fused reply "
                   f"{_fesc(repr(fr))}\")")
        if not candidates:
            w(ind, nomatch)
            return
        if not closed:
            w(ind, "else:")
            w(ind + 1, nomatch)
        if lean:
            w(ind, "return (DEL_H[i], _async(nh, remotes, ch))")
        else:
            w(ind, "return _step(DEL_H[i], _async(nh, remotes, ch), "
                   f"(_rvz(\"h\", i, {g.msg!r}, rp), "
                   f"_rvz(i, \"h\", {fr!r}, v)), ())")

    def emit_home_dec(self, sid: int, sdef: StateDef, lean: bool) -> None:
        """The home's C1 / C2-or-reply decision (communication states)
        or its tau fan-out (internal states)."""
        L = "l" if lean else ""
        w = self.w
        w(1, f"def _hd{sid}{L}(state, home, remotes, out):")
        if sdef.is_terminal:
            w(2, "return")
            w(0)
            return
        w(2, "env = home.env")
        if not sdef.is_communication:
            for ti, tau in enumerate(sdef.taus):
                ind = 2
                if tau.cond is not None:
                    w(2, f"if {self.slot(tau.cond)}(env):")
                    ind = 3
                w(ind, f"nh = _home({tau.to!r}, {self.upd(tau, 'env')}, "
                       "\"idle\", 0, None, None, home.buffer)")
                if lean:
                    w(ind, f"out.append((HTAU_{sid}_{ti}, "
                           "_async(nh, remotes, state.channels)))")
                else:
                    w(ind, f"out.append(_step(HTAU_{sid}_{ti}, "
                           "_async(nh, remotes, state.channels), (), ()))")
            w(0)
            return
        w(2, "buffer = home.buffer")
        # C1: first satisfying buffered entry, first matching guard
        inputs = sdef.inputs
        if inputs:
            w(2, "for pos in range(len(buffer)):")
            w(3, "entry = buffer[pos]")
            w(3, "m = entry.msg")
            for g in inputs:
                acc = self.accepts(g, HOME, "env", "entry.sender",
                                   "entry.payload")
                test = f"m == {g.msg!r}" + (f" and {acc}" if acc else "")
                w(3, f"if {test}:")
                self.emit_complete(4, g, HOME, "env", "entry.sender",
                                   "entry.payload", "env2")
                w(4, "nb = buffer[:pos] + buffer[pos + 1:]")
                w(4, f"nh = _home({g.to!r}, env2, \"idle\", 0, None, None, "
                     "nb)")
                fused = g.msg in self.remote_fused
                w(4, "if entry.note:")
                if lean:
                    w(5, "out.append((_c1a(entry), "
                         "_async(nh, remotes, state.channels)))")
                else:
                    w(5, "out.append(_step(_c1a(entry), "
                         "_async(nh, remotes, state.channels), "
                         f"(_rvz(entry.sender, \"h\", {g.msg!r}, "
                         "entry.payload),), ()))")
                w(4, "else:")
                if fused:
                    if lean:
                        w(5, "out.append((_c1a(entry), "
                             "_async(nh, remotes, state.channels)))")
                    else:
                        w(5, "out.append(_step(_c1a(entry), "
                             "_async(nh, remotes, state.channels), (), ()))")
                else:
                    w(5, "ch = _push(state.channels, 2 * entry.sender, "
                         "ACK_MSG)")
                    if lean:
                        w(5, "out.append((_c1a(entry), "
                             "_async(nh, remotes, ch)))")
                    else:
                        w(5, "out.append(_step(_c1a(entry), "
                             "_async(nh, remotes, ch), (), (ACK_MSG,)))")
                w(4, "return")
        # C2-or-reply: cyclic scan from out_idx
        outputs = sdef.outputs
        if not outputs:
            w(2, "return")
            w(0)
            return
        n_out = len(outputs)
        if n_out == 1:
            self._emit_home_out_attempt(2, sid, sdef, 0, "return",
                                        "home.out_idx", lean)
        else:
            w(2, "oi = home.out_idx")
            w(2, f"for off in range({n_out}):")
            w(3, f"idx = (oi + off) % {n_out}")
            for gi in range(n_out):
                kw = "if" if gi == 0 else "elif"
                w(3, f"{kw} idx == {gi}:")
                self._emit_home_out_attempt(4, sid, sdef, gi, "continue",
                                            "oi", lean)
        w(0)

    def _emit_home_out_attempt(self, ind: int, sid: int, sdef: StateDef,
                               gi: int, bail: str, oi: str,
                               lean: bool) -> None:
        """One output guard's C2/REPLY attempt inside the cyclic scan.

        ``bail`` is how a disabled / condition-(c)-skipped guard yields
        to the next scan position ("continue" in a loop, "return" when
        the state has a single output guard).
        """
        w = self.w
        g = sdef.outputs[gi]
        spec = self.table.spec(HOME, sdef.name, gi)
        if g.cond is not None:
            w(ind, f"if not {self.slot(g.cond)}(env):")
            w(ind + 1, bail)
        self.emit_target(ind, g, "env")
        if spec.kind == KIND_REPLY:
            w(ind, f"pl = {self.pay(g, 'env')}")
            w(ind, f"rm = _msg(\"REPL\", {g.msg!r}, pl)")
            w(ind, "ch = _push(state.channels, 2 * t, rm)")
            w(ind, f"nh = _home({g.to!r}, {self.upd(g, 'env')}, \"idle\", "
                   "0, None, None, buffer)")
            if lean:
                w(ind, f"out.append((HA_{sid}_{gi}[t], "
                       "_async(nh, remotes, ch)))")
            else:
                w(ind, f"out.append(_step(HA_{sid}_{gi}[t], "
                       "_async(nh, remotes, ch), (), (rm,)))")
            w(ind, "return")
            return
        if spec.kind == KIND_NOTE:
            w(ind, "raise SemanticsError(\"fire-and-forget home outputs "
                   "are not supported\")")
            return
        # condition (c): skip a target that is itself requesting us
        w(ind, "ok = True")
        w(ind, "for e in buffer:")
        w(ind + 1, "if e.sender == t and not e.note:")
        w(ind + 2, "ok = False")
        w(ind + 2, "break")
        w(ind, "if not ok:")
        w(ind + 1, bail)
        w(ind, "ch = state.channels")
        w(ind, "nb = buffer")
        w(ind, "vn = None")
        w(ind, f"if {self.free_expr('buffer')} < 1:")
        w(ind + 1, "vp = 0")
        w(ind + 1, "nn = len(buffer)")
        w(ind + 1, "while vp < nn and buffer[vp].note:")
        w(ind + 2, "vp += 1")
        w(ind + 1, "if vp == nn:")
        w(ind + 2, "return")
        w(ind + 1, "ch = _push(ch, 2 * buffer[vp].sender, NACK_MSG)")
        w(ind + 1, "vn = NACK_MSG")
        w(ind + 1, "nb = buffer[:vp] + buffer[vp + 1:]")
        w(ind, f"rq = _msg(\"REQ\", {g.msg!r}, {self.pay(g, 'env')})")
        w(ind, "ch = _push(ch, 2 * t, rq)")
        w(ind, f"nh = _home({sdef.name!r}, env, \"trans\", {oi}, t, {gi}, "
               "nb)")
        if lean:
            w(ind, f"out.append((HA_{sid}_{gi}[t], "
                   "_async(nh, remotes, ch)))")
        else:
            w(ind, f"out.append(_step(HA_{sid}_{gi}[t], "
                   "_async(nh, remotes, ch), (), "
                   "(rq,) if vn is None else (vn, rq)))")
        w(ind, "return")

    def emit_remote_trans(self, sid: int, sdef: StateDef,
                          lean: bool) -> None:
        """ACK/NACK/REPL arriving at a transient remote in this state."""
        L = "l" if lean else ""
        w = self.w
        g = sdef.outputs[0]
        spec = self.table.spec(REMOTE, sdef.name, 0)
        w(1, f"def _rt{sid}{L}(ch, home, remotes, i, msg, kind):")
        w(2, "node = remotes[i]")
        w(2, "env = node.env")
        if not lean:
            w(2, f"rp = {self.pay(g, 'env')}")
        w(2, "if kind == \"NACK\":")
        if lean:
            w(3, f"rq = _msg(\"REQ\", {g.msg!r}, {self.pay(g, 'env')})")
        else:
            w(3, f"rq = _msg(\"REQ\", {g.msg!r}, rp)")
        w(3, "ch = _push(ch, 2 * i + 1, rq)")
        if lean:
            w(3, "return (DEL_R[i], _async(home, remotes, ch))")
        else:
            w(3, "return _step(DEL_R[i], _async(home, remotes, ch), (), "
                 "(rq,))")
        w(2, "if kind == \"ACK\":")
        w(3, f"nn = _remote({spec.forward_to!r}, {self.upd(g, 'env')}, "
             "\"idle\", None, None)")
        if lean:
            w(3, "return (DEL_R[i], _async(home, "
                 "remotes[:i] + (nn,) + remotes[i + 1:], ch))")
        else:
            w(3, "return _step(DEL_R[i], _async(home, "
                 "remotes[:i] + (nn,) + remotes[i + 1:], ch), "
                 f"(_rvz(i, \"h\", {g.msg!r}, rp),), ())")
        w(2, "if kind == \"REPL\":")
        self._emit_remote_repl(3, sid, g, spec, lean)
        w(2, "raise SemanticsError(f\"unknown message kind {kind!r}\")")
        w(0)

    def _emit_remote_repl(self, ind: int, sid: int, g: Output,
                          spec: TransitionSpec, lean: bool) -> None:
        w = self.w
        unexpected = ("raise SemanticsError(f\"remote r{i} got unexpected "
                      "reply {msg.describe()} while awaiting the reply to "
                      f"{_fesc(repr(g.msg))}\")")
        if spec.fused_reply is None:
            w(ind, unexpected)
            return
        fr = spec.fused_reply
        assert spec.reply_to is not None
        w(ind, f"if msg.msg != {fr!r}:")
        w(ind + 1, unexpected)
        w(ind, f"env2 = {self.upd(g, 'env')}")
        w(ind, "v = msg.payload")
        mid = self.protocol.remote.state(spec.reply_to)
        candidates = [gg for gg in mid.inputs if gg.msg == fr]
        nomatch = (f"raise SemanticsError(f\"remote r{{i}}: no input guard "
                   f"in state {_fesc(repr(spec.reply_to))} accepts the "
                   f"fused reply {_fesc(repr(fr))}\")")
        closed = False
        for ci, gg in enumerate(candidates):
            acc = self.accepts(gg, REMOTE, "env2", "-1", "v")
            if not acc and ci == 0:
                self.emit_complete(ind, gg, REMOTE, "env2", "-1", "v",
                                   "env3")
                w(ind, f"nn = _remote({gg.to!r}, env3, \"idle\", None, "
                       "None)")
                closed = True
                break
            kw = "if" if ci == 0 else "elif"
            w(ind, f"{kw} {acc or 'True'}:")
            self.emit_complete(ind + 1, gg, REMOTE, "env2", "-1", "v",
                               "env3")
            w(ind + 1, f"nn = _remote({gg.to!r}, env3, \"idle\", None, "
                       "None)")
        if not candidates:
            w(ind, nomatch)
            return
        if not closed:
            w(ind, "else:")
            w(ind + 1, nomatch)
        if lean:
            w(ind, "return (DEL_R[i], _async(home, "
                   "remotes[:i] + (nn,) + remotes[i + 1:], ch))")
        else:
            w(ind, "return _step(DEL_R[i], _async(home, "
                   "remotes[:i] + (nn,) + remotes[i + 1:], ch), "
                   f"(_rvz(i, \"h\", {g.msg!r}, rp), "
                   f"_rvz(\"h\", i, {fr!r}, v)), ())")

    def emit_remote_step(self, sid: int, sdef: StateDef,
                         lean: bool) -> None:
        """Idle-remote behaviour: send (active), C3 + taus (passive),
        taus only (internal)."""
        L = "l" if lean else ""
        w = self.w
        w(1, f"def _rs{sid}{L}(state, home, remotes, node, i, out):")
        if sdef.is_terminal:
            w(2, "return")
            w(0)
            return
        w(2, "env = node.env")
        outputs = sdef.outputs
        if outputs:
            g = outputs[0]
            spec = self.table.spec(REMOTE, sdef.name, 0)
            ind = 2
            if g.cond is not None:
                w(2, f"if not {self.slot(g.cond)}(env):")
                w(3, "return")
            w(ind, f"pl = {self.pay(g, 'env')}")
            if spec.kind == KIND_NOTE:
                w(ind, f"nm = _msg(\"NOTE\", {g.msg!r}, pl)")
                w(ind, "ch = _push(state.channels, 2 * i + 1, nm)")
                w(ind, f"nn = _remote({spec.forward_to!r}, "
                       f"{self.upd(g, 'env')}, \"idle\", None, node.buf)")
                tail = "(), (nm,)"
            else:
                w(ind, f"rq = _msg(\"REQ\", {g.msg!r}, pl)")
                w(ind, "ch = _push(state.channels, 2 * i + 1, rq)")
                w(ind, f"nn = _remote({sdef.name!r}, env, \"trans\", 0, "
                       "None)")
                tail = "(), (rq,)"
            if lean:
                w(ind, "out.append((R_SEND[i], _async(home, "
                       "remotes[:i] + (nn,) + remotes[i + 1:], ch)))")
            else:
                w(ind, "out.append(_step(R_SEND[i], _async(home, "
                       f"remotes[:i] + (nn,) + remotes[i + 1:], ch), "
                       f"{tail}))")
            w(0)
            return
        if sdef.is_communication:
            w(2, "b = node.buf")
            w(2, "if b is not None:")
            self._emit_remote_c3(3, sid, sdef, lean)
        for ti, tau in enumerate(sdef.taus):
            ind = 2
            if tau.cond is not None:
                w(2, f"if {self.slot(tau.cond)}(env):")
                ind = 3
            w(ind, f"nn = _remote({tau.to!r}, {self.upd(tau, 'env')}, "
                   "node.mode, node.pending_out, node.buf)")
            if lean:
                w(ind, f"out.append((RTAU_{sid}_{ti}[i], _async(home, "
                       "remotes[:i] + (nn,) + remotes[i + 1:], "
                       "state.channels)))")
            else:
                w(ind, f"out.append(_step(RTAU_{sid}_{ti}[i], _async(home, "
                       "remotes[:i] + (nn,) + remotes[i + 1:], "
                       "state.channels), (), ()))")
        w(0)

    def _emit_remote_c3(self, ind: int, sid: int, sdef: StateDef,
                        lean: bool) -> None:
        w = self.w
        w(ind, "m = b.msg")
        w(ind, "v = b.payload")
        first = True
        for g in sdef.inputs:
            acc = self.accepts(g, REMOTE, "env", "-1", "v")
            test = f"m == {g.msg!r}" + (f" and {acc}" if acc else "")
            w(ind, f"{'if' if first else 'elif'} {test}:")
            first = False
            self.emit_complete(ind + 1, g, REMOTE, "env", "-1", "v", "env2")
            if g.msg in self.home_fused:
                self._emit_fused_response(ind + 1, g, lean)
            else:
                w(ind + 1, "ch = _push(state.channels, 2 * i + 1, "
                           "ACK_MSG)")
                w(ind + 1, f"nn = _remote({g.to!r}, env2, \"idle\", None, "
                           "None)")
                if lean:
                    w(ind + 1, "out.append((R_C3[i], _async(home, "
                               "remotes[:i] + (nn,) + remotes[i + 1:], "
                               "ch)))")
                else:
                    w(ind + 1, "out.append(_step(R_C3[i], _async(home, "
                               "remotes[:i] + (nn,) + remotes[i + 1:], "
                               f"ch), (_rvz(\"h\", i, {g.msg!r}, v),), "
                               "(ACK_MSG,)))")
        w(ind, "else:" if not first else "if True:")
        w(ind + 1, "ch = _push(state.channels, 2 * i + 1, NACK_MSG)")
        w(ind + 1, f"nn = _remote({sdef.name!r}, env, \"idle\", "
                   "node.pending_out, None)")
        if lean:
            w(ind + 1, "out.append((R_C3[i], _async(home, "
                       "remotes[:i] + (nn,) + remotes[i + 1:], ch)))")
        else:
            w(ind + 1, "out.append(_step(R_C3[i], _async(home, "
                       "remotes[:i] + (nn,) + remotes[i + 1:], ch), (), "
                       "(NACK_MSG,)))")

    def _emit_fused_response(self, ind: int, g: Input, lean: bool) -> None:
        """Statically unrolled ``_remote_fused_response`` tau chain."""
        w = self.w
        proc = self.protocol.remote
        cursor = proc.state(g.to)
        chain: list[Tau] = []
        hops = 0
        while cursor.is_internal and len(cursor.guards) == 1:
            tau = cursor.taus[0]
            chain.append(tau)
            cursor = proc.state(tau.to)
            hops += 1
            if hops > len(proc.states):
                w(ind, "raise SemanticsError(\"fused response stuck in "
                       "internal loop\")")
                return
        reply_msg = self.table.reply_of.get(g.msg)
        guards = cursor.guards
        if (reply_msg is None or len(guards) != 1
                or not isinstance(guards[0], Output)
                or guards[0].msg != reply_msg):
            w(ind, "raise SemanticsError(\"fused response: expected sole "
                   f"output {_fesc(repr(reply_msg))} in state "
                   f"{_fesc(repr(cursor.name))}\")")
            return
        for tau in chain:
            if tau.cond is not None:
                w(ind, f"if not {self.slot(tau.cond)}(env2):")
                w(ind + 1, "raise SemanticsError(\"fused-response local "
                           f"action {_fesc(tau.describe())} disabled\")")
            if tau.update is not None:
                w(ind, f"env2 = {self.slot(tau.update)}(env2)")
        og = guards[0]
        w(ind, f"pl = {self.pay(og, 'env2')}")
        w(ind, f"rm = _msg(\"REPL\", {reply_msg!r}, pl)")
        w(ind, "ch = _push(state.channels, 2 * i + 1, rm)")
        w(ind, f"nn = _remote({og.to!r}, {self.upd(og, 'env2')}, \"idle\", "
               "None, None)")
        if lean:
            w(ind, "out.append((R_C3[i], _async(home, "
                   "remotes[:i] + (nn,) + remotes[i + 1:], ch)))")
        else:
            w(ind, "out.append(_step(R_C3[i], _async(home, "
                   "remotes[:i] + (nn,) + remotes[i + 1:], ch), (), "
                   "(rm,)))")

    # -- whole-module assembly ---------------------------------------------

    def emit_actions(self) -> None:
        """Preallocated per-state action objects (frozen-dataclass
        construction is too slow for the hot path)."""
        w = self.w
        for sid, name in enumerate(self.home_states):
            sdef = self.protocol.home.states[name]
            for gi, g in enumerate(sdef.outputs):
                spec = self.table.spec(HOME, name, gi)
                if spec.kind == KIND_NOTE:
                    continue
                kind = "REPLY" if spec.kind == KIND_REPLY else "C2"
                w(1, f"HA_{sid}_{gi} = tuple(HomeStep({kind!r}, "
                     f"f\"{_fesc(g.msg)}→r{{t}}\") "
                     "for t in range(n_remotes))")
            for ti, tau in enumerate(sdef.taus):
                if not sdef.is_communication:
                    w(1, f"HTAU_{sid}_{ti} = HomeTau({tau.label!r})")
        for sid, name in enumerate(self.remote_states):
            sdef = self.protocol.remote.states[name]
            if sdef.outputs:
                continue
            for ti, tau in enumerate(sdef.taus):
                w(1, f"RTAU_{sid}_{ti} = tuple(RemoteTau(i, "
                     f"{tau.label!r}) for i in range(n_remotes))")
        w(0)

    def emit_dispatch(self) -> None:
        w = self.w
        home = self.protocol.home
        remote = self.protocol.remote

        def table_lines(var: str, names: list[str], fn: str, suffix: str,
                        keep: Callable[[StateDef], bool]) -> None:
            w(1, f"{var} = {{")
            for sid, name in enumerate(names):
                proc = home if fn.startswith("_h") else remote
                if keep(proc.states[name]):
                    w(2, f"{name!r}: {fn}{sid}{suffix},")
            w(1, "}")

        always = (lambda s: True)
        has_out = (lambda s: bool(s.outputs))
        for suffix, tag in (("", ""), ("l", "L")):
            table_lines(f"H_REQ{tag}", self.home_states, "_hq", suffix,
                        always)
            table_lines(f"H_T{tag}", self.home_states, "_ht", suffix,
                        has_out)
            table_lines(f"H_DEC{tag}", self.home_states, "_hd", suffix,
                        always)
            table_lines(f"R_T{tag}", self.remote_states, "_rt", suffix,
                        has_out)
            table_lines(f"R_STEP{tag}", self.remote_states, "_rs", suffix,
                        always)
        w(0)

    def generate(self) -> str:
        name = self.protocol.name
        fp = protocol_fingerprint(self.refined, self.table)
        header = (
            f'"""Specialized step functions for protocol {name!r}.\n'
            "\n"
            f"Generated by repro.refine.compiled (codegen v"
            f"{CODEGEN_VERSION}); fingerprint {fp}.  Structure-only: all\n"
            "user callables arrive through the funcs tuple at load time.\n"
            "Do not edit.\n"
            '"""\n'
        )
        self.lines = []
        # handlers first (emitted into self.lines), then assembled
        for sid, sname in enumerate(self.home_states):
            sdef = self.protocol.home.states[sname]
            for lean in (False, True):
                self.emit_home_req(sid, sdef, lean)
                if sdef.outputs:
                    self.emit_home_trans(sid, sdef, lean)
                self.emit_home_dec(sid, sdef, lean)
        for sid, sname in enumerate(self.remote_states):
            sdef = self.protocol.remote.states[sname]
            for lean in (False, True):
                if sdef.outputs:
                    self.emit_remote_trans(sid, sdef, lean)
                self.emit_remote_step(sid, sdef, lean)
        handlers = "\n".join(self.lines)
        self.lines = []
        self.emit_actions()
        actions = "\n".join(self.lines)
        self.lines = []
        self.emit_dispatch()
        dispatch = "\n".join(self.lines)
        unpack = "".join(f"    F{j} = funcs[{j}]\n"
                         for j in range(len(self.slots)))
        return (header + _PRELUDE + unpack + _CTORS + "\n" + actions
                + handlers + _DELIVER + "\n" + dispatch + _DRIVERS)


def _generate(refined: RefinedProtocol,
              table: StepTable) -> tuple[str, tuple[Callable[..., Any], ...]]:
    gen = _Gen(refined, table)
    source = gen.generate()
    return source, tuple(gen.slots)


def generate_source(refined: RefinedProtocol, table: StepTable) -> str:
    """The generated module source (for inspection, docs and tests)."""
    return _generate(refined, table)[0]


# ---------------------------------------------------------------------------
# compilation + caching
# ---------------------------------------------------------------------------


@dataclass
class CompiledEngine:
    """Bound step functions for one (protocol, table, n_remotes)."""

    fingerprint: str
    source_path: Optional[Path]
    steps: Callable[[Any], list[Any]]
    successors: Callable[[Any], list[tuple[Any, Any]]]


#: compiled code objects per fingerprint (per-process)
_CODE_MEMO: dict[str, Any] = {}
#: exec'd module namespaces per fingerprint (per-process)
_NS_MEMO: dict[str, dict[str, Any]] = {}


def _cache_dir() -> Optional[Path]:
    env = os.environ.get("REPRO_COMPILED_CACHE")
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro" / "compiled"


def _disk_cache(name: str, fp: str, source: str) -> tuple[Optional[Path],
                                                          str]:
    """Persist/load the generated source; returns (path, source).

    The cache is keyed by the structural fingerprint, so a hit is by
    construction byte-identical to what we would regenerate; reading it
    back keeps tracebacks pointing at a real file.  Any filesystem
    trouble degrades to in-memory compilation.
    """
    directory = _cache_dir()
    if directory is None:
        return None, source
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    path = directory / f"{safe}-{fp}.py"
    try:
        if path.exists():
            return path, path.read_text(encoding="utf-8")
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(source)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path, source
    except OSError:
        return None, source


def compile_system(refined: RefinedProtocol, table: StepTable,
                   n_remotes: int) -> CompiledEngine:
    """Compile (or load from cache) the specialized engine.

    Deterministic: the same protocol structure + table + plan always
    yields the same module source, so spawn workers rebuilding a
    :class:`~repro.check.spec.SystemSpec` reconstruct bit-identical
    step functions (callables are re-enumerated in the same walk).
    """
    source, funcs = _generate(refined, table)
    fp = protocol_fingerprint(refined, table)
    ns = _NS_MEMO.get(fp)
    path: Optional[Path] = None
    if ns is None:
        path, source = _disk_cache(refined.protocol.name, fp, source)
        code = _CODE_MEMO.get(fp)
        if code is None:
            filename = str(path) if path is not None else f"<compiled {fp}>"
            code = compile(source, filename, "exec")
            _CODE_MEMO[fp] = code
        ns = {}
        exec(code, ns)  # noqa: S102 - our own generated, cached source
        _NS_MEMO[fp] = ns
    steps, successors = ns["make_steps"](n_remotes, funcs)
    return CompiledEngine(fingerprint=fp, source_path=path, steps=steps,
                          successors=successors)
