"""The semantics' value types hold their fields and their declared memos.

Every frozen dataclass under ``repro.semantics`` is slotted: no instance
dict, so nothing can add an attribute later, and each memo it keeps is a
field declared by :func:`repro.semantics.state.memo` — outside ``==``,
``repr`` and ``replace``, so a replaced copy starts with every memo
empty.
"""

from dataclasses import fields, replace

import pytest

from repro.csp.env import Env
from repro.semantics.asynchronous import (
    AsyncState,
    BufEntry,
    DeliverToHome,
    DeliverToRemote,
    HomeNode,
    HomeStep,
    HomeTau,
    RemoteC3,
    RemoteNode,
    RemoteSend,
    RemoteTau,
    Step,
    StepFootprint,
)
from repro.semantics.network import NACK, REQ, Channels, Msg
from repro.semantics.rendezvous import RendezvousStep, TauStep
from repro.semantics.state import HOME_ID, ProcState, RvState


def _async_state():
    entry = BufEntry(sender=1, msg="req", payload=3)
    home = HomeNode(state="h1", env=Env({"o": 1}), buffer=(entry,))
    remote = RemoteNode(state="r1", env=Env(), buf=BufEntry(HOME_ID, "inv"))
    channels = Channels(queues=((Msg(REQ, "req", 3),), (), (Msg(NACK),), ()))
    return AsyncState(home=home, remotes=(remote, remote), channels=channels)


#: one equal-valued instance per call, for every value type
EXAMPLES = {
    BufEntry: lambda: BufEntry(sender=0, msg="req", payload=2, note=True),
    HomeNode: lambda: _async_state().home,
    RemoteNode: lambda: _async_state().remotes[0],
    AsyncState: _async_state,
    Step: lambda: Step(action=DeliverToHome(0), state=_async_state(),
                       completes=(RendezvousStep(0, HOME_ID, "req"),),
                       sends=(Msg(NACK),)),
    StepFootprint: lambda: StepFootprint(
        owner=0, writes=frozenset({("r", 0, "buf")}), pop=(0, REQ),
        pushes=(1,)),
    DeliverToHome: lambda: DeliverToHome(1),
    DeliverToRemote: lambda: DeliverToRemote(1),
    HomeStep: lambda: HomeStep(kind="C2", detail="inv→r1"),
    HomeTau: lambda: HomeTau(label="evict"),
    RemoteSend: lambda: RemoteSend(0),
    RemoteC3: lambda: RemoteC3(0),
    RemoteTau: lambda: RemoteTau(remote=0, label="drop"),
    ProcState: lambda: ProcState("s", Env({"o": None})),
    RvState: lambda: RvState(home=ProcState("h", Env({"o": 1})),
                             remotes=(ProcState("r", Env()),) * 2),
    Msg: lambda: Msg(REQ, "req", 3),
    Channels: lambda: _async_state().channels,
    TauStep: lambda: TauStep(proc=HOME_ID, label="evict"),
    RendezvousStep: lambda: RendezvousStep(active=1, passive=HOME_ID,
                                           msg="req", payload=4),
}


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_slotted_and_memos_invisible(cls):
    make = EXAMPLES[cls]
    obj = make()
    assert type(obj) is cls
    assert not hasattr(obj, "__dict__") and "__dict__" not in dir(cls)
    with pytest.raises(AttributeError):
        object.__setattr__(obj, "_key_cache", ())  # nothing added later
    memos = [f for f in fields(cls) if not f.compare]
    for f in memos:
        # declared by the one helper: empty, and outside init and repr
        assert f.name.endswith("_cache") and f.default is None
        assert not f.init and not f.repr
        assert getattr(obj, f.name) is None
        object.__setattr__(obj, f.name, 12345)  # a memo, filled wrongly
    fresh = make()
    assert obj == fresh and repr(obj) == repr(fresh)
    copy = replace(obj)
    assert copy == obj
    assert all(getattr(copy, f.name) is None for f in memos)


def test_every_memo_is_declared():
    declared = {cls.__name__: sorted(f.name for f in fields(cls)
                                     if not f.compare)
                for cls in EXAMPLES}
    assert {name: memos for name, memos in declared.items() if memos} == {
        "HomeNode": ["_digest_cache", "_hash_cache"],
        "RemoteNode": ["_digest_cache", "_hash_cache", "_sym_cache"],
        "AsyncState": ["_hash_cache"],
        "ProcState": ["_sym_cache"],
        "RvState": ["_hash_cache"],
        "Msg": ["_desc_cache", "_hash_cache"],
        "Channels": ["_hash_cache"],
    }
