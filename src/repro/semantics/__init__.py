"""Operational semantics: rendezvous level and asynchronous (refined) level."""

from .asynchronous import AsyncState, AsyncSystem
from .network import ACK, NACK, NOTE, REPL, REQ, Channels, Msg
from .rendezvous import RendezvousStep, RendezvousSystem, TauStep
from .state import HOME_ID, ProcState, RvState

__all__ = [
    "ACK", "AsyncState", "AsyncSystem", "Channels", "HOME_ID", "Msg",
    "NACK", "NOTE", "ProcState", "REPL", "REQ", "RendezvousStep",
    "RendezvousSystem", "RvState", "TauStep",
]
