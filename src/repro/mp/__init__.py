"""Message-passing substrate: network, register emulation, ST87 broadcast.

Realizes the paper's closing observation: everything it builds from
SWMR registers also exists over message passing with ``n > 3f``.
"""

from repro.mp.adapter import (
    declare_registers,
    translate,
    translated_help,
    translated_op,
)
from repro.mp.authenticated_broadcast import AuthenticatedBroadcast
from repro.mp.network import Network, RandomDelayNetwork, ScriptedNetwork
from repro.mp.replica import EmulatedRegisterSpec, ReplicaState
from repro.mp.swmr_emulation import RegisterEmulation

__all__ = [
    "AuthenticatedBroadcast",
    "EmulatedRegisterSpec",
    "Network",
    "RandomDelayNetwork",
    "RegisterEmulation",
    "ReplicaState",
    "ScriptedNetwork",
    "declare_registers",
    "translate",
    "translated_help",
    "translated_op",
]
