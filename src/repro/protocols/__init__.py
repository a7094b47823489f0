"""Protocol stacks: TCP baseline and the INIC custom protocol."""

from .base import Mailbox, MessageView, choose_quantum, next_message_id
from .inicproto import CreditGate, INICProtoConfig, TransferPlan
from .tcp import TCPConfig, TCPStack, TCPStats

__all__ = [
    "CreditGate",
    "INICProtoConfig",
    "Mailbox",
    "MessageView",
    "TCPConfig",
    "TCPStack",
    "TCPStats",
    "TransferPlan",
    "choose_quantum",
    "next_message_id",
]
