"""Peer-to-peer application layer: overlay maintenance and replicated databases."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .anti_entropy import AntiEntropyReport, AntiEntropySession
    from .gossip_rules import (
        Algorithm1Rule,
        Algorithm2Rule,
        GossipRule,
        PushPullRule,
        PushRule,
        build_gossip_rule,
    )
    from .overlay import Overlay
    from .peer import Peer, Update
    from .replicated_db import ReplicatedDatabase, ReplicationReport, UpdateWorkload

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "Peer",
    "Update",
    "Overlay",
    "GossipRule",
    "PushRule",
    "PushPullRule",
    "Algorithm1Rule",
    "Algorithm2Rule",
    "build_gossip_rule",
    "ReplicatedDatabase",
    "ReplicationReport",
    "UpdateWorkload",
    "AntiEntropySession",
    "AntiEntropyReport",
]
