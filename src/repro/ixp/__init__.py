"""IXP model: members, route server, peering fabric."""

from .fabric import IxpFabric, build_ixp
from .members import Member, PORT_CLASSES, synthesize_members
from .route_server import ExportPolicy, RouteServer

__all__ = [
    "ExportPolicy",
    "IxpFabric",
    "Member",
    "PORT_CLASSES",
    "RouteServer",
    "build_ixp",
    "synthesize_members",
]
