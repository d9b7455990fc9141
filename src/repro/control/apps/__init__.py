"""Policy applications for the Horse controller."""

from .app_peering import APP_PORTS, AppPeeringApp, PeeringRule, app_port
from .blackhole import BlackholeApp
from .firewall import AclRule, FirewallApp, allow, deny
from .l2_learning import L2LearningApp
from .load_balancer import EcmpLoadBalancerApp, ReactiveLoadBalancerApp
from .path_protection import PathProtectionApp
from .rate_limiter import RateLimit, RateLimiterApp
from .shortest_path import ShortestPathApp
from .source_routing import SourceRoute, SourceRoutingApp

__all__ = [
    "APP_PORTS",
    "AclRule",
    "AppPeeringApp",
    "BlackholeApp",
    "EcmpLoadBalancerApp",
    "FirewallApp",
    "L2LearningApp",
    "PathProtectionApp",
    "PeeringRule",
    "RateLimit",
    "RateLimiterApp",
    "ReactiveLoadBalancerApp",
    "ShortestPathApp",
    "SourceRoute",
    "SourceRoutingApp",
    "allow",
    "app_port",
    "deny",
]
