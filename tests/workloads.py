"""Shared workload builders for engine tests.

One `make_flow` serves the flow-level, packet-level, and hybrid test
modules, so all three engines are exercised with identically-built
flows (same headers, same defaults) — a prerequisite for the
differential suites under tests/diff/.  `churn_faults` draws link
churn as a scenario document's ``faults`` list, and `port_status_log`
records the ``PortStatus`` messages a run's controller receives.
"""

from repro.flowsim import Flow
from repro.openflow.headers import tcp_flow, udp_flow


def make_flow(topo, src, dst, demand, size=None, duration=None, start=0.0,
              sport=1000, dport=80, elastic=True, weight=1.0):
    """A flow between two hosts with fully-populated L2-L4 headers."""
    src_h, dst_h = topo.host(src), topo.host(dst)
    builder = tcp_flow if elastic else udp_flow
    return Flow(
        headers=builder(src_h.ip, dst_h.ip, sport, dport,
                        eth_src=src_h.mac, eth_dst=dst_h.mac),
        src=src,
        dst=dst,
        demand_bps=demand,
        size_bytes=size,
        duration_s=duration,
        start_time=start,
        elastic=elastic,
        weight=weight,
    )


def churn_faults(rng, links, mtbf_s, mttr_s, horizon_s):
    """A ``faults`` list of renewal churn, sorted by instant: each link
    fails after an exponential time to failure (mean ``mtbf_s``, counted
    from when it is up) and is repaired an exponential time to repair
    (mean ``mttr_s``) later; no failure is drawn past ``horizon_s``."""
    faults = []
    for a, b in links:
        at = 0.0
        while True:
            at += rng.expovariate(1.0 / mtbf_s)
            if at > horizon_s:
                break
            faults.append({"at": at, "link": [a, b], "up": False})
            at += rng.expovariate(1.0 / mttr_s)
            faults.append({"at": at, "link": [a, b], "up": True})
    return sorted(faults, key=lambda fault: fault["at"])


def port_status_log(horse):
    """``(time, dpid, port_no, link_up)`` of every ``PortStatus`` the
    controller of ``horse`` receives from now on (call before the run;
    the list fills as it goes)."""
    log = []
    deliver = horse.controller.on_port_status

    def record(message):
        log.append((horse.sim.now, message.dpid, message.port_no, message.link_up))
        deliver(message)

    horse.controller.on_port_status = record
    return log
