"""Scenario-level fuzzing: small schema-v1 flow documents nobody wrote
by hand, run end to end through ``run_scenario``.

A case is one plain document: a linear or leaf-spine fabric of at most
six switches under proactive forwarding, a link-sampling interval drawn
so that reads land at arbitrary instants, its flows inline as ``trace``
traffic (sized and constant-rate, uncapped demands among them), its
link flaps as ``faults``, and the mid-run instant of its checkpoint
under the comment key ``_checkpoint_at``.  Each case is checked for

* byte accounting: a flow never delivers more than it sent, an elastic
  flow drops nothing, a completed sized flow sent its size, a flow
  that kept one delivered route delivered every byte it sent, and a
  flow that never crossed a live link sent nothing.  The fluid
  engine's ``bytes_dropped`` is the offered excess of an inelastic
  flow, never sent, so the packet engine's ``sent == delivered +
  dropped`` reads this way here;
* port accounting: per link direction, the tx bytes and packets of its
  source port and the rx ones of its far end are the sums of what the
  flows paid while their routes crossed it (:class:`PaidWatermarks`);
* the max-min certificate after every resolve (the suite's autouse
  fixture);
* one ``run_digest`` across the product and four reference paths: link
  loads summed after every resolve (``eager_loads``), every flow
  walking the pipelines (``without_route_cache``), route counters and
  completion timers applied eagerly (``eager_apply``), and a run resumed
  from a checkpoint taken mid-run at ``_checkpoint_at``.

A case that fails is kept, as the document hypothesis prints, under
``examples/scenarios/regressions/`` with its digest in that directory's
``GOLDEN_DIGESTS.json``: :func:`test_regression_cases` replays it here,
and ``repro run FILE --check-digest`` and the golden tests run it like
any shipped scenario.
"""

import collections
import dataclasses
import glob
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Horse
from repro.runtime.scenario import build_topology, run_scenario
from repro.stats.export import run_digest
from repro.traffic.trace_io import flow_to_record

from workloads import make_flow

from .reference import eager_apply, eager_loads, without_route_cache

REGRESSIONS = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios", "regressions"
)

HORIZON_S = 3.0
_DEMANDS = (1e6, 8e6, 40e6, 100e6, 1e9, math.inf)


@st.composite
def _topologies(draw):
    if draw(st.booleans()):
        switches = draw(st.integers(1, 6))
        hosts = draw(st.integers(1 if switches > 1 else 2, 2))
        return {"kind": "linear", "switches": switches, "hosts_per_switch": hosts}
    leaves = draw(st.integers(2, 4))
    return {
        "kind": "leaf-spine",
        "leaves": leaves,
        "spines": draw(st.integers(1, min(2, 6 - leaves))),
        "hosts_per_leaf": draw(st.integers(1, 2)),
    }


@st.composite
def cases(draw):
    """One fuzz case: a document with its flows and link flaps."""
    topology = draw(_topologies())
    policies = {"forwarding": {
        "mode": "shortest-path",
        "match_on": draw(st.sampled_from(("eth_dst", "ip_dst"))),
    }}
    if draw(st.booleans()):
        policies["load_balancing"] = {"mode": "ecmp"}
    topo, _ = build_topology(topology)
    hosts = [host.name for host in topo.hosts]
    flows = []
    for sport in range(draw(st.integers(1, 10))):
        src, dst = draw(st.lists(st.sampled_from(hosts), min_size=2, max_size=2,
                                 unique=True))
        flow = {"sport": 1000 + sport,
                "demand": draw(st.sampled_from(_DEMANDS)),
                "start": draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.7))),
                "weight": draw(st.sampled_from((1.0, 1.0, 2.0, 0.5)))}
        if draw(st.booleans()):
            flow["size"] = draw(st.sampled_from((10_000, 200_000, 3_000_000)))
        else:  # constant rate: inelastic, for a duration
            flow.update(elastic=False, duration=draw(st.sampled_from((0.3, 1.0, 2.5))))
        flows.append(flow_to_record(make_flow(topo, src, dst, **flow)))
    links = [[link.port_a.node.name, link.port_b.node.name] for link in topo.links]
    faults = []
    for _ in range(draw(st.integers(0, 2))):
        link = draw(st.sampled_from(links))
        down = draw(st.sampled_from((0.1, 0.6, 1.2)))
        faults.append({"at": down, "link": link, "up": False})
        if draw(st.booleans()):
            up = down + draw(st.sampled_from((0.2, 0.9)))
            faults.append({"at": up, "link": link, "up": True})
    return {
        "schema_version": 1,
        "engine": "flow",
        "seed": 0,
        "until": HORIZON_S,
        "topology": topology,
        "policies": policies,
        "telemetry": {"link_sample_interval_s": draw(
            st.sampled_from((0.05, 0.13, 0.25, 0.4, 1.1)))},
        "traffic": {"kind": "trace", "flows": flows},
        "faults": faults,
        "_checkpoint_at": draw(st.sampled_from((0.05, 0.3, 0.75, 1.3, 2.2))),
    }


def _run(document, patch=None, checkpoint=None):
    """Run the document; with ``patch``, patch its engine first; with
    ``checkpoint``, a ``(instant, path)`` pair, write a checkpoint
    there mid-run.  Returns the Horse and the result."""
    def before_run(horse, count):
        if patch is not None:
            patch(horse.engine)
        if checkpoint is not None:
            at, path = checkpoint
            horse.sim.call_at(at, lambda sim: horse.checkpoint(path))

    horse, result, _ = run_scenario(document, before_run=before_run)
    return horse, result


def _check_bytes(result):
    for flow in result.flows:
        if flow.state.name == "COMPLETED":
            assert flow.bytes_sent == flow.size_bytes, flow
        assert flow.bytes_delivered <= flow.bytes_sent, flow
        if flow.elastic:
            assert flow.bytes_dropped == 0.0, flow
        if flow.reroutes == 0 and flow.route is not None and flow.route.delivered:
            assert flow.bytes_delivered == flow.bytes_sent, flow
        if flow.reroutes == 0 and flow.route is not None and not flow.route.directions:
            assert flow.bytes_sent == 0.0, flow


class PaidWatermarks:
    """A flow-engine observer that keeps each flow's routes, each with
    the flow's paid watermark (the floor of its ``bytes_sent``) when it
    took that route.  A route is paid up to the watermark at the next
    walk, or at the end of the run."""

    def __init__(self):
        self.routes = collections.defaultdict(list)

    def attach(self, engine):
        engine.observers.append(self)

    def __call__(self, name, flow):
        if name in ("delivered", "undelivered"):
            self.routes[flow.flow_id].append((flow.route, int(flow.bytes_sent)))

    def check_ports(self, horse, result):
        """Per link direction: tx bytes and packets at its source port,
        and rx at its far end, are the sums of what the flows paid while
        their routes crossed it, ``ceil(P / mean_packet_bytes)`` packets
        for a watermark of P bytes."""
        mean = horse.engine.mean_packet_bytes
        paid = collections.defaultdict(lambda: [0, 0])
        for flow in result.flows:
            marks = self.routes.get(flow.flow_id, [])
            ends = [start for _, start in marks[1:]] + [int(flow.bytes_sent)]
            for (route, start), end in zip(marks, ends):
                packets = math.ceil(end / mean) - math.ceil(start / mean)
                for direction in route.directions:
                    paid[direction][0] += end - start
                    paid[direction][1] += packets
        for link in horse.topology.links:
            for port in (link.port_a, link.port_b):
                direction = link.direction_from(port)
                want = paid.get(direction, [0, 0])
                tx = [direction.src_port.tx_bytes, direction.src_port.tx_packets]
                rx = [direction.dst_port.rx_bytes, direction.dst_port.rx_packets]
                assert tx == want and rx == want, (direction, tx, rx, want)


def _digest(result):
    """``run_digest`` without the route-cache counters, which
    ``without_route_cache`` stops on purpose."""
    def kept(stats):
        return {key: value for key, value in stats.items() if "route_cache" not in key}

    return run_digest(dataclasses.replace(
        result, engine_stats=kept(result.engine_stats),
        engine_summary=kept(result.engine_summary), metrics=kept(result.metrics),
    ))


def check_case(document):
    """Every check of the module docstring on one document; returns its
    ``run_digest``."""
    watermarks = PaidWatermarks()
    horse, result = _run(document, watermarks.attach)
    _check_bytes(result)
    watermarks.check_ports(horse, result)
    digest = _digest(result)
    for patch in (eager_loads, without_route_cache, eager_apply):
        assert _digest(_run(document, patch)[1]) == digest, patch.__name__
    at = document["_checkpoint_at"]
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "mid.ckpt")
        source, interrupted = _run(document, checkpoint=(at, path))
        assert _digest(interrupted) == digest
        restored = Horse.restore(path)
    assert restored is not source and restored.sim.now == at
    assert _digest(restored.run(until=document["until"])) == digest
    return run_digest(result)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_generated_scenarios_hold_their_invariants(document):
    check_case(document)


with open(os.path.join(REGRESSIONS, "GOLDEN_DIGESTS.json")) as _handle:
    PINNED = {key: value for key, value in json.load(_handle).items()
              if not key.startswith("_")}


@pytest.mark.parametrize(
    "path",
    sorted(path for path in glob.glob(os.path.join(REGRESSIONS, "*.json"))
           if os.path.basename(path) != "GOLDEN_DIGESTS.json"),
    ids=os.path.basename,
)
def test_regression_cases(path):
    """A kept document passes every check, and runs to the digest
    pinned next to it."""
    with open(path) as handle:
        document = json.load(handle)
    assert check_case(document) == PINNED[os.path.basename(path)]


@pytest.mark.parametrize("name", ["quickstart.json", "ixp_small.json"])
def test_shipped_scenarios_pay_every_byte(name):
    """Every flow of these scenarios completes on the one delivered route
    it took: it delivered exactly its size, and every port it crossed
    counted exactly the sizes of the flows that crossed it."""
    with open(os.path.join(REGRESSIONS, "..", name)) as handle:
        document = json.load(handle)
    watermarks = PaidWatermarks()
    horse, result, _ = run_scenario(
        document, before_run=lambda horse, count: watermarks.attach(horse.engine)
    )
    _check_bytes(result)
    watermarks.check_ports(horse, result)
    sizes = collections.Counter()
    for flow in result.flows:
        assert flow.state.name == "COMPLETED" and flow.reroutes == 0, flow
        assert flow.route.delivered, flow
        assert flow.bytes_delivered == flow.bytes_sent == flow.size_bytes, flow
        for direction in flow.route.directions:
            sizes[direction] += flow.size_bytes
    for direction, size in sizes.items():
        assert direction.src_port.tx_bytes == direction.dst_port.rx_bytes == size
