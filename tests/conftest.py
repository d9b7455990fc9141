"""Shared fixtures: small topologies with attached pipelines, and the
max-min certificate every flow-engine resolve checks itself against."""

from __future__ import annotations

import random

import pytest

from repro.flowsim import FlowLevelEngine
from repro.net.generators import fat_tree, linear, single_switch
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.sim import Simulator

from diff.certificate import engine_violations

#: Above this many live solver flows the certificate checks every
#: ``_CERTIFY_EVERY``-th resolve only.
_CERTIFY_ALL_UP_TO = 300
_CERTIFY_EVERY = 50

#: The session's tally: resolves checked, resolves that broke the
#: certificate, and the tests that opted out.
_TALLY = pytest.StashKey[dict]()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_certificate: the test builds a state that is not max-min on "
        "purpose; its flow-engine resolves are not checked",
    )
    config.stash[_TALLY] = {"resolves": 0, "violations": 0, "opted_out": []}


def pytest_terminal_summary(terminalreporter, config):
    tally = config.stash[_TALLY]
    if tally["resolves"] or tally["opted_out"]:
        terminalreporter.write_line(
            f"max-min certificate: {tally['resolves']} flow-engine resolves "
            f"checked, {tally['violations']} violations; "
            f"opted out: {', '.join(tally['opted_out']) or 'none'}"
        )


@pytest.fixture(autouse=True)
def maxmin_certificate(request, monkeypatch):
    """Check every flow-engine resolve of the test against the max-min
    certificate (``tests/diff/certificate.py``); a violation fails the
    test at teardown, with the first ones found."""
    tally = request.config.stash[_TALLY]
    if request.node.get_closest_marker("no_certificate") is not None:
        tally["opted_out"].append(request.node.nodeid)
        yield
        return
    recompute = FlowLevelEngine._recompute_indexed
    found = []
    resolves = 0

    def certified(engine, now):
        nonlocal resolves
        recompute(engine, now)
        resolves += 1
        if len(engine._solver._flows) > _CERTIFY_ALL_UP_TO and resolves % _CERTIFY_EVERY:
            return
        tally["resolves"] += 1
        broken = engine_violations(engine)
        if broken:
            tally["violations"] += 1
            found.append(f"t={now}: " + "; ".join(broken[:3]))

    monkeypatch.setattr(FlowLevelEngine, "_recompute_indexed", certified)
    yield
    if found:
        pytest.fail(f"max-min certificate broken at {len(found)} resolve(s): "
                    + " | ".join(found[:3]), pytrace=False)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def line2():
    """h1 - s1 - s2 - h2, 10 Mbps links, pipelines attached."""
    topo = linear(2, hosts_per_switch=1, capacity_bps=10e6)
    for switch in topo.switches:
        attach_pipeline(switch, num_tables=2)
    return topo


@pytest.fixture
def star4():
    """4 hosts on one switch, 100 Mbps links."""
    topo = single_switch(4, capacity_bps=100e6)
    attach_pipeline(topo.switch("s1"), num_tables=2)
    return topo


@pytest.fixture
def fattree4():
    """k=4 fat-tree with pipelines."""
    topo = fat_tree(4)
    for switch in topo.switches:
        attach_pipeline(switch, num_tables=2)
    return topo


def install_ip_path(topo, src: str, dst: str, priority: int = 10) -> None:
    """Install static ip_dst rules along the shortest path src->dst."""
    path = topo.shortest_path(src, dst)
    dst_host = topo.host(dst)
    for i in range(1, len(path) - 1):
        switch = path[i]
        out = topo.egress_port(switch, path[i + 1])
        switch.pipeline.install(
            Match(ip_dst=dst_host.ip),
            (ApplyActions((Output(out.number),)),),
            priority=priority,
        )


@pytest.fixture
def install_path():
    return install_ip_path
