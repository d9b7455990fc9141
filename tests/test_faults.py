"""Link churn as document data: renewal failures written as ``faults``.

A seeded generator (``workloads.churn_faults``) draws exponential
failure and repair instants into a scenario document's ``faults`` list;
the document path schedules each entry as the one ``LinkStateChange``
event, so the controller sees exactly the drawn instants.
"""

import random

import pytest

from repro import Horse
from repro.errors import ExperimentError
from repro.net.generators import full_mesh
from repro.net.io import save_topology
from repro.runtime.scenario import run_scenario
from repro.runtime.schema import validate_scenario
from repro.stats.export import run_digest
from repro.traffic.trace_io import flow_to_record

from workloads import churn_faults, make_flow, port_status_log

LINK = ("s1", "s2")


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    """Three switches in a full mesh, one host each: when s1-s2 is down,
    h1 -> h2 still has the path through s3."""
    path = str(tmp_path_factory.mktemp("mesh") / "mesh.json")
    save_topology(full_mesh(3, hosts_per_switch=1), path)
    return path


def churn_document(mesh_file, faults, until, duration=60.0, engine="flow",
                   elastic=True):
    """One long 1 Mb/s flow h1 -> h2 on the mesh, under shortest-path
    routing, with ``faults`` as the document's fault list."""
    flow = make_flow(full_mesh(3, hosts_per_switch=1), "h1", "h2", 1e6,
                     duration=duration, elastic=elastic)
    return {
        "schema_version": 1,
        "engine": engine,
        "until": until,
        "topology": {"file": mesh_file},
        "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        "traffic": {"kind": "trace", "flows": [flow_to_record(flow)]},
        "faults": faults,
    }


def run_logged(document):
    """Run ``document``; returns the result and its PortStatus log."""
    logs = []
    horse, result, _ = run_scenario(
        document, before_run=lambda horse, count: logs.append(port_status_log(horse))
    )
    return result, logs[0]


def expected_log(faults):
    """What the controller hears: both switch ends of the link, at the
    fault's instant (the channel's latency is 0)."""
    topo = full_mesh(3, hosts_per_switch=1)
    log = []
    for fault in faults:
        link = topo.link_between(*fault["link"])
        for port in (link.port_a, link.port_b):
            log.append((fault["at"], port.node.dpid, port.number, fault["up"]))
    return log


class TestInjector:
    def test_failures_and_repairs_occur(self, mesh_file):
        faults = churn_faults(random.Random(2), [LINK], 5.0, 1.0, 60.0)
        failures = [f for f in faults if not f["up"]]
        assert len(failures) >= 3
        # Every failure is repaired, strictly later, before the next one.
        assert [f["up"] for f in faults] == [False, True] * len(failures)
        assert all(a["at"] < b["at"] for a, b in zip(faults, faults[1:]))
        _, log = run_logged(churn_document(mesh_file, faults, until=60.0))
        assert log == expected_log([f for f in faults if f["at"] <= 60.0])

    def test_flow_survives_the_churn(self, mesh_file):
        faults = churn_faults(random.Random(3), [LINK], 4.0, 1.0, 40.0)
        result, _ = run_logged(
            churn_document(mesh_file, faults, until=45.0, duration=40.0)
        )
        (flow,) = result.flows
        # The mesh always has an alternate path, so delivery never stops.
        assert flow.route.delivered
        assert flow.reroutes >= 2
        assert flow.bytes_delivered == pytest.approx(1e6 * 40 / 8, rel=1e-6)

    def test_availability_accounting(self, mesh_file):
        """The link is down exactly for the intervals the list draws:
        the controller's PortStatus log gives the same availability."""
        until = 100.0
        faults = churn_faults(random.Random(4), [LINK], 8.0, 2.0, until)
        _, log = run_logged(churn_document(mesh_file, faults, until=until))

        def availability(events):
            down, since = 0.0, None
            for at, up in events:
                if not up:
                    since = at
                elif since is not None:
                    down, since = down + at - since, None
            if since is not None:
                down += until - since
            return 1.0 - down / until

        drawn = availability(
            (f["at"], f["up"]) for f in faults if f["at"] <= until
        )
        seen = availability((at, up) for at, _, _, up in log[::2])
        assert seen == drawn
        # MTBF 8 / MTTR 2 -> ~80% availability; loose statistical bounds.
        assert 0.5 < drawn < 0.98

    def test_determinism_by_seed(self, mesh_file):
        draws = [churn_faults(random.Random(7), [LINK], 5.0, 1.0, 50.0)
                 for _ in range(2)]
        assert draws[0] == draws[1]
        runs = [run_logged(churn_document(mesh_file, faults, until=50.0))
                for faults in draws]
        assert runs[0][1] == runs[1][1]
        assert run_digest(runs[0][0]) == run_digest(runs[1][0])

    def test_watch_validation(self, mesh_file):
        """A fault on a node the topology lacks, or between two nodes
        with no link, is refused by its index when the run is built."""
        good = churn_faults(random.Random(0), [LINK], 1.0, 1.0, 10.0)
        for link, message in ((["s1", "ghost"], "no node named 'ghost'"),
                              (["h1", "h2"], "no link between h1 and h2")):
            faults = good + [{"at": 1.0, "link": link, "up": False}]
            with pytest.raises(ExperimentError,
                               match=rf"^faults\[{len(good)}\]\.link: {message}"):
                run_scenario(churn_document(mesh_file, faults, until=10.0))

    def test_invalid_parameters(self, mesh_file):
        faults = churn_faults(random.Random(0), [LINK], 1.0, 1.0, 10.0)
        validate_scenario(churn_document(mesh_file, faults, until=10.0))
        faults[-1]["at"] = -1.0
        with pytest.raises(ExperimentError, match=r"\.at: must be finite and >= 0"):
            validate_scenario(churn_document(mesh_file, faults, until=10.0))

    def test_no_events_beyond_horizon(self, mesh_file):
        faults = churn_faults(random.Random(5), [LINK], 2.0, 0.5, 10.0)
        assert all(f["at"] <= 10.0 for f in faults if not f["up"])
        _, log = run_logged(churn_document(mesh_file, faults, until=50.0))
        assert all(at <= 10.0 for at, _, _, up in log if not up)
        assert log == expected_log(faults)


@pytest.mark.parametrize("engine", ["flow", "packet"])
def test_a_checkpoint_with_a_pending_fault_resumes_to_the_same_digest(
    engine, mesh_file, tmp_path
):
    """Checkpointed between the failure and the repair of a document's
    fault, a run resumed with ``Horse.restore`` fires the pending repair
    and ends where the uninterrupted run does."""
    faults = [{"at": 0.5, "link": list(LINK), "up": False},
              {"at": 1.2, "link": list(LINK), "up": True}]
    document = churn_document(mesh_file, faults, until=2.0, duration=1.5,
                              engine=engine, elastic=False)
    _, whole, _ = run_scenario(document)
    path = str(tmp_path / "mid.ckpt")

    def checkpoint_at_one(horse, count):
        horse.sim.call_at(1.0, lambda sim: horse.checkpoint(path))

    run_scenario(document, before_run=checkpoint_at_one)
    restored = Horse.restore(path)
    assert restored.sim.now == 1.0
    assert not restored.topology.link_between(*LINK).up
    resumed = restored.run(until=2.0)
    assert restored.topology.link_between(*LINK).up
    assert run_digest(resumed) == run_digest(whole)
