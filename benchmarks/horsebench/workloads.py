"""The four horsebench workloads.

Each workload is one closed-loop simulation: fixed inputs made from the
seed, a fixed simulated horizon, and a check of the outputs.  A workload
is a class with four set-up phases (topology, traffic, construct,
submit — timed separately by the child) and a ``check``.  They use only
the simulator's public entry points and keep their own copies of the
topology and traffic builders, so later PRs can edit
``benchmarks/harness.py`` and the ``bench_e*.py`` files freely without
moving these numbers.

Seed handling.  The driver compares medians taken over *different*
seeds, so a workload's cost must not depend on which seed it got.  All
randomness comes from ``RngRegistry(seed)`` streams, and every draw
that decides how much work a run holds (flow count per pair, arrival
instants, flow sizes) is variance-reduced: stratified (one draw per
equal-probability stratum) or a Kronecker sequence from a random start.
Each seed gives different flows — other pairs, instants, sizes and
ports — while the totals (flows, bytes offered, arrival rate over time)
stay within a fraction of a percent.  The topologies, and the IXP's
member population, are part of the workload's definition and do not
vary.  What is left is the simulated dynamics themselves: on
``ixp_replay`` the congestion pattern, and with it the solver's work,
still moves by a few percent from seed to seed.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Flow, Horse, HorseConfig, RunResult, Topology
from repro.control.apps import L2LearningApp
from repro.control.controller import Controller
from repro.ixp import build_ixp, synthesize_members
from repro.net.generators import leaf_spine, tree
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.openflow.headers import AppPort, tcp_flow, udp_flow
from repro.sim.rng import RngRegistry
from repro.stats import mean_relative_error
from repro.traffic import IxpTraceSynthesizer

#: Link utilisation may exceed 1 by float rounding only.
UTILISATION_SLACK = 1e-6
#: Delivered bytes may exceed offered bytes by float rounding only.
BYTES_SLACK = 1e-9


# ----------------------------------------------------------------------
# Variance-reduced sampling
# ----------------------------------------------------------------------

def stratified(rng: random.Random, n: int) -> List[float]:
    """``n`` uniforms in [0, 1), one per equal-width stratum, shuffled."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def kronecker(rng: random.Random, n: int, stride: float) -> List[float]:
    """``n`` points of the Kronecker sequence ``frac(u0 + i * stride)``.

    With an irrational stride every run of consecutive points is spread
    evenly over [0, 1).  Used where neighbours in a list (the flows of
    one member pair) must each get a balanced mix, which a shuffled
    stratified sample only gives the list as a whole.
    """
    start = rng.random()
    return [(start + i * stride) % 1.0 for i in range(n)]


def systematic_counts(
    rng: random.Random, weights: Sequence[float], total: int
) -> List[int]:
    """Split ``total`` items over ``weights`` by systematic sampling:
    every count is within one of its expectation."""
    scale = total / sum(weights)
    point = rng.random()
    counts = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight * scale
        count = 0
        while point < cumulative:
            count += 1
            point += 1.0
        counts.append(count)
    return counts


class SizeMix:
    """Inverse CDF of a mice/elephants flow-size mix.

    80 % log-normal mice around a tenth of ``mean_bytes`` and 20 %
    bounded-Pareto elephants from ``mean_bytes`` up, the shape of
    ``repro.traffic.MiceElephants``, as a quantile function so that
    sizes can be drawn variance-reduced.  The elephant tail is cut at
    8x ``mean_bytes``: a single flow then neither decides where the
    fabric congests nor outlives the workload's horizon.
    """

    MICE_FRACTION = 0.8
    SIGMA = 1.0
    ALPHA = 1.2
    NORMAL = NormalDist()

    def __init__(self, mean_bytes: float) -> None:
        self.mu = math.log(mean_bytes / 10.0) - self.SIGMA * self.SIGMA / 2.0
        self.low = mean_bytes
        self.high = mean_bytes * 8.0

    def quantile(self, u: float) -> int:
        if u < self.MICE_FRACTION:
            p = min(max(u / self.MICE_FRACTION, 1e-9), 1.0 - 1e-9)
            z = self.NORMAL.inv_cdf(p)
            return max(64, int(math.exp(self.mu + self.SIGMA * z)))
        v = (u - self.MICE_FRACTION) / (1.0 - self.MICE_FRACTION)
        la, ha = self.low ** -self.ALPHA, self.high ** -self.ALPHA
        return int((la - v * (la - ha)) ** (-1.0 / self.ALPHA))


def _headers(topology: Topology, src: str, dst: str, tp_src: int, tp_dst: int,
             elastic: bool = True):
    s, d = topology.host(src), topology.host(dst)
    build = tcp_flow if elastic else udp_flow
    return build(s.ip, d.ip, tp_src, tp_dst, eth_src=s.mac, eth_dst=d.mac)


# ----------------------------------------------------------------------
# Checks shared by every workload
# ----------------------------------------------------------------------

def common_violations(result: RunResult, until: float) -> List[str]:
    """The invariants every run must keep (see README, flow_ok_share)."""
    problems = []
    offered = delivered = 0.0
    unfinished = 0
    for flow in result.flows:
        offered += flow.bytes_sent
        delivered += flow.bytes_delivered
        if (
            flow.size_bytes is not None
            and flow_delivered(flow)
            and flow.flow_completion_time is None
        ):
            unfinished += 1
    if delivered > offered * (1.0 + BYTES_SLACK) + 1.0:
        problems.append(f"delivered {delivered:.0f} B > offered {offered:.0f} B")
    hottest = max(result.link_max_utilization.values(), default=0.0)
    if hottest > 1.0 + UTILISATION_SLACK:
        problems.append(f"link utilisation {hottest!r} > 1")
    if unfinished:
        problems.append(
            f"{unfinished} delivered sized flows not complete at t={until}"
        )
    return problems


def flow_delivered(flow: Flow) -> bool:
    """RunResult's rule: the route is authoritative for flow-engine
    flows, delivered bytes for packet-engine flows."""
    if flow.route is not None:
        return bool(flow.route.delivered)
    return flow.bytes_delivered > 0


class Workload:
    """Base class: four timed set-up phases, a horizon, and a check."""

    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rngs = RngRegistry(seed)
        self.topology: Optional[Topology] = None
        self.flows: List[Flow] = []
        self.horse: Optional[Horse] = None
        self.until = 0.0

    # Set-up phases, called in this order by the child.
    def build_topology(self) -> None:
        raise NotImplementedError

    def generate_traffic(self) -> None:
        raise NotImplementedError

    def construct(self) -> None:
        raise NotImplementedError

    def submit(self) -> None:
        self.horse.submit_flows(self.flows)

    def expected_drops(self) -> set:
        """Ids of flows the policy is meant to drop (not failures)."""
        return set()

    def check(self, result: RunResult) -> Tuple[List[str], Dict[str, float]]:
        """Workload-specific violations and extra result fields."""
        return [], {}


# ----------------------------------------------------------------------
# ixp_replay
# ----------------------------------------------------------------------

class IxpReplay(Workload):
    name = "ixp_replay"
    why = (
        "the paper's headline: diurnal IXP replay on one coupled fabric with "
        "the full policy stack, monitor->controller loop and link sampling live"
    )

    MEMBERS = 24
    #: A four-epoch cut of the diurnal cycle, compressed: the run costs
    #: about three host seconds.
    EPOCH_S = 0.65
    MEAN_FLOW_BYTES = 2e6
    #: Monitor poll and link sampling period.  Six samples per epoch give
    #: the reactive balancer some twenty looks at the loaded fabric, so
    #: that it acts under every seed and not only under lucky ones.
    SAMPLE_S = 0.1

    def build_topology(self) -> None:
        # A fixed member population: which ranks are content or eyeball
        # networks decides where the fabric congests and whether the
        # balancer ever acts, so it belongs to the workload, not the seed.
        members = synthesize_members(
            self.MEMBERS, RngRegistry(11).stream("horsebench-members")
        )
        for member in members:
            # Uniform 1G ports keep the edge uplinks modest, so peak
            # epochs load the core and the reactive balancer acts.
            member.port_bps = 1e9
        self.fabric = build_ixp(
            self.MEMBERS, members=members, seed=0, oversubscription=3.5
        )
        self.topology = self.fabric.topology

    def generate_traffic(self) -> None:
        epochs = 2 if self.tiny else 4
        load = 0.25 if self.tiny else 1.0
        synth = IxpTraceSynthesizer(
            self.fabric, peak_total_bps=load * 2.0 * 400e6 * self.MEMBERS
        )
        replay = synth.replay(epochs=epochs, epoch_duration_s=self.EPOCH_S)
        rng = self.rngs.stream("ixp-trace")
        sizes = SizeMix(self.MEAN_FLOW_BYTES)
        apps, app_weights = zip(
            (AppPort.HTTPS, 0.45), (AppPort.HTTP, 0.30), (AppPort.RTMP, 0.15),
            (AppPort.DNS, 0.05), (AppPort.SSH, 0.05),
        )
        flows = []
        ephemeral = 49152
        for index, epoch in enumerate(replay.epochs):
            pairs = list(replay.matrix_for_epoch(index).pairs())
            demands = [bps for _, bps in pairs]
            total = round(
                sum(demands) * epoch.duration_s / (self.MEAN_FLOW_BYTES * 8.0)
            )
            counts = systematic_counts(rng, demands, total)
            owners = [
                pair for (pair, _), n in zip(pairs, counts) for _ in range(n)
            ]
            pair_bps = dict(pairs)
            instants = kronecker(rng, total, 0.41421356237)
            quantiles = kronecker(rng, total, 0.61803398875)
            udp = stratified(rng, total)
            for (src, dst), at, q, u in zip(owners, instants, quantiles, udp):
                elastic = u >= 0.1
                flows.append(Flow(
                    headers=_headers(
                        self.topology, src, dst, ephemeral,
                        rng.choices(apps, app_weights)[0], elastic,
                    ),
                    src=src,
                    dst=dst,
                    demand_bps=max(pair_bps[(src, dst)] * 4.0, 20e6),
                    size_bytes=sizes.quantile(q),
                    start_time=epoch.start_s + at * epoch.duration_s,
                    elastic=elastic,
                ))
                ephemeral = 49152 + (ephemeral - 49151) % 16384
        flows.sort(key=lambda f: f.start_time)
        self.flows = flows
        self.until = epochs * self.EPOCH_S + 30.0

    def construct(self) -> None:
        members = self.fabric.members
        self.victim = members[1].host_name
        policies = {
            "load_balancing": {
                "mode": "reactive", "match_on": "ip_dst", "threshold": 0.45,
            },
            "rate_limiting": [{
                "src": members[4].host_name, "dst": members[3].host_name,
                "rate": "50 Mbps",
            }],
            "blackholing": [{"target": self.victim}],
            "application_peering": [{
                "src": members[6].host_name, "dst": members[2].host_name,
                "app": "http",
            }],
        }
        config = HorseConfig(
            seed=self.seed,
            telemetry={
                "link_sample_interval_s": self.SAMPLE_S,
                "monitor_interval_s": self.SAMPLE_S,
            },
        )
        self.horse = Horse(self.topology, policies=policies, config=config)
        self.horse.start_control_plane()

    def expected_drops(self) -> set:
        return {f.flow_id for f in self.flows if f.dst == self.victim}

    def check(self, result: RunResult):
        problems = []
        rebalances = self.horse.controller.app("reactive-lb").rebalances
        if not self.tiny and rebalances <= 0:
            problems.append("reactive load balancer never rebalanced")
        leaked = sum(
            1 for f in self.flows if f.dst == self.victim and flow_delivered(f)
        )
        if leaked:
            problems.append(f"{leaked} flows reached the blackholed member")
        return problems, {"rebalances": rebalances}


# ----------------------------------------------------------------------
# pod_hotpath
# ----------------------------------------------------------------------

class PodHotpath(Workload):
    name = "pod_hotpath"
    why = (
        "many disjoint 250-flow pods: vectorised solver kernel, per-flow "
        "bookkeeping and completion retiming dominate; control and stats idle"
    )

    HOSTS_PER_POD = 8
    FLOWS_PER_POD = 250
    SPREAD_S = 1.0
    DEMAND_BPS = 40e6
    CAPACITY_BPS = 1e9
    MEAN_SIZED_BYTES = 1.5e6

    def build_topology(self) -> None:
        pods = 4 if self.tiny else 26
        topo = Topology(name=f"pods-{pods}x{self.HOSTS_PER_POD}")
        self.pod_hosts = []
        for p in range(pods):
            switch = topo.add_switch(f"p{p}s")
            attach_pipeline(switch)
            hosts = []
            for h in range(self.HOSTS_PER_POD):
                host = topo.add_host(f"p{p}h{h}")
                topo.add_link(host, switch, capacity_bps=self.CAPACITY_BPS)
                hosts.append(host)
            # Rules go straight onto the pipeline (run with no policies):
            # the control plane has nothing to do in this workload.
            for host in hosts:
                port = topo.egress_port(switch.name, host.name)
                switch.pipeline.install(
                    Match(ip_dst=host.ip),
                    (ApplyActions((Output(port.number),)),),
                    priority=10,
                )
            self.pod_hosts.append(hosts)
        self.topology = topo

    def generate_traffic(self) -> None:
        rng = self.rngs.stream("pod-traffic")
        sizes = SizeMix(self.MEAN_SIZED_BYTES)
        flows = []
        for hosts in self.pod_hosts:
            n = self.FLOWS_PER_POD
            instants = stratified(rng, n)
            quantiles = stratified(rng, n // 2)
            for i in range(n):
                src, dst = rng.sample(hosts, 2)
                # Half the flows are sized, so every arrival retimes the
                # pod's pending completions; the rest stay to the horizon.
                size = sizes.quantile(quantiles[i // 2]) if i % 2 else None
                flows.append(Flow(
                    headers=tcp_flow(src.ip, dst.ip, 1024 + i, 80),
                    src=src.name,
                    dst=dst.name,
                    demand_bps=self.DEMAND_BPS,
                    size_bytes=size,
                    start_time=round(instants[i] * self.SPREAD_S, 6),
                ))
        self.flows = flows
        self.until = 30.0

    def construct(self) -> None:
        self.horse = Horse(
            self.topology, policies=None, config=HorseConfig(seed=self.seed)
        )
        self.horse.start_control_plane()

    def check(self, result: RunResult):
        problems = []
        stats = result.engine_stats
        if stats.get("packet_ins", 0):
            problems.append("pod workload raised packet-ins")
        return problems, {}


# ----------------------------------------------------------------------
# reactive_l2
# ----------------------------------------------------------------------

class ReactiveL2(Workload):
    name = "reactive_l2"
    why = (
        "write-heavy churn: reactive MAC learning with idle timeouts, a rule "
        "written per flow, expiry sweeps and a link flap; route cache misses"
    )

    SPAN_S = 28.0
    IDLE_TIMEOUT_S = 2.0
    EXPIRY_S = 0.5
    #: The root's first downlink fails and comes back: h1..h16 hang below s2.
    FLAP = ("s1", "s2", 13.0, 13.4)
    #: No short flow starts in this window, so none can end while the tree
    #: is partitioned (an undelivered flow would count as failed).  The
    #: long flows below are alive across it and carry the reroute storm.
    QUIET = (12.0, 14.0)
    LONG_FLOWS = 96

    def build_topology(self) -> None:
        self.topology = tree(3, 4)

    def generate_traffic(self) -> None:
        count = 400 if self.tiny else 3500
        rng = self.rngs.stream("l2-traffic")
        hosts = [h.name for h in self.topology.hosts]
        quiet_start, quiet_end = self.QUIET
        busy_s = self.SPAN_S - (quiet_end - quiet_start)
        instants = stratified(rng, count)
        quantiles = stratified(rng, count)
        flows = []
        for i in range(count):
            src, dst = rng.sample(hosts, 2)
            at = instants[i] * busy_s
            if at >= quiet_start:
                at += quiet_end - quiet_start
            flows.append(Flow(
                headers=_headers(self.topology, src, dst, 1024 + i % 60000, 80),
                src=src,
                dst=dst,
                demand_bps=20e6,
                size_bytes=int(20e3 + quantiles[i] * 480e3),
                start_time=round(at, 6),
            ))
        below, rest = hosts[:16], hosts[16:]
        for i in range(self.LONG_FLOWS):
            inside, outside = rng.choice(below), rng.choice(rest)
            src, dst = (inside, outside) if i % 2 else (outside, inside)
            flows.append(Flow(
                headers=_headers(self.topology, src, dst, 200 + i, 443),
                src=src,
                dst=dst,
                demand_bps=1e6,
                duration_s=3.0,
                start_time=round(quiet_start + 0.5 * rng.random(), 6),
            ))
        flows.sort(key=lambda f: f.start_time)
        self.flows = flows
        self.until = self.SPAN_S + 20.0

    def construct(self) -> None:
        controller = Controller()
        controller.add_app(L2LearningApp(idle_timeout=self.IDLE_TIMEOUT_S))
        self.horse = Horse(
            self.topology,
            controller=controller,
            config=HorseConfig(
                seed=self.seed, entry_expiry_interval_s=self.EXPIRY_S
            ),
        )
        self.horse.start_control_plane()
        a, b, down, up = self.FLAP
        self.horse.fail_link(down, a, b)
        self.horse.restore_link(up, a, b)

    def check(self, result: RunResult):
        problems = []
        stats = result.engine_stats
        if stats.get("packet_ins", 0) <= 0:
            problems.append("no packet-ins: the learning switch never ran")
        if stats.get("reroutes", 0) < self.LONG_FLOWS:
            problems.append("the link flap did not reroute the long flows")
        return problems, {}


# ----------------------------------------------------------------------
# packet_reference
# ----------------------------------------------------------------------

class PacketReference(Workload):
    name = "packet_reference"
    why = (
        "pure packet engine: ~0.4 M tiny events, so kernel dispatch, "
        "pktsim queues and per-packet pipeline lookups are the cost; pins "
        "hybrid and flow-engine accuracy against it"
    )

    LEAF_BPS = 20e6
    CBR_S = 11.0
    SPAN_S = 9.0
    #: Many short elastic flows rather than a few long ones: AIMD runs
    #: are chaotic in their inputs, and the mean error over 96 flows is
    #: what keeps the accuracy figures steady from seed to seed.
    ELASTIC_FLOWS = 96
    POLICIES = {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}}

    def build_topology(self) -> None:
        self.topology = leaf_spine(4, 2, hosts_per_leaf=4, leaf_bps=self.LEAF_BPS)

    def _flow_specs(self) -> List[dict]:
        """Engine-independent flow descriptions (the accuracy runs build
        fresh Flow objects on fresh topologies from the same specs).

        Who talks to whom is a fixed template over abstract host slots;
        the seed maps slots to hosts by a permutation that keeps leaves
        together (a symmetry of the fabric), and draws sizes and start
        instants.  Which flows share a link is therefore the same under
        every seed, which keeps the two accuracy figures comparable
        across seeds; only identities, sizes and timing move.
        """
        rng = self.rngs.stream("packet-traffic")
        leaves = list(range(4))
        rng.shuffle(leaves)
        hosts = []
        for leaf in leaves:
            slots = [f"h{leaf * 4 + k + 1}" for k in range(4)]
            rng.shuffle(slots)
            hosts.extend(slots)
        template = random.Random(0)
        cbr = 4 if self.tiny else 16
        elastic = 4 if self.tiny else self.ELASTIC_FLOWS
        specs = []
        # CBR background: every slot sources one stream to a slot on
        # another leaf, at a tenth of its access link.
        for i in range(cbr):
            other = template.choice([j for j in range(16) if j // 4 != i // 4])
            specs.append(dict(
                src=hosts[i], dst=hosts[other], demand_bps=self.LEAF_BPS / 10.0,
                size_bytes=None, duration_s=1.0 if self.tiny else self.CBR_S,
                start_time=0.0, elastic=False,
            ))
        instants = stratified(rng, elastic)
        quantiles = stratified(rng, elastic)
        span = 1.0 if self.tiny else self.SPAN_S
        for i in range(elastic):
            a, b = template.sample(range(16), 2)
            size = 100e3 + quantiles[i] * 300e3
            specs.append(dict(
                src=hosts[a], dst=hosts[b], demand_bps=self.LEAF_BPS * 0.8,
                size_bytes=int(size), duration_s=None,
                start_time=round(0.2 + instants[i] * span, 6), elastic=True,
            ))
        return specs

    def _make_flows(self, topology: Topology) -> List[Flow]:
        flows = []
        for i, spec in enumerate(self.specs):
            flows.append(Flow(
                headers=_headers(
                    topology, spec["src"], spec["dst"], 1000 + i, 80,
                    spec["elastic"],
                ),
                **spec,
            ))
        return flows

    def generate_traffic(self) -> None:
        self.specs = self._flow_specs()
        self.flows = self._make_flows(self.topology)
        self.until = 8.0 if self.tiny else 40.0

    def construct(self) -> None:
        self.horse = Horse(
            self.topology,
            policies=self.POLICIES,
            config=HorseConfig(engine="packet", seed=self.seed),
        )
        self.horse.start_control_plane()

    def run_other_engine(self, engine: str, **config) -> Tuple[List[Flow], RunResult]:
        """The same inputs through another engine, on a fresh topology."""
        topology = leaf_spine(4, 2, hosts_per_leaf=4, leaf_bps=self.LEAF_BPS)
        flows = self._make_flows(topology)
        horse = Horse(
            topology,
            policies=self.POLICIES,
            config=HorseConfig(engine=engine, seed=self.seed, **config),
        )
        horse.submit_flows(flows)
        return flows, horse.run(until=self.until)

    def check(self, result: RunResult):
        problems = []
        elastic = sum(1 for s in self.specs if s["elastic"])
        hybrid_flows, hybrid = self.run_other_engine(
            "hybrid", hybrid={"select": f"top:{elastic}"}
        )
        fluid_flows, fluid = self.run_other_engine("flow")
        fcts = {}
        for label, flows in (
            ("packet", self.flows), ("hybrid", hybrid_flows), ("flow", fluid_flows)
        ):
            done = {
                i: f.flow_completion_time
                for i, f in enumerate(flows)
                if f.elastic and f.flow_completion_time is not None
            }
            if len(done) != elastic:
                problems.append(
                    f"{label} engine completed {len(done)}/{elastic} elastic flows"
                )
            fcts[label] = done
        extra = {
            "hybrid_wall_s": hybrid.wall_time_s,
            "hybrid_events": hybrid.events,
            "flow_wall_s": fluid.wall_time_s,
        }
        if not problems:
            extra["fct_err_hybrid"] = mean_relative_error(
                fcts["hybrid"], fcts["packet"]
            )
            extra["goodput_err_flow"] = mean_relative_error(
                _goodputs(fluid_flows, self.until),
                _goodputs(self.flows, self.until),
            )
        return problems, extra


def _goodputs(flows: Sequence[Flow], until: float) -> Dict[int, float]:
    """Per-flow goodput (bps) over the flow's own active span."""
    out = {}
    for i, flow in enumerate(flows):
        end = flow.end_time if flow.end_time is not None else until
        out[i] = flow.bytes_delivered * 8.0 / max(end - flow.start_time, 1e-9)
    return out


WORKLOADS = {
    cls.name: cls for cls in (IxpReplay, PodHotpath, ReactiveL2, PacketReference)
}
