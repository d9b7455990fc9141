#!/usr/bin/env python3
"""DDoS blackholing: drop attack traffic at the fabric edge, mid-run.

A member comes under a UDP flood.  Partway through the attack the
operator installs a blackhole for the victim, then lifts it once the
attack subsides — the classic mitigation the poster lists among IXP
policies.  The timeline of the victim's ingress rate shows the policy
taking and releasing effect while legitimate traffic keeps flowing.

Run:  python examples/ddos_blackholing.py
"""

from repro import Flow, Horse, HorseConfig
from repro.control.apps import BlackholeApp, ShortestPathApp
from repro.control import Controller
from repro.net.generators import leaf_spine
from repro.openflow.headers import tcp_flow, udp_flow


def main() -> None:
    # A small leaf-spine edge fabric; the victim is h1.
    topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2,
                      leaf_bps=1e9)
    victim = topo.host("h1")

    # Bring our own controller so we can poke the blackhole app at runtime.
    controller = Controller()
    blackhole = BlackholeApp()
    controller.add_app(blackhole)
    controller.add_app(ShortestPathApp(match_on="ip_dst"))
    horse = Horse(topo, controller=controller,
                  config=HorseConfig(telemetry={"link_sample_interval_s": 0.25}))

    # Legitimate traffic to the victim plus background flows.
    legit = Flow(
        headers=tcp_flow(topo.host("h3").ip, victim.ip, 20001, 443),
        src="h3", dst="h1", demand_bps=100e6, duration_s=12.0,
    )
    background = Flow(
        headers=tcp_flow(topo.host("h4").ip, topo.host("h6").ip, 20002, 80),
        src="h4", dst="h6", demand_bps=200e6, duration_s=12.0,
    )
    # The attack: four UDP sources flooding the victim's 1G port.
    attackers = [
        Flow(
            headers=udp_flow(topo.host(name).ip, victim.ip, 30000 + i, 53),
            src=name, dst="h1", demand_bps=400e6, duration_s=8.0,
            start_time=2.0, elastic=False,
        )
        for i, name in enumerate(["h2", "h4", "h5", "h6"])
    ]
    horse.submit_flows([legit, background] + attackers)

    # Mitigation timeline: detect at t=4, lift at t=11.
    horse.sim.call_at(4.0, lambda s: blackhole.add_target(victim.ip))
    horse.sim.call_at(11.0, lambda s: blackhole.remove_target(victim.ip))

    # Track the victim's ingress rate over time.
    samples = []

    def sample(sim, t):
        horse.sync_statistics()  # counters accrue lazily between events
        samples.append((t, victim.uplink_port.rx_bytes))

    horse.sim.every(0.5, sample)

    result = horse.run(until=14.0)

    print("victim ingress rate over time (blackhole from t=4 to t=11):")
    last = 0
    for t, rx in samples:
        rate = (rx - last) * 8 / 0.5 / 1e6
        last = rx
        bar = "#" * int(rate / 25)
        marker = " <- blackholed" if 4.0 < t <= 11.0 else ""
        print(f"  t={t:5.1f}s  {rate:8.1f} Mb/s {bar}{marker}")

    print(f"\nattack bytes dropped: "
          f"{sum(a.bytes_dropped for a in attackers) / 1e6:.1f} MB")
    print(f"background flow delivered "
          f"{background.bytes_delivered / 1e6:.1f} MB unharmed")
    # During the blackhole window nothing reaches the victim.
    window = [r for (t, r) in zip(
        [t for t, _ in samples],
        [  # per-interval deltas
            (b - a) for (_, a), (_, b) in zip(samples, samples[1:])
        ],
    ) if 5.0 <= t <= 10.5]
    assert all(delta == 0 for delta in window), window
    print("victim ingress was exactly zero while blackholed ✓")


if __name__ == "__main__":
    main()
