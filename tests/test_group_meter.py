"""Group table and meter tests."""

import json
from pathlib import Path

import pytest

from repro.errors import GroupError, MeterError
from repro.net import IPv4Address
from repro.openflow import (
    Bucket,
    DropBand,
    Group,
    GroupTable,
    GroupType,
    HeaderFields,
    Meter,
    MeterTable,
    Output,
    flow_hash,
)
from repro.openflow.headers import tcp_flow
from repro.runtime.scenario import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def headers(tp_src=1000):
    return tcp_flow(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), tp_src, 80)


class TestGroupSelection:
    def test_all_group_replicates(self):
        group = Group(1, GroupType.ALL, [Bucket((Output(1),)), Bucket((Output(2),))])
        chosen = group.select_buckets(headers())
        assert [i for i, _ in chosen] == [0, 1]

    def test_indirect_group_single_bucket(self):
        group = Group(1, GroupType.INDIRECT, [Bucket((Output(3),))])
        assert len(group.select_buckets(headers())) == 1
        with pytest.raises(GroupError):
            Group(2, GroupType.INDIRECT, [Bucket((Output(1),)), Bucket((Output(2),))])

    def test_select_group_is_deterministic_per_flow(self):
        group = Group(
            1, GroupType.SELECT, [Bucket((Output(i),)) for i in range(1, 5)]
        )
        first = group.select_buckets(headers(tp_src=1234))
        for _ in range(5):
            assert group.select_buckets(headers(tp_src=1234)) == first

    def test_select_group_spreads_flows(self):
        group = Group(
            1, GroupType.SELECT, [Bucket((Output(i),)) for i in range(1, 5)]
        )
        chosen = {
            group.select_buckets(headers(tp_src=p))[0][0] for p in range(1000, 1100)
        }
        assert len(chosen) == 4  # all buckets used across 100 flows

    def test_select_weights_bias_distribution(self):
        group = Group(
            1,
            GroupType.SELECT,
            [Bucket((Output(1),), weight=9), Bucket((Output(2),), weight=1)],
        )
        counts = [0, 0]
        for p in range(1000, 1500):
            index = group.select_buckets(headers(tp_src=p))[0][0]
            counts[index] += 1
        assert counts[0] > counts[1] * 3

    def test_zero_weight_select_bucket_never_chosen(self):
        group = Group(
            1,
            GroupType.SELECT,
            [Bucket((Output(1),), weight=0), Bucket((Output(2),), weight=1)],
        )
        for p in range(1000, 1050):
            assert group.select_buckets(headers(tp_src=p))[0][0] == 1

    def test_fast_failover_picks_first_live(self):
        group = Group(
            1,
            GroupType.FAST_FAILOVER,
            [
                Bucket((Output(1),), watch_port=1),
                Bucket((Output(2),), watch_port=2),
            ],
        )
        up = {1: False, 2: True}
        chosen = group.select_buckets(headers(), port_up=lambda p: up[p])
        assert chosen[0][0] == 1
        up[2] = False
        assert group.select_buckets(headers(), port_up=lambda p: up[p]) == []

    def test_flow_hash_stable(self):
        assert flow_hash(headers()) == flow_hash(headers())
        assert flow_hash(headers(1000)) != flow_hash(headers(1001))

    def test_bucket_accounting(self):
        group = Group(1, GroupType.SELECT, [Bucket((Output(1),))])
        group.account(0, 500)
        assert group.bucket_bytes[0] == 500

    def test_invalid_groups(self):
        with pytest.raises(GroupError):
            Group(1, GroupType.ALL, [])
        with pytest.raises(GroupError):
            Group(-1, GroupType.ALL, [Bucket((Output(1),))])
        with pytest.raises(GroupError):
            Group(1, GroupType.SELECT, [Bucket((Output(1),), weight=0)])
        with pytest.raises(GroupError):
            Bucket((Output(1),), weight=-1)


class TestGroupTable:
    def test_add_get_delete(self):
        table = GroupTable()
        table.add(1, GroupType.ALL, [Bucket((Output(1),))])
        assert 1 in table
        assert table.get(1).group_type is GroupType.ALL
        table.delete(1)
        assert 1 not in table

    def test_duplicate_add_rejected(self):
        table = GroupTable()
        table.add(1, GroupType.ALL, [Bucket((Output(1),))])
        with pytest.raises(GroupError):
            table.add(1, GroupType.ALL, [Bucket((Output(1),))])

    def test_modify_replaces_buckets(self):
        table = GroupTable()
        table.add(1, GroupType.SELECT, [Bucket((Output(1),))])
        table.modify(1, GroupType.SELECT, [Bucket((Output(2),))])
        bucket = table.get(1).buckets[0]
        assert bucket.actions[0].port == 2
        with pytest.raises(GroupError):
            table.modify(9, GroupType.ALL, [Bucket((Output(1),))])

    def test_unknown_lookups(self):
        table = GroupTable()
        with pytest.raises(GroupError):
            table.get(5)
        with pytest.raises(GroupError):
            table.delete(5)


class TestMeter:
    def test_cap_rate_clamps(self):
        meter = Meter(1, [DropBand(rate_bps=1e6)])
        assert meter.cap_rate(5e5) == 5e5
        assert meter.cap_rate(5e6) == 1e6

    def test_lowest_band_binds(self):
        meter = Meter(1, [DropBand(rate_bps=2e6), DropBand(rate_bps=1e6)])
        assert meter.rate_bps == 1e6

    def test_fluid_accounting(self):
        meter = Meter(1, [DropBand(rate_bps=8e6)])  # 1 MB/s
        meter.account_fluid(offered_bps=16e6, duration_s=1.0)
        assert meter.in_bytes == 2_000_000
        assert meter.dropped_bytes == 1_000_000

    def test_fluid_bytes_are_floored_once_when_read(self):
        meter = Meter(1, [DropBand(rate_bps=4.0)])
        for _ in range(10):  # 0.75 B offered, 0.25 B dropped per accrual
            meter.account_fluid(offered_bps=6.0, duration_s=1.0)
        stats = meter.stats()
        # floor(7.5) and floor(2.5); truncating each accrual gave 0 and 0.
        assert (stats["in_bytes"], stats["dropped_bytes"]) == (7, 2)

    def test_fluid_counters_do_not_depend_on_statistics_reads(self):
        """``ixp_small.json``'s rate-limit meters end with the same
        counters when statistics are also read every 10 ms."""
        with open(SCENARIOS / "ixp_small.json") as handle:
            document = json.load(handle)

        def meters(every):
            def before_run(horse, _count):
                if every:
                    horse.sim.every(
                        every, lambda sim, t: horse.engine.sync_statistics(t)
                    )

            horse, _, _ = run_scenario(document, before_run=before_run)
            return [
                meter.stats()
                for switch in horse.topology.switches
                for meter in switch.pipeline.meters.meters
            ]

        plain = meters(None)
        assert plain and any(m["dropped_bytes"] for m in plain)
        assert meters(0.01) == plain

    def test_token_bucket_admits_within_rate(self):
        meter = Meter(1, [DropBand(rate_bps=8e6, burst_bits=8e4)])
        # 10 KB of tokens; a 1 KB packet fits, a huge one doesn't.
        assert meter.admit_packet(1000, now=0.0)
        assert not meter.admit_packet(100_000, now=0.0)
        assert meter.dropped_packets == 1

    def test_token_bucket_refills_over_time(self):
        meter = Meter(1, [DropBand(rate_bps=8e3, burst_bits=8e3)])  # 1 KB/s
        assert meter.admit_packet(1000, now=0.0)  # drains the bucket
        assert not meter.admit_packet(1000, now=0.1)
        assert meter.admit_packet(1000, now=1.1)  # refilled

    def test_time_going_backwards_rejected(self):
        meter = Meter(1, [DropBand(rate_bps=1e6)])
        meter.admit_packet(100, now=5.0)
        with pytest.raises(MeterError):
            meter.admit_packet(100, now=4.0)

    def test_invalid_meters(self):
        with pytest.raises(MeterError):
            Meter(1, [])
        with pytest.raises(MeterError):
            DropBand(rate_bps=0)
        with pytest.raises(MeterError):
            DropBand(rate_bps=1e6, burst_bits=-1)
        nan = float("nan")
        with pytest.raises(MeterError):
            DropBand(rate_bps=nan)
        with pytest.raises(MeterError):
            DropBand(rate_bps=1e6, burst_bits=nan)
        assert DropBand(rate_bps=float("inf")).rate_bps == float("inf")
        with pytest.raises(MeterError):
            Meter(1, [DropBand(rate_bps=1e6)]).cap_rate(-1)


class TestMeterTable:
    def test_crud(self):
        table = MeterTable()
        table.add(1, [DropBand(rate_bps=1e6)])
        assert 1 in table
        table.modify(1, [DropBand(rate_bps=2e6)])
        assert table.get(1).rate_bps == 2e6
        table.delete(1)
        assert len(table) == 0

    def test_errors(self):
        table = MeterTable()
        with pytest.raises(MeterError):
            table.get(1)
        with pytest.raises(MeterError):
            table.modify(1, [DropBand(rate_bps=1e6)])
        with pytest.raises(MeterError):
            table.delete(1)
        table.add(1, [DropBand(rate_bps=1e6)])
        with pytest.raises(MeterError):
            table.add(1, [DropBand(rate_bps=1e6)])
