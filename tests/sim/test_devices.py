"""Tests for links, PCIe, NICs, switches, and packet programs."""

import pytest

from repro.errors import ResourceExhaustedError
from repro.sim import link as link_mod
from repro.sim import nic as nic_mod
from repro.sim import pcie as pcie_mod
from repro.sim import (
    Datagram,
    Address,
    Environment,
    Link,
    LossProgram,
    Nic,
    PacketAction,
    PacketProgram,
    PcieBus,
    ProgramResult,
    ProgrammableSwitch,
    SmartNic,
    SwitchProgramFootprint,
)


def make_dgram(**kwargs):
    defaults = dict(src=Address("a", 1000), dst=Address("b", 2000), size=100)
    defaults.update(kwargs)
    return Datagram(**defaults)


class TestLink:
    def test_delay_combines_latency_and_serialization(self, monkeypatch):
        monkeypatch.setattr(link_mod, "LINK_BANDWIDTH", 1e6)
        link = Link("a", "b", latency=10e-6)
        assert link.delay_for(1000) == pytest.approx(10e-6 + 1e-3)

    def test_byte_accounting(self):
        link = Link("a", "b")
        link.record(100)
        link.record(200)
        assert link.bytes_carried == 300
        assert link.datagrams_carried == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Link("a", "b", latency=-1)


class TestPcieBus:
    def test_transfer_accounts_and_delays(self, monkeypatch):
        monkeypatch.setattr(pcie_mod, "CROSSING_LATENCY", 1e-6)
        monkeypatch.setattr(pcie_mod, "BANDWIDTH", 1e9)
        env = Environment()
        bus = PcieBus(env)
        delay = bus.transfer(1000)
        assert delay == pytest.approx(1e-6 + 1e-6)
        assert bus.crossings == 1
        assert bus.bytes_moved == 1000

    def test_delay_for_does_not_account(self):
        env = Environment()
        bus = PcieBus(env)
        bus.delay_for(500)
        assert bus.crossings == 0

    def test_negative_size_rejected(self):
        env = Environment()
        bus = PcieBus(env)
        with pytest.raises(ValueError):
            bus.transfer(-1)


class TestNic:
    def test_rx_station_charges_per_packet(self, monkeypatch):
        monkeypatch.setattr(nic_mod, "RX_PER_PACKET", 1e-6)
        env = Environment()
        nic = Nic(env, "n")
        assert nic.rx_station.submit(make_dgram()) == pytest.approx(1e-6)
        assert nic.rx_station.jobs_served == 1


class _MarkProgram(PacketProgram):
    def __init__(self, name="mark"):
        super().__init__(name)

    def match(self, dgram):
        return dgram.dst.port == 2000

    def handle(self, dgram):
        dgram.headers["marked"] = True
        return ProgramResult(action=PacketAction.PASS)


class TestSmartNic:
    def test_install_consumes_slots(self):
        env = Environment()
        nic = SmartNic(env, "sn", offload_slots=2)
        nic.install(_MarkProgram("p1"))
        nic.install(_MarkProgram("p2"))
        with pytest.raises(ResourceExhaustedError):
            nic.install(_MarkProgram("p3"))

    def test_uninstall_returns_slots(self):
        env = Environment()
        nic = SmartNic(env, "sn", offload_slots=1)
        program = _MarkProgram()
        nic.install(program)
        nic.uninstall(program)
        nic.install(_MarkProgram("again"))  # fits again

    def test_program_gets_compute_station(self):
        env = Environment()
        nic = SmartNic(env, "sn")
        program = _MarkProgram()
        nic.install(program)
        assert program.station is nic.compute

    def test_matching_programs_in_install_order(self):
        env = Environment()
        nic = SmartNic(env, "sn")
        p1, p2 = _MarkProgram("p1"), _MarkProgram("p2")
        nic.install(p1)
        nic.install(p2)
        assert nic.matching_programs(make_dgram()) == [p1, p2]
        assert nic.matching_programs(make_dgram(dst=Address("b", 1))) == []


class TestProgrammableSwitch:
    def test_install_within_footprint(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw", stages=4, sram_kb=256)
        switch.install(_MarkProgram(), SwitchProgramFootprint(stages=2, sram_kb=128))
        assert switch.stage_pool.available == 2
        assert switch.sram_pool.available == 128

    def test_install_beyond_capacity_raises(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw", stages=2, sram_kb=64)
        with pytest.raises(ResourceExhaustedError):
            switch.install(
                _MarkProgram(), SwitchProgramFootprint(stages=3, sram_kb=1)
            )

    def test_uninstall_returns_resources(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw", stages=2, sram_kb=64)
        program = _MarkProgram()
        footprint = SwitchProgramFootprint(stages=2, sram_kb=64)
        switch.install(program, footprint)
        switch.uninstall(program)
        assert switch.can_fit(footprint)

    def test_forward_accounting(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw")
        dgram = make_dgram()
        switch.record_forward(dgram)
        assert switch.datagrams_forwarded == 1
        assert "switch:sw" in dgram.hops

    def test_negative_footprint_rejected(self):
        with pytest.raises(ValueError):
            SwitchProgramFootprint(stages=-1)


class TestLossProgram:
    def test_drop_first_n(self):
        program = LossProgram("loss", drop_first=2)
        results = [program.run(make_dgram()) for _ in range(4)]
        actions = [r.action for r in results]
        assert actions == [
            PacketAction.DROP,
            PacketAction.DROP,
            PacketAction.PASS,
            PacketAction.PASS,
        ]
        assert program.dropped == 2

    def test_predicate_scopes_matching(self):
        program = LossProgram(
            "loss", predicate=lambda d: d.dst.port == 7, drop_first=1
        )
        assert not program.match(make_dgram())
        assert program.match(make_dgram(dst=Address("b", 7)))

    def test_random_loss_is_seeded(self):
        def drops(seed):
            program = LossProgram("loss", drop_rate=0.5, seed=seed)
            return [
                program.run(make_dgram()).action is PacketAction.DROP
                for _ in range(50)
            ]

        assert drops(1) == drops(1)
        assert drops(1) != drops(2)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LossProgram("loss", drop_rate=1.5)


class TestDatagram:
    def test_size_defaults_to_payload_length(self):
        dgram = make_dgram(payload=b"12345", size=0)
        assert dgram.size == 5

    def test_uids_are_unique(self):
        assert make_dgram().uid != make_dgram().uid

    def test_address_validation(self):
        with pytest.raises(ValueError):
            Address("", 80)
        with pytest.raises(ValueError):
            Address("h", 0)
        with pytest.raises(ValueError):
            Address("h", 70000)

    def test_address_string_form(self):
        assert str(Address("host", 8080)) == "host:8080"


class TestSwitchInstallGuards:
    """Regression: double-install used to overwrite the footprint entry,
    leaking the first footprint's tokens forever after uninstall."""

    def test_double_install_rejected(self):
        from repro.errors import ChunnelArgumentError

        env = Environment()
        switch = ProgrammableSwitch(env, "sw", stages=8, sram_kb=512)
        program = _MarkProgram()
        switch.install(program, SwitchProgramFootprint(stages=2, sram_kb=128))
        with pytest.raises(ChunnelArgumentError):
            switch.install(
                program, SwitchProgramFootprint(stages=1, sram_kb=64)
            )
        # The failed re-install consumed nothing; uninstall returns all.
        switch.uninstall(program)
        assert switch.stage_pool.available == 8
        assert switch.sram_pool.available == 512

    def test_uninstall_unknown_program_raises_clear_error(self):
        from repro.errors import ChunnelArgumentError

        env = Environment()
        switch = ProgrammableSwitch(env, "sw")
        with pytest.raises(ChunnelArgumentError, match="not installed"):
            switch.uninstall(_MarkProgram())


class TestSwitchFailRecoverMidTraffic:
    def test_programs_skipped_while_failed_and_resume_after(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw", stages=4, sram_kb=256)
        program = _MarkProgram()
        switch.install(program, SwitchProgramFootprint(stages=1, sram_kb=64))
        dgram = make_dgram()
        assert switch.matching_programs(dgram) == [program]
        switch.fail("test")
        assert switch.matching_programs(dgram) == []
        assert switch.programs == [program]  # stays installed for teardown
        switch.recover("test")
        assert switch.matching_programs(dgram) == [program]
        assert switch.failures == 1

    def test_state_watchers_fire_on_both_edges(self):
        env = Environment()
        switch = ProgrammableSwitch(env, "sw")
        events = []
        switch.on_state_change(
            lambda device, failed, reason: events.append((failed, reason))
        )
        switch.fail("injected")
        switch.fail("injected-again")  # idempotent: no second event
        switch.recover("fixed")
        assert events == [(True, "injected"), (False, "fixed")]
