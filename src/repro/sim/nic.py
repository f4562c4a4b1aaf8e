"""NIC and SmartNIC models.

A plain :class:`Nic` is a receive-side queueing station: every datagram
arriving at a host from the network is serviced by the NIC before it enters
the host stack, so a saturated receiver shows up as NIC queueing delay
(this is the "Server Accelerated" bottleneck in the paper's Figure 5).

A :class:`SmartNic` adds what offload implementations need:

* a pool of *offload slots* (:class:`~repro.sim.resources.TokenResource`) —
  installing a program consumes slots, so contention between applications for
  the device is explicit (§6's scheduling discussion);
* a *compute station* modelling the NIC cores/FPGA that run offloaded
  Chunnels;
* a :class:`~repro.sim.pcie.PcieBus` connecting it to the host, so Chunnel
  placements that bounce data NIC→CPU→NIC pay for it (§6's reordering
  discussion).
"""

from __future__ import annotations

from .datagram import Datagram
from .eventloop import Environment
from .pcie import PcieBus
from .programs import PacketProgram
from .resources import Station, TokenResource

__all__ = ["Nic", "SmartNic"]

#: NIC receive service time per datagram (one receive queue).
RX_PER_PACKET = 0.5e-6
#: SmartNIC compute: service time per datagram an offloaded Chunnel
#: handles, and the parallel compute units serving them.
COMPUTE_PER_PACKET = 0.3e-6
COMPUTE_UNITS = 2


class Nic:
    """Receive-path NIC: a FIFO station every inbound datagram crosses."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        #: Precomputed ``Datagram.visit`` label — built per delivery before,
        #: which showed up in profiles at fleet scale.
        self.rx_visit_label = f"nic:{name}"
        self.rx_station = Station(env, service_time=RX_PER_PACKET, name=f"{name}.rx")
        #: Fault-injection state: a failed device stops running its
        #: installed programs (the programmable fast path dies) but keeps
        #: forwarding/receiving — a dead port would make live
        #: reconfiguration moot, while a wedged offload engine is exactly
        #: the failure the reconfig subsystem degrades around.
        self.failed = False
        self.failures = 0
        self._state_watchers: list = []

    def on_state_change(self, callback) -> None:
        """Subscribe ``callback(device, failed, reason)`` to fail/recover."""
        self._state_watchers.append(callback)

    def fail(self, reason: str = "injected-failure") -> None:
        """Mark the device failed; synchronously notifies watchers."""
        if self.failed:
            return
        self.failed = True
        self.failures += 1
        for callback in list(self._state_watchers):
            callback(self, True, reason)

    def recover(self, reason: str = "recovered") -> None:
        """Clear the failure; synchronously notifies watchers."""
        if not self.failed:
            return
        self.failed = False
        for callback in list(self._state_watchers):
            callback(self, False, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic {self.name!r} rx={self.rx_station.jobs_served}>"


class SmartNic(Nic):
    """A NIC with programmable compute, offload slots, and a PCIe bus.

    ``offload_slots`` is how many Chunnel offload programs the device can
    host at once.
    """

    def __init__(self, env: Environment, name: str, offload_slots: int = 4):
        super().__init__(env, name)
        self.slots = TokenResource(env, offload_slots, name=f"{name}.slots")
        self.compute = Station(
            env,
            service_time=COMPUTE_PER_PACKET,
            servers=COMPUTE_UNITS,
            name=f"{name}.compute",
        )
        self.pcie = PcieBus(env, name=f"{name}.pcie")
        self.programs: list[PacketProgram] = []

    def install(self, program: PacketProgram, slots: int = 1) -> None:
        """Install ``program``, consuming ``slots`` offload slots.

        Raises
        ------
        repro.errors.ResourceExhaustedError
            If the device has no free slots.
        """
        from ..errors import ResourceExhaustedError

        if not self.slots.try_request(slots):
            raise ResourceExhaustedError(
                f"{self.name}: no free offload slots for {program.name!r} "
                f"({self.slots.available}/{self.slots.capacity} free)"
            )
        if program.station is None:
            program.station = self.compute
        self.programs.append(program)

    def uninstall(self, program: PacketProgram, slots: int = 1) -> None:
        """Remove ``program`` and return its slots."""
        self.programs.remove(program)
        self.slots.release(slots)

    def matching_programs(self, dgram: Datagram) -> list[PacketProgram]:
        """Programs that want to process ``dgram``, in install order.

        A failed device runs nothing: its programs stay installed (the
        bookkeeping survives for teardown) but no longer touch traffic.
        """
        if self.failed:
            return []
        return [p for p in self.programs if p.match(dgram)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SmartNic {self.name!r} programs={len(self.programs)} "
            f"slots={self.slots.available}/{self.slots.capacity}>"
        )
