"""Programmable (Tofino-like) switch model.

A switch forwards at line rate — its per-datagram latency is a small
constant — but its *programmability* is a scarce resource: a fixed number of
match-action stages and a fixed SRAM budget.  Installing an in-network
Chunnel implementation (a :class:`~repro.sim.programs.PacketProgram`)
consumes stages and SRAM; when two applications want more than the switch
has, someone must lose, which is exactly the multi-resource scheduling
problem §6 of the paper raises (and which
:mod:`repro.core.scheduler` addresses).
"""

from __future__ import annotations

from dataclasses import dataclass

from .datagram import Datagram
from .eventloop import Environment
from .faults import FailableDevice
from .programs import PacketProgram
from .resources import TokenResource

__all__ = ["ProgrammableSwitch", "SwitchProgramFootprint"]


@dataclass(frozen=True)
class SwitchProgramFootprint:
    """Resources one installed program consumes on a switch."""

    stages: int = 1
    sram_kb: int = 64

    def __post_init__(self) -> None:
        if self.stages < 0 or self.sram_kb < 0:
            raise ValueError("footprint components must be non-negative")


class ProgrammableSwitch(FailableDevice):
    """A switch with match-action stages, SRAM, and installable programs.

    Datagrams crossing the switch incur :attr:`forward_latency`.  Installed
    programs are consulted in install order for every transiting datagram;
    programs run "at line rate" (no queueing station) unless one is attached
    explicitly.
    """

    #: Per-crossing forwarding delay of the fixed-function pipeline.
    forward_latency = 0.4e-6

    def __init__(
        self,
        env: Environment,
        name: str,
        stages: int = 12,
        sram_kb: int = 4096,
    ):
        super().__init__()
        self.env = env
        self.name = name
        self.stage_pool = TokenResource(env, stages, name=f"{name}.stages")
        self.sram_pool = TokenResource(env, sram_kb, name=f"{name}.sram")
        self.programs: list[PacketProgram] = []
        self._footprints: dict[PacketProgram, SwitchProgramFootprint] = {}
        self.datagrams_forwarded = 0

    # -- program management -------------------------------------------------
    def can_fit(self, footprint: SwitchProgramFootprint) -> bool:
        """True if the switch currently has room for ``footprint``."""
        return (
            footprint.stages <= self.stage_pool.available
            and footprint.sram_kb <= self.sram_pool.available
        )

    def install(
        self,
        program: PacketProgram,
        footprint: SwitchProgramFootprint = SwitchProgramFootprint(),
    ) -> None:
        """Install ``program``, consuming its footprint.

        Raises
        ------
        repro.errors.ChunnelArgumentError
            If ``program`` is already installed.  Re-installing would
            overwrite the recorded footprint, leaking the first
            footprint's stage/SRAM tokens forever after ``uninstall``.
        repro.errors.ResourceExhaustedError
            If stages or SRAM are insufficient.
        """
        from ..errors import ChunnelArgumentError, ResourceExhaustedError

        if program in self._footprints:
            raise ChunnelArgumentError(
                f"{self.name}: program {program.name!r} is already installed; "
                "uninstall it before re-installing"
            )
        if not self.can_fit(footprint):
            raise ResourceExhaustedError(
                f"{self.name}: cannot fit {program.name!r} "
                f"(needs {footprint.stages} stages / {footprint.sram_kb} KB; "
                f"free {self.stage_pool.available} / {self.sram_pool.available})"
            )
        self.stage_pool.try_request(footprint.stages)
        self.sram_pool.try_request(footprint.sram_kb)
        self.programs.append(program)
        self._footprints[program] = footprint

    def uninstall(self, program: PacketProgram) -> None:
        """Remove ``program`` and return its resources.

        Raises
        ------
        repro.errors.ChunnelArgumentError
            If ``program`` is not installed on this switch.
        """
        if program not in self._footprints:
            from ..errors import ChunnelArgumentError

            raise ChunnelArgumentError(
                f"{self.name}: program {program.name!r} is not installed"
            )
        footprint = self._footprints.pop(program)
        self.programs.remove(program)
        self.stage_pool.release(footprint.stages)
        self.sram_pool.release(footprint.sram_kb)

    def _lose_soft_state(self) -> None:
        # SRAM does not survive the ASIC restarting: a recovered program
        # never serves pre-failure state.
        for program in self.programs:
            program.clear()

    # -- data path ------------------------------------------------------------
    def matching_programs(self, dgram: Datagram) -> list[PacketProgram]:
        """Programs that want to process ``dgram``, in install order.

        A failed switch runs none: programs stay installed for teardown
        bookkeeping but no longer touch transiting traffic.
        """
        if self.failed:
            return []
        return [p for p in self.programs if p.match(dgram)]

    def record_forward(self, dgram: Datagram) -> None:
        """Account a datagram transiting the switch."""
        self.datagrams_forwarded += 1
        dgram.visit(f"switch:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProgrammableSwitch {self.name!r} programs={len(self.programs)} "
            f"stages={self.stage_pool.available}/{self.stage_pool.capacity}>"
        )
