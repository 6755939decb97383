"""One frozen resolution of every behaviour-affecting ``REPRO_*`` knob.

Historically each component read its own environment knob at
construction time (``ddio_forced()`` in ``Host.__init__``,
``uncore_enabled()`` in the CHA wiring, ...). Within one process that
was merely untidy; with several hosts composed into one cluster it
became a correctness hazard — two hosts built a few statements apart
could observe *different* knob values if the environment mutated
between constructions, silently breaking the shared-clock contract.

:class:`KnobSet` resolves the full knob surface exactly once and is
passed down explicitly: a :class:`~repro.topology.cluster.Cluster`
resolves one set and hands the same frozen object to every host it
builds. The checkpoint layer's knob fingerprint
(:func:`repro.sim.checkpoint._knob_fingerprint`) and the run cache's
knob-namespace keys are derived from the same resolution, so the three
consumers can never disagree about what "the current knobs" are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class KnobSet:
    """The resolved values of the behaviour-affecting ``REPRO_*`` knobs.

    Field semantics match the accessor each value is resolved through:

    * ``kernel`` / ``uncore`` — the SoA DRAM-channel and uncore
      kernels (``REPRO_KERNEL`` / ``REPRO_UNCORE``; bit-identical by
      contract, fingerprinted so a cached/checkpointed result can
      never mask a divergence);
    * ``ddio`` / ``bank_reg`` — tri-state config force-overrides
      (``REPRO_DDIO`` / ``REPRO_BANK_REG``; ``None`` defers to the
      :class:`~repro.topology.presets.HostConfig`);
    * ``validate`` — runtime invariant checking (``REPRO_VALIDATE``).
    """

    kernel: bool
    uncore: bool
    ddio: Optional[bool]
    bank_reg: Optional[bool]
    validate: bool

    @classmethod
    def resolve(cls) -> "KnobSet":
        """Read every knob from the environment, once, right now."""
        from repro.dram.kernel import kernel_enabled
        from repro.dram.regulator import bank_reg_forced
        from repro.uncore.kernel import uncore_enabled
        from repro.uncore.llc import ddio_forced
        from repro.validate.invariants import enabled as validate_enabled

        return cls(
            kernel=kernel_enabled(),
            uncore=uncore_enabled(),
            ddio=ddio_forced(),
            bank_reg=bank_reg_forced(),
            validate=validate_enabled(),
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The checkpoint-compatible ``{knob: value}`` mapping."""
        return asdict(self)
