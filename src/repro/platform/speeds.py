"""DVFS speed sets and the power/energy model of Section 3.5 / 6.1.2.

The default configuration is the Intel XScale model used by the paper's
simulations: five speeds (0.15 to 1 GHz), dynamic powers 80 to 1600 mW,
computation leakage 80 mW, 16-byte-wide links at 1.2 GHz (19.2 GB/s per
direction) and a link energy of 6 pJ/bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["PowerModel", "SpeedLookup", "XSCALE", "xscale_model"]

GHZ = 1e9


@dataclass(frozen=True)
class PowerModel:
    """Discrete DVFS speeds and the associated power/energy constants.

    Attributes
    ----------
    speeds:
        Possible core speeds in Hz, strictly increasing.
    dyn_power:
        ``dyn_power[k]`` is the dynamic power (W) drawn while computing at
        ``speeds[k]``.
    comp_leak:
        Leakage power (W) dissipated by each *active* core over the whole
        period.
    comm_leak:
        Aggregated leakage power (W) of all routers/links (paper uses 0: it
        adds the same ``P_leak * T`` to every mapping).
    e_bit:
        Energy (J) to transfer one bit across one link hop.
    bandwidth:
        Link bandwidth in bytes/s, per direction.
    """

    speeds: tuple[float, ...]
    dyn_power: tuple[float, ...]
    comp_leak: float
    comm_leak: float
    e_bit: float
    bandwidth: float
    _sorted: tuple[float, ...] = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        if len(self.speeds) != len(self.dyn_power):
            raise ValueError("speeds and dyn_power must have the same length")
        if not self.speeds:
            raise ValueError("need at least one speed")
        if any(s2 <= s1 for s1, s2 in zip(self.speeds, self.speeds[1:])):
            raise ValueError("speeds must be strictly increasing")
        object.__setattr__(self, "_sorted", tuple(self.speeds))

    # ------------------------------------------------------------------
    @property
    def s_max(self) -> float:
        """Fastest available speed (Hz)."""
        return self.speeds[-1]

    @property
    def s_min(self) -> float:
        """Slowest available speed (Hz)."""
        return self.speeds[0]

    def power_at(self, speed: float) -> float:
        """Dynamic power (W) at ``speed`` (must be one of :attr:`speeds`)."""
        try:
            return self.dyn_power[self.speeds.index(speed)]
        except ValueError:
            raise ValueError(f"{speed} is not an available speed") from None

    def slowest_feasible(self, work: float, period: float) -> float | None:
        """Slowest speed executing ``work`` cycles within ``period`` seconds.

        Returns ``None`` when even the fastest speed cannot meet the period.
        This is the speed-selection rule the paper states ("the minimum
        speed that allows for computing all the stages within the period");
        see :meth:`best_feasible` for the energy-optimal variant.
        """
        if period <= 0:
            return None
        if work == 0:
            return self.speeds[0]
        # Tolerant comparison: callers reason in "work <= T * s" space and
        # float division must not flip a boundary case.
        for s in self.speeds:
            if work <= s * period * (1.0 + 1e-12):
                return s
        return None

    def best_feasible(self, work: float, period: float) -> float | None:
        """The *energy-optimal* feasible speed for ``work`` within ``period``.

        The paper's heuristics pick the slowest feasible speed, implicitly
        assuming energy per cycle ``P_dyn(s)/s`` increases with ``s``.  The
        XScale table violates this at the bottom (0.08/0.15 GHz > 0.17/0.4
        GHz per cycle), so the energy-minimal feasible speed can be a notch
        *above* the slowest feasible one.  All solvers in this library use
        this rule so that, e.g., Theorem 1's DP is genuinely optimal under
        the stated energy model.  Returns ``None`` when infeasible.
        """
        if period <= 0:
            return None
        if work == 0:
            # No dynamic energy either way; report the slowest speed.
            return self.speeds[0]
        best: float | None = None
        best_epc = float("inf")
        for s, pw in zip(self.speeds, self.dyn_power):
            if work <= s * period * (1.0 + 1e-12):
                epc = pw / s
                if epc < best_epc:
                    best, best_epc = s, epc
        return best

    def speed_lookup(self, period: float) -> "SpeedLookup":
        """:meth:`best_feasible` at ``period`` as lookup tables, for the
        DP heuristics that select speeds in bulk (see :class:`SpeedLookup`)."""
        return SpeedLookup(self, period)

    def comp_energy(self, work: float, speed: float, period: float) -> float:
        """Energy (J) of one active core: leakage over ``period`` + dynamic.

        ``E = P_leak * T + (work / speed) * P_dyn(speed)`` per Section 3.5.
        """
        return self.comp_leak * period + (work / speed) * self.power_at(speed)

    def comm_energy(self, volume_bytes: float) -> float:
        """Dynamic energy (J) of sending ``volume_bytes`` across one link hop."""
        return 8.0 * volume_bytes * self.e_bit

    def link_capacity(self, period: float) -> float:
        """Maximum bytes one link direction can carry per period."""
        return self.bandwidth * period

    def scaled(self, factor: float) -> "PowerModel":
        """A frequency-scaled copy of this model (heterogeneous cores).

        Every DVFS speed is multiplied by ``factor`` and the dynamic power
        scales linearly with it (same operating voltages, higher clock:
        ``P = C V^2 f``).  Leakage, link energy and bandwidth are
        unchanged — heterogeneity is a per-core *compute* property, the
        interconnect stays shared.  ``factor`` must be positive;
        ``scaled(1.0)`` returns ``self`` unchanged.
        """
        if factor <= 0:
            raise ValueError("speed scale factor must be positive")
        if factor == 1.0:
            return self
        return PowerModel(
            speeds=tuple(s * factor for s in self.speeds),
            dyn_power=tuple(p * factor for p in self.dyn_power),
            comp_leak=self.comp_leak,
            comm_leak=self.comm_leak,
            e_bit=self.e_bit,
            bandwidth=self.bandwidth,
        )


class SpeedLookup:
    """:meth:`PowerModel.best_feasible` at one period, by table lookup.

    Feasibility is monotone in the speed, so the slowest feasible speed
    index of a work is a bisection over the same ``s * period * (1 +
    1e-12)`` thresholds, and ``pick[j]`` is the first speed of minimal
    energy per cycle among ``speeds[j:]`` (``-1`` past the fastest).  As
    in ``best_feasible``, work 0 takes the slowest speed and a
    non-positive period has no feasible speed.  :meth:`index` answers
    one (finite) work and :meth:`indices` a numpy array of works, from
    the same tables; both return an index into ``speeds``, or ``-1``
    where ``best_feasible`` returns ``None``.
    """

    __slots__ = ("limits", "pick", "_valid")

    def __init__(self, model: PowerModel, period: float) -> None:
        self._valid = period > 0
        self.limits = [s * period * (1.0 + 1e-12) for s in model.speeds]
        epc = [pw / s for s, pw in zip(model.speeds, model.dyn_power)]
        pick = [-1] * (len(epc) + 1)
        for k in range(len(epc) - 1, -1, -1):
            nxt = pick[k + 1]
            pick[k] = k if nxt < 0 or epc[k] <= epc[nxt] else nxt
        self.pick = pick

    def index(self, work: float) -> int:
        """The speed index ``best_feasible(work, period)`` picks, or -1."""
        if not self._valid:
            return -1
        if work == 0:
            return 0
        return self.pick[bisect_left(self.limits, work)]

    def indices(self, works):
        """:meth:`index` of every element of the array ``works``."""
        import numpy as np

        works = np.asarray(works, dtype=float)
        if not self._valid:
            return np.full(works.shape, -1, dtype=np.intp)
        pick = np.asarray(self.pick, dtype=np.intp)
        idx = pick[np.searchsorted(self.limits, works)]
        return np.where(works == 0, 0, idx)


def xscale_model(
    bandwidth: float = 16 * 1.2 * GHZ,
    e_bit: float = 6e-12,
) -> PowerModel:
    """The Intel XScale configuration of Section 6.1.2."""
    return PowerModel(
        speeds=(0.15 * GHZ, 0.4 * GHZ, 0.6 * GHZ, 0.8 * GHZ, 1.0 * GHZ),
        dyn_power=(0.08, 0.17, 0.40, 0.90, 1.60),
        comp_leak=0.08,
        comm_leak=0.0,
        e_bit=e_bit,
        bandwidth=bandwidth,
    )


#: Module-level default XScale model (immutable).
XSCALE = xscale_model()
