"""Power model parameters for every component.

Defaults are calibrated to the magnitudes visible in the paper's figures
(CPU rail ~0.1-4 W, GPU/DSP/WiFi rails ~0.1-1.5 W).  Absolute numbers are
not the reproduction target — the entanglement structure is.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS operating point of a frequency domain."""

    freq_hz: float
    core_active_w: float
    uncore_w: float
    static_w: float

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ValueError("operating point frequency must be positive")


def _default_cpu_opps():
    # Loosely Cortex-A15-shaped: power grows super-linearly with frequency
    # because voltage scales with it.
    return (
        OperatingPoint(300e6, core_active_w=0.18, uncore_w=0.22, static_w=0.10),
        OperatingPoint(600e6, core_active_w=0.38, uncore_w=0.38, static_w=0.14),
        OperatingPoint(1000e6, core_active_w=0.72, uncore_w=0.60, static_w=0.20),
        OperatingPoint(1500e6, core_active_w=1.30, uncore_w=0.95, static_w=0.30),
    )


@dataclass(frozen=True)
class CpuPowerModel:
    """Cluster rail power: idle_w when fully idle, otherwise
    static + uncore + n_active * core_active at the current OPP.

    The shared static+uncore terms are what make ``P(2 cores) < 2 * P(1
    core)`` — the spatial-concurrency entanglement of Figure 3(a).
    """

    opps: tuple = field(default_factory=_default_cpu_opps)
    idle_w: float = 0.04

    def rail_power(self, opp, n_active):
        if n_active <= 0:
            return self.idle_w
        return opp.static_w + opp.uncore_w + n_active * opp.core_active_w


@dataclass(frozen=True)
class AccelPowerModel:
    """Accelerator rail power (GPU/DSP).

    ``P = idle + freq_power_factor * overlap_factor(k) * sum(command powers)``
    where ``overlap_factor(k) < 1`` for k > 1 concurrent commands: overlapped
    commands share functional units, so their combined power is sub-additive
    — the blurry-request-boundary entanglement of Figure 3(b).
    """

    opps: tuple
    idle_w: float = 0.05
    overlap_factors: tuple = (1.0, 0.85, 0.78, 0.72)
    freq_power_exponent: float = 1.6

    def overlap_factor(self, n_inflight):
        if n_inflight <= 0:
            return 0.0
        idx = min(n_inflight, len(self.overlap_factors)) - 1
        return self.overlap_factors[idx]

    def freq_factor(self, opp, nominal_freq):
        """``(f / f_nominal) ** freq_power_exponent`` at ``opp``."""
        return (opp.freq_hz / nominal_freq) ** self.freq_power_exponent

    def rail_power(self, opp, nominal_freq, command_powers):
        return self.scaled_rail_power(
            opp, self.freq_factor(opp, nominal_freq), command_powers
        )

    def scaled_rail_power(self, opp, freq_pf, command_powers):
        """:meth:`rail_power` given ``opp``'s :meth:`freq_factor`.

        An engine computes the factor once per OPP instead of once per
        power update.
        """
        if not command_powers:
            return self.idle_w + opp.static_w
        active = freq_pf * self.overlap_factor(len(command_powers)) * sum(
            command_powers
        )
        return self.idle_w + opp.static_w + active


@dataclass(frozen=True)
class NicPowerModel:
    """WiFi NIC rail power by state.

    ``psm_w`` — power-save mode (deep idle).
    ``cam_w`` — constantly-awake/active-idle (the "tail" state).
    ``tx_w``  — transmitting at power level index (list).

    The tail timer (ACTIVE -> PSM after inactivity) is lingering power state:
    a packet's energy impact outlives its transmission, Figure 3(c)'s WiFi
    analogue.
    """

    psm_w: float = 0.03
    cam_w: float = 0.28
    tx_levels_w: tuple = (0.70, 0.95, 1.25)
    rx_w: float = 0.80

    def tx_w(self, level):
        return self.tx_levels_w[level]
