"""Platform assembly: simulator + rails + components + meter.

``Platform.am57()`` mirrors the paper's AM57EVM prototype (2x Cortex-A15,
SGX544-like GPU, C66x-like DSP); ``Platform.bbb()`` mirrors the BeagleBone
Black + WiLink8 WiFi prototype.  ``Platform.full()`` carries all four
components on one board for convenience.
"""

from repro.hw.cpu import CpuCluster
from repro.hw.display import OledDisplay
from repro.hw.dsp import Dsp
from repro.hw.dvfs import FreqDomain
from repro.hw.gps import Gps
from repro.hw.gpu import Gpu
from repro.hw.lte import LteNic
from repro.hw.meter import PowerMeter
from repro.hw.nic import WifiNic
from repro.hw.power import CpuPowerModel, NicPowerModel
from repro.hw.rail import PowerRail
from repro.sim.engine import Simulator

CPU = "cpu"
GPU = "gpu"
DSP = "dsp"
WIFI = "wifi"
DISPLAY = "display"
GPS = "gps"
LTE = "lte"

#: the four components of the paper's prototypes
COMPONENTS = (CPU, GPU, DSP, WIFI)
#: plus the §7 extension hardware
EXTENDED_COMPONENTS = COMPONENTS + (DISPLAY, GPS, LTE)


class Platform:
    """A simulated board: components, one rail per component, one meter."""

    def __init__(self, sim, components=COMPONENTS, n_cpu_cores=2):
        self.sim = sim
        self.rails = {}
        self.cpu = None
        self.gpu = None
        self.dsp = None
        self.nic = None
        self.display = None
        self.gps = None
        self.lte = None

        if CPU in components:
            rail = self._add_rail(CPU)
            domain = FreqDomain(sim, CPU, CpuPowerModel().opps, initial_index=0)
            self.cpu = CpuCluster(
                sim, rail, domain, CpuPowerModel(), n_cores=n_cpu_cores
            )
        if GPU in components:
            self.gpu = Gpu(sim, self._add_rail(GPU))
        if DSP in components:
            self.dsp = Dsp(sim, self._add_rail(DSP))
        if WIFI in components:
            self.nic = WifiNic(sim, self._add_rail(WIFI), NicPowerModel())
        if DISPLAY in components:
            self.display = OledDisplay(sim, self._add_rail(DISPLAY))
        if GPS in components:
            self.gps = Gps(sim, self._add_rail(GPS))
        if LTE in components:
            self.lte = LteNic(sim, self._add_rail(LTE))

        self.meter = PowerMeter(sim, self.rails,
                                rng=sim.rng.stream("meter.noise"))

    def shutdown(self):
        """End the simulation and cut its devices' reference cycles.

        The simulator drops its pending events; each device forgets its
        signals' subscribers and the callbacks of the units it holds.
        Rails, traces, logs and the meter stay readable.
        """
        self.sim.shutdown()
        for device in (self.cpu, self.gpu, self.dsp, self.nic, self.lte):
            if device is not None:
                device.shutdown()

    def _add_rail(self, name):
        rail = PowerRail(self.sim, name)
        self.rails[name] = rail
        return rail

    def component(self, name):
        """Look a component up by rail name."""
        mapping = {CPU: self.cpu, GPU: self.gpu, DSP: self.dsp,
                   WIFI: self.nic, DISPLAY: self.display, GPS: self.gps,
                   LTE: self.lte}
        device = mapping.get(name)
        if device is None:
            raise KeyError("platform has no component {!r}".format(name))
        return device

    def idle_power(self, name):
        """The component's deep-idle rail power (what a psbox is fed while
        the hardware belongs to other apps)."""
        if name == CPU:
            return self.cpu.power_model.idle_w
        if name in (GPU, DSP):
            device = self.component(name)
            return device.power_model.idle_w + device.freq_domain.opps[0].static_w
        if name == WIFI:
            return self.nic.power_model.psm_w
        if name == DISPLAY:
            return self.display.base_w
        if name == GPS:
            return self.gps.off_w
        if name == LTE:
            return self.lte.power_model.psm_w
        raise KeyError(name)

    @classmethod
    def am57(cls, seed=0, n_cpu_cores=2):
        """The paper's CPU+GPU+DSP board."""
        return cls(Simulator(seed), components=(CPU, GPU, DSP),
                   n_cpu_cores=n_cpu_cores)

    @classmethod
    def bbb(cls, seed=0):
        """The paper's WiFi board (single-core CPU + WiLink8)."""
        return cls(Simulator(seed), components=(CPU, WIFI), n_cpu_cores=1)

    @classmethod
    def full(cls, seed=0, n_cpu_cores=2):
        """All four components of the paper's prototypes on one board."""
        return cls(Simulator(seed), components=COMPONENTS,
                   n_cpu_cores=n_cpu_cores)

    @classmethod
    def extended(cls, seed=0, n_cpu_cores=2):
        """The full board plus the §7 extension hardware
        (OLED display, GPS, LTE modem)."""
        return cls(Simulator(seed), components=EXTENDED_COMPONENTS,
                   n_cpu_cores=n_cpu_cores)
