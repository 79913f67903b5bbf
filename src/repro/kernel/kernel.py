"""The kernel facade: wires schedulers, governors and drivers to a platform."""

import itertools
from dataclasses import dataclass

from repro.kernel.accel_sched import AccelScheduler
from repro.kernel.governor import OndemandGovernor
from repro.kernel.net_sched import PacketScheduler
from repro.kernel.smp import SmpScheduler
from repro.kernel.task import Task
from repro.sim.clock import from_msec, from_usec


@dataclass
class KernelConfig:
    """Tunables and ablation switches.

    ``loans_enabled`` — charge coscheduling losses to the sandboxed app
    (§4.2 CPU); disabling it makes unsandboxed apps absorb the loss.
    ``draining_enabled`` — drain in-flight foreign work at temporal-balloon
    boundaries; disabling it leaks overlapping power into psbox windows.
    ``vstate_enabled`` — virtualize operating power states per psbox;
    disabling it lets lingering DVFS / NIC state cross psbox boundaries.
    """

    ipi_delay: int = from_usec(15)
    loans_enabled: bool = True
    draining_enabled: bool = True
    vstate_enabled: bool = True
    cpu_governor_window: int = from_msec(25)
    gpu_governor_window: int = from_msec(20)


class Kernel:
    """One booted OS instance on a :class:`repro.hw.platform.Platform`."""

    def __init__(self, platform, config=None):
        self.platform = platform
        self.sim = platform.sim
        self.config = config or KernelConfig()
        self.apps = {}
        self.tasks = []
        self._app_ids = itertools.count(1)
        self._task_ids = itertools.count(1)

        self.smp = None
        self.cpu_governor = None
        self.gpu_sched = None
        self.gpu_governor = None
        self.dsp_sched = None
        self.net_sched = None
        self.lte_sched = None

        if platform.cpu is not None:
            self.smp = SmpScheduler(
                self,
                platform.cpu,
                ipi_delay=self.config.ipi_delay,
                loans_enabled=self.config.loans_enabled,
            )
            self.cpu_governor = OndemandGovernor(
                self.sim,
                platform.cpu.freq_domain,
                platform.cpu.max_core_utilization,
                window=self.config.cpu_governor_window,
            )
        if platform.gpu is not None:
            self.gpu_governor = OndemandGovernor(
                self.sim,
                platform.gpu.freq_domain,
                platform.gpu.utilization,
                window=self.config.gpu_governor_window,
            )
            self.gpu_sched = AccelScheduler(
                self,
                platform.gpu,
                "gpu",
                state_holder=self.gpu_governor if self.config.vstate_enabled
                else None,
                draining_enabled=self.config.draining_enabled,
            )
        if platform.dsp is not None:
            # The DSP runs at a fixed operating point (as on the C66x);
            # there is no governor state to virtualize.
            self.dsp_sched = AccelScheduler(
                self,
                platform.dsp,
                "dsp",
                state_holder=None,
                draining_enabled=self.config.draining_enabled,
            )
        if platform.nic is not None:
            holder = None
            if self.config.vstate_enabled:
                from repro.core.vstate import SnapshotContextHolder

                holder = SnapshotContextHolder(platform.nic)
            self.net_sched = PacketScheduler(
                self,
                platform.nic,
                state_holder=holder,
                draining_enabled=self.config.draining_enabled,
            )
        if platform.lte is not None:
            # No state holder: LTE RRC states are not OS-controllable, so
            # there is nothing the kernel could virtualize (paper §7).
            self.lte_sched = PacketScheduler(
                self,
                platform.lte,
                state_holder=None,
                draining_enabled=self.config.draining_enabled,
                name="lte",
            )
        #: device name -> its temporal-balloon scheduler
        self.balloon_scheds = {
            sched.device.name: sched
            for sched in (self.gpu_sched, self.dsp_sched, self.net_sched,
                          self.lte_sched)
            if sched is not None
        }

    # -- app/task management ----------------------------------------------------

    @property
    def now(self):
        """clock_gettime(): the timestamp source shared with the meter."""
        return self.sim.now

    def next_app_id(self):
        return next(self._app_ids)

    def next_task_id(self):
        return next(self._task_ids)

    def register_app(self, app):
        self.apps[app.id] = app

    def spawn(self, app, behavior, name="", weight=1.0):
        """Create and start a task running ``behavior`` (a generator)."""
        if self.smp is None:
            raise RuntimeError(
                "platform has no CPU: tasks cannot run; drive devices "
                "directly or add a CPU to the platform"
            )
        task = Task(self, app, behavior, name=name, weight=weight)
        self.tasks.append(task)
        app.tasks.append(task)
        self.sim.call_soon(task.start)
        return task

    def accel_scheduler(self, device):
        sched = self.balloon_scheds.get(device)
        if not isinstance(sched, AccelScheduler):
            raise KeyError("no accelerator scheduler for {!r}".format(device))
        return sched

    def packet_scheduler(self, device):
        sched = self.balloon_scheds.get(device)
        if not isinstance(sched, PacketScheduler):
            raise KeyError("no packet scheduler for {!r}".format(device))
        return sched

    def logs(self):
        """Every EventTrace log this kernel owns (the fingerprint set)."""
        logs = [] if self.smp is None else [self.smp.log]
        for sched in self.balloon_scheds.values():
            logs += (sched.log, sched.device.log)
        for governor in (self.cpu_governor, self.gpu_governor):
            if governor is not None:
                logs.append(governor.log)
        return logs

    def run(self, until):
        """Advance the simulation (convenience passthrough)."""
        return self.sim.run(until=until)

    def shutdown(self):
        """End this boot: cut every reference cycle it holds.

        The platform drops pending events and device callbacks, and the
        kernel drops its subsystems' back-references, hooks and callbacks,
        its tasks' suspended behaviours and its psbox manager's links.  A
        boot that has been shut down is freed by reference counting as
        soon as its owner drops it.  Everything a finished run is read for
        stays readable and reads the same: rails and the meter, every log
        in :meth:`logs`, tasks, app counters, psbox windows, ``sim.now``.
        Submitting work, psbox reads and running the simulator are
        unsupported afterwards.  A second call does nothing.
        """
        self.platform.shutdown()
        if self.smp is not None:
            self.smp.shutdown()
        for sched in self.balloon_scheds.values():
            sched.shutdown()
        for task in self.tasks:
            task.behavior.close()
            if task.work is not None:
                task.work.on_complete = None
            task.kernel = task.app = None
        for app in self.apps.values():
            app.kernel = None
            app.psboxes = []   # each psbox keeps its app, which readers use
        for owner in (getattr(self, "psbox_manager", None),
                      getattr(self, "powercap", None)):
            if owner is not None:
                owner.shutdown()
