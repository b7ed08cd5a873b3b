"""Host context and process-tree accounting read from ``/proc``.

Ray's raylet reaps the worker processes it starts, so the CPU time of a
worker or actor that exits never reaches the driver's ``cutime``. The
:class:`ProcTree` sampler therefore walks the driver's process tree
every ``interval`` seconds and keeps each process's last-seen CPU time;
a process that exits between two samples loses at most one interval.
"""

from __future__ import annotations

import os
import signal
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


# --- host context -------------------------------------------------------


def usable_cpus() -> float:
    """CPUs this process may run on: the affinity mask, capped by a
    cgroup CPU quota when one is set (v2 ``cpu.max``, v1 CFS quota)."""
    cpus = float(len(os.sched_getaffinity(0)))
    quota = None
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            q, period = f.read().split()
            if q != "max":
                quota = int(q) / int(period)
    except (OSError, ValueError):
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
                q = int(f.read())
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
                period = int(f.read())
            if q > 0 and period > 0:
                quota = q / period
        except (OSError, ValueError):
            pass
    return min(cpus, quota) if quota else cpus


def loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    steal = vals[7] if len(vals) > 7 else 0
    return steal, sum(vals[:8])


class HostContext:
    """Context fields recorded around a run; never compared metrics."""

    def __init__(self, ray_cpus: int):
        self.ray_cpus = ray_cpus
        self.usable = usable_cpus()
        self.load_start = loadavg()
        self.ticks_start = cpu_ticks()

    def finish(self) -> dict:
        steal1, total1 = cpu_ticks()
        steal0, total0 = self.ticks_start
        d_total = max(total1 - total0, 1)
        return {
            "host.usable_cpus": self.usable,
            "host.ray_cpus": self.ray_cpus,
            "host.overcommitted": self.ray_cpus > self.usable,
            "host.loadavg_start": self.load_start,
            "host.loadavg_end": loadavg(),
            "host.steal_s": (steal1 - steal0) / CLK_TCK,
            "host.steal_share": (steal1 - steal0) / d_total,
        }


# --- process tree -------------------------------------------------------


def _read_stat(pid: str):
    """(ppid, state, cpu_s, starttime) of one process, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'
    fields = data[data.rindex(")") + 2 :].split()
    return int(fields[1]), fields[0], (int(fields[11]) + int(fields[12])) / CLK_TCK, int(fields[19])


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def driver_rss_peak_reset() -> None:
    """Reset this process's peak RSS (VmHWM) so the next read covers
    only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def driver_rss_peak_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Window:
    """CPU and memory of the process tree over one measured interval."""

    def __init__(self):
        self.base: dict = {}
        self.overhead0 = 0.0
        self.peak_pss_kb = 0
        self.cpu: dict[str, float] = {}


class ProcTree:
    """Background sampler of the driver's process tree.

    Keys processes by (pid, start time) so a reused pid is a new
    process. Classifies each as ``driver``, ``worker`` (Ray worker and
    actor processes, whose titles start with ``ray::``) or ``system``
    (raylet, GCS, log monitor and agents). The sampler's own CPU time is
    tracked and subtracted from the driver's.
    """

    def __init__(self, interval: float = 0.1, pss_every: int = 2):
        self.root = os.getpid()
        self.interval = interval
        self.pss_every = pss_every
        self.seen: dict[tuple[int, int], dict] = {}
        self.overhead_cpu = 0.0
        self._windows: list[Window] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._n = 0

    def start(self) -> None:
        self.sample()
        self._thread = threading.Thread(target=self._run, name="proctree", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        t0 = time.thread_time()
        with self._lock:
            self._sample_locked()
            self.overhead_cpu += time.thread_time() - t0

    def _sample_locked(self) -> None:
        stats = {}
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            st = _read_stat(name)
            if st is None:
                continue
            pid = int(name)
            stats[pid] = st
            children.setdefault(st[0], []).append(pid)
        tree, todo = [], [self.root]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, ()))
        self._n += 1
        want_pss = self._n % self.pss_every == 0 and self._windows
        pss_total = 0
        for pid in tree:
            _ppid, state, cpu, start = stats[pid]
            if state == "Z":
                continue
            key = (pid, start)
            rec = self.seen.get(key)
            if rec is None:
                rec = self.seen[key] = {"kind": "system", "cpu": cpu}
            rec["cpu"] = cpu
            if pid == self.root:
                rec["kind"] = "driver"
            elif rec["kind"] != "worker":
                cmd = _cmdline(pid)
                if cmd.startswith("ray::") or "default_worker.py" in cmd:
                    rec["kind"] = "worker"
            if want_pss:
                pss_total += _pss_kb(pid)
        if want_pss:
            for w in self._windows:
                w.peak_pss_kb = max(w.peak_pss_kb, pss_total)

    def ray_cpu(self) -> float:
        """CPU-seconds the tree's Ray processes have used so far."""
        self.sample()
        with self._lock:
            return sum(r["cpu"] for r in self.seen.values() if r["kind"] != "driver")

    def open_window(self) -> Window:
        w = Window()
        self.sample()
        with self._lock:
            w.base = {k: r["cpu"] for k, r in self.seen.items()}
            w.overhead0 = self.overhead_cpu
            self._windows.append(w)
        return w

    def close_window(self, w: Window) -> Window:
        """Final sample; fills ``w.cpu`` with CPU-seconds per kind."""
        self.sample()
        with self._lock:
            self._windows.remove(w)
            cpu = {"driver": 0.0, "worker": 0.0, "system": 0.0}
            for key, rec in self.seen.items():
                cpu[rec["kind"]] += rec["cpu"] - w.base.get(key, 0.0)
            cpu["driver"] -= self.overhead_cpu - w.overhead0
            w.cpu = cpu
        return w

    def survivors(self) -> list[int]:
        """Pids of processes seen in the tree (driver excepted) that are
        still running."""
        alive = []
        for (pid, start), rec in self.seen.items():
            if rec["kind"] == "driver":
                continue
            st = _read_stat(str(pid))
            if st is not None and st[3] == start and st[1] != "Z":
                alive.append(pid)
        return alive

    def reap_survivors(self, grace_s: float = 20.0) -> int:
        """Wait for every process seen in the tree to exit; SIGKILL what
        is left after ``grace_s``. Returns how many had to be killed and
        raises if any still runs afterwards."""
        deadline = time.monotonic() + grace_s
        while self.survivors() and time.monotonic() < deadline:
            _reap_zombie_children()
            time.sleep(0.2)
        left = self.survivors()
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        while self.survivors() and time.monotonic() < deadline:
            _reap_zombie_children()
            time.sleep(0.1)
        _reap_zombie_children()
        still = self.survivors()
        if still:
            raise RuntimeError(f"Ray processes {still} survived SIGKILL")
        return len(left)


def _reap_zombie_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return

