"""Host fingerprint and /proc readers for the benchmark.

Everything here reads Linux ``/proc`` directly, so a result can be tied
to the machine and the load it ran under: a run taken on a busy host
shows it in its load average and steal ticks.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def task_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of every thread of process *pid*.

    Sums the first field of ``/proc/<pid>/task/*/schedstat`` (on-CPU
    nanoseconds), which is exact; the tick-sampled ``utime``/``stime``
    of ``/proc/<pid>/stat`` (10 ms granularity) is the fallback.
    """
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        if total:
            return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of *pid* in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def load_average() -> tuple[float, float, float]:
    """The 1, 5 and 15 minute load averages."""
    with open("/proc/loadavg") as handle:
        one, five, fifteen = handle.read().split()[:3]
    return float(one), float(five), float(fifteen)


def steal_ticks() -> int:
    """Host-wide steal ticks so far (``/proc/stat`` ``cpu`` line)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under *src* (path and bytes).

    Identifies the measured code where the checkout carries no git
    metadata.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    """Static facts about the host and the code under test."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src"),
    }


class HostWindow:
    """Load average and steal ticks across one run."""

    def __init__(self) -> None:
        self.load_start = load_average()
        self.steal_start = steal_ticks()

    def close(self) -> dict:
        return {
            "loadavg_start": self.load_start,
            "loadavg_end": load_average(),
            "steal_ticks": steal_ticks() - self.steal_start,
        }
