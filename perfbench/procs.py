"""Server processes for the benchmark: spawn, readiness, /proc sampling,
teardown and the stray-process check.

Every process the benchmark starts runs with its working directory
inside ``RUN_ROOT`` (a per-run temp directory under the checkout, which
also holds the ``--data-dir``). That makes "is anything of ours still
alive?" a question about ``/proc/<pid>/cwd`` that needs no bookkeeping
and also catches a process leaked by an earlier, killed run.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUN_ROOT = ROOT / ".perfbench_run"

_LISTENING = re.compile(r"repro (?:server|router) listening on ([\d.]+):(\d+)")
_CONTROL = re.compile(r"perfbench-control ([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Settings every process runs with its shipped default.
SHIPPED_DEFAULTS = ("REPRO_METRICS", "REPRO_TRACING")
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 10.0


class ServerProcess:
    """One ``python -m repro`` process (or the traced bootstrap around it)."""

    def __init__(self, name: str, repro_args: List[str], workdir: Path,
                 traced: bool):
        self.name = name
        self.workdir = workdir
        self.log_path = workdir / f"{name}.out"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "layer_boot.py")]
        else:
            argv = [sys.executable, "-m", "repro"]
        env = {k: v for k, v in os.environ.items()
               if k not in SHIPPED_DEFAULTS}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        # one string-hash order in every run, so runs repeat the same work
        env["PYTHONHASHSEED"] = "0"
        self._log = open(self.log_path, "w")
        self.popen = subprocess.Popen(
            argv + repro_args, cwd=str(workdir), env=env,
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.pid = self.popen.pid
        self.address: Optional[Tuple[str, int]] = None
        self.control: Optional[Tuple[str, int]] = None

    def wait_ready(self, traced: bool) -> Tuple[str, int]:
        """Block until the process prints its listening line."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            listening = _LISTENING.search(text)
            control = _CONTROL.search(text)
            if listening and (control or not traced):
                self.address = (listening.group(1), int(listening.group(2)))
                if control:
                    self.control = (control.group(1), int(control.group(2)))
                return self.address
            if self.popen.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.popen.returncode}:\n"
                    + text[-2000:]
                )
            time.sleep(0.005)
        raise TimeoutError(f"{self.name} did not start within "
                           f"{_READY_TIMEOUT_S:.0f} s")

    def cpu_ms(self) -> float:
        """utime + stime of every thread of the process, in ms."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is field 3 (state); utime and stime are fields 14, 15
        return (int(fields[11]) + int(fields[12])) * 1000.0 / _CLK_TCK

    def rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmRSS for pid {self.pid}")

    def stop(self) -> None:
        """SIGINT (the server drains and exits), SIGKILL if it hangs."""
        try:
            if self.popen.poll() is None:
                self.popen.send_signal(signal.SIGINT)
                try:
                    self.popen.wait(timeout=_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.popen.kill()
                    self.popen.wait(timeout=_STOP_TIMEOUT_S)
        finally:
            self._log.close()


class Deployment:
    """A fresh set of server processes in a fresh temp directory:
    ``single`` is one supervised server, ``routed`` is a router in
    front of ``shards`` supervised shard servers."""

    def __init__(self, topology: str, traced: bool, shards: int = 2):
        self.topology = topology
        self.traced = traced
        self.shard_count = shards
        RUN_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-",
                                             dir=str(RUN_ROOT)))
        self.servers: List[ServerProcess] = []
        self.router: Optional[ServerProcess] = None

    @property
    def processes(self) -> List[ServerProcess]:
        return ([self.router] if self.router else []) + self.servers

    @property
    def entry(self) -> Tuple[str, int]:
        """The address clients connect to."""
        return (self.router or self.servers[0]).address

    def start(self) -> "Deployment":
        try:
            if self.topology == "single":
                self._spawn_server("server", [])
            else:
                for index in range(self.shard_count):
                    self._spawn_server(
                        f"shard{index}",
                        ["--shard-index", str(index),
                         "--shard-count", str(self.shard_count)],
                    )
                for server in self.servers:
                    server.wait_ready(self.traced)
                shards = ",".join(f"{h}:{p}" for h, p in
                                  (s.address for s in self.servers))
                self.router = ServerProcess(
                    "router", ["--router", "127.0.0.1:0", "--shards", shards],
                    self.workdir, self.traced,
                )
            for process in self.processes:
                process.wait_ready(self.traced)
        except BaseException:
            self.close()
            raise
        return self

    def _spawn_server(self, name: str, extra: List[str]) -> None:
        data_dir = self.workdir / f"{name}-data"
        self.servers.append(ServerProcess(
            name,
            ["--serve", "127.0.0.1:0", "--data-dir", str(data_dir)] + extra,
            self.workdir, self.traced,
        ))

    def cpu_ms(self) -> Dict[str, float]:
        return {p.name: p.cpu_ms() for p in self.processes}

    def rss_mb(self) -> Dict[str, float]:
        return {p.name: p.rss_mb() for p in self.processes}

    def close(self) -> None:
        """Stop the router first (it holds connections to the shards),
        then the servers; remove the temp directory. A process that
        survives SIGKILL is left for ``stray_processes`` to report."""
        unkillable = []
        for process in self.processes:
            try:
                process.stop()
            except subprocess.TimeoutExpired as error:
                unkillable.append(error)
        shutil.rmtree(self.workdir, ignore_errors=True)
        if unkillable:
            raise unkillable[0]


def stray_processes() -> List[int]:
    """Pids of live processes whose working directory is inside
    ``RUN_ROOT`` — a server, router or shard that outlived its run."""
    root = str(RUN_ROOT)
    strays = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cwd = os.readlink(f"/proc/{entry}/cwd")
        except OSError:
            continue  # gone, or not ours to inspect
        if cwd == root or cwd.startswith(root + os.sep):
            strays.append(int(entry))
    return strays


def remove_run_root() -> None:
    """Drop ``RUN_ROOT`` when no run is using it any more."""
    try:
        RUN_ROOT.rmdir()
    except OSError:
        pass  # another run's directory is still there, or it is gone
