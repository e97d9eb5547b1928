"""Local cluster supervision: N replica processes plus the chaos wire.

:class:`LocalCluster` spawns one OS process per replica (``repro
service replica`` — real process isolation, so SIGKILL means SIGKILL),
runs the :class:`~repro.service.proxy.ChaosProxy` on a background
asyncio thread, and writes a ``cluster.json`` control file so other
commands (``repro service kill``) can find the pids.

Port layout per site: the replica listens on its *direct* port; every
peer map and client address points at the site's *proxy* port, so all
traffic crosses the chaos wire.  ``--no-proxy`` clusters skip the
indirection.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Coroutine, Mapping, Optional, Union

from repro.errors import ConfigurationError, ServiceError
from repro.obs.dtrace.spans import JsonlSpanSink, SpanRecorder
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.proxy import ChaosProxy, ChaosRules

__all__ = [
    "AsyncRuntime",
    "ClusterSpec",
    "LocalCluster",
    "load_control",
    "parse_segments",
]

CONTROL_NAME = "cluster.json"


def parse_segments(spec: Optional[str]) -> Optional[dict[int, int]]:
    """Parse a segment spec like ``"1,2/3,4,5"`` into ``{site: segment}``.

    Groups are separated by ``/``, sites inside a group by ``,``; the
    group's position is its segment id.  ``None`` / empty spec means no
    co-location (every site its own segment).
    """
    if not spec:
        return None
    segments: dict[int, int] = {}
    try:
        for index, group in enumerate(spec.split("/")):
            for token in group.split(","):
                token = token.strip()
                if token:
                    segments[int(token)] = index
    except ValueError as exc:
        raise ConfigurationError(
            f"bad segment spec {spec!r}: {exc}"
        ) from exc
    return segments or None


def free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Ask the OS for *count* distinct ephemeral ports.

    Every probe socket stays bound until all are chosen: a probe
    released before the next bind may be handed out twice.
    """
    with contextlib.ExitStack() as probes:
        ports = []
        for _ in range(count):
            probe = probes.enter_context(socket.socket())
            probe.bind((host, 0))
            ports.append(int(probe.getsockname()[1]))
        return ports


def free_port(host: str = "127.0.0.1") -> int:
    """One ephemeral port (bind-probe, then release)."""
    return free_ports(1, host)[0]


class AsyncRuntime:
    """A dedicated asyncio loop on a daemon thread.

    The proxy and the fault driver are asyncio citizens; the load
    generator and the CLI are blocking code.  This tiny runtime hosts
    the former while the latter drives from the main thread.
    """

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the loop thread (idempotent)."""
        if self._thread is not None:
            return
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(ready.set)
            loop.run_forever()

        self._loop = loop
        self._thread = threading.Thread(target=run, name="service-loop",
                                        daemon=True)
        self._thread.start()
        ready.wait(5.0)

    def submit(self, coro: Coroutine[Any, Any, Any]) -> "Future[Any]":
        """Schedule *coro* on the loop; returns a concurrent future."""
        if self._loop is None:
            raise ConfigurationError("runtime is not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5.0)
        self._loop.close()
        self._loop = None
        self._thread = None


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of one local cluster.

    Attributes:
        directory: Root for per-site data dirs, logs and cluster.json.
        replicas: Number of replica processes (paper sites 1..N).
        policy: Protocol every replica runs.
        host: Loopback address for all listeners.
        fsync: WAL durability policy handed to every replica.
        proxy: Whether all traffic crosses the chaos proxy.
        segments: Co-location spec (``"1,2/3,4,5"``) for topological
            protocols.
        trace: Record distributed-tracing spans — every replica writes
            ``spans.jsonl`` next to its WAL and the proxy writes
            ``proxy.spans.jsonl`` under the cluster root.
    """

    directory: str
    replicas: int = 5
    policy: str = "ODV"
    host: str = "127.0.0.1"
    fsync: str = "always"
    proxy: bool = True
    segments: Optional[str] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"a cluster needs >= 1 replica, got {self.replicas}"
            )


class LocalCluster:
    """Spawn, kill, restart and stop a local replica fleet."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.root = pathlib.Path(spec.directory)
        self.sites = list(range(1, spec.replicas + 1))
        self.replica_ports: dict[int, int] = {}
        self.proxy_ports: dict[int, int] = {}
        self.processes: dict[int, subprocess.Popen] = {}
        self.kills: list[dict[str, Any]] = []
        self.restarts: list[dict[str, Any]] = []
        self.runtime = AsyncRuntime()
        self.proxy: Optional[ChaosProxy] = None
        self.rules = ChaosRules()
        self.proxy_recorder: Optional[SpanRecorder] = None
        #: The proxy's in-process instrument registry (scraped without
        #: a socket — the proxy lives in this process).
        self.proxy_metrics = MetricsRegistry()
        self._started_at = 0.0

    # ------------------------------------------------------------------
    @property
    def client_addresses(self) -> list[tuple[str, int]]:
        """Where clients should connect (proxy ports when chaotic)."""
        ports = self.proxy_ports if self.spec.proxy else self.replica_ports
        return [(self.spec.host, ports[site]) for site in self.sites]

    def scrape_addresses(self) -> dict[str, tuple[str, int]]:
        """``{"site-N": (host, direct_port)}`` for the metrics scraper.

        Always the *direct* replica ports: monitoring must not share
        the chaos wire it is observing, or every injected partition
        would also blind the collector.
        """
        return {
            f"site-{site}": (self.spec.host, self.replica_ports[site])
            for site in self.sites
        }

    def data_dir(self, site: int) -> pathlib.Path:
        """The durable directory of *site*."""
        return self.root / f"site-{site}"

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 20.0) -> None:
        """Allocate ports, start the proxy, spawn and await replicas."""
        self.root.mkdir(parents=True, exist_ok=True)
        count = len(self.sites)
        ports = free_ports(2 * count if self.spec.proxy else count,
                           self.spec.host)
        self.replica_ports = dict(zip(self.sites, ports))
        if self.spec.proxy:
            self.proxy_ports = dict(zip(self.sites, ports[count:]))
            self.runtime.start()
            if self.spec.trace:
                self.proxy_recorder = SpanRecorder(
                    JsonlSpanSink(self.root / "proxy.spans.jsonl"),
                    proc="proxy",
                )
            self.proxy = ChaosProxy(
                self.spec.host,
                {site: (self.proxy_ports[site], self.replica_ports[site])
                 for site in self.sites},
                rules=self.rules,
                recorder=self.proxy_recorder,
                metrics=self.proxy_metrics,
            )
            self.runtime.submit(self.proxy.start()).result(10.0)
        self._started_at = time.monotonic()
        for site in self.sites:
            self._spawn(site)
        self._write_control()
        self.wait_ready(ready_timeout)

    def _peer_spec(self, site: int) -> str:
        ports = self.proxy_ports if self.spec.proxy else self.replica_ports
        return ",".join(
            f"{peer}={self.spec.host}:{ports[peer]}"
            for peer in self.sites if peer != site
        )

    def _spawn(self, site: int) -> None:
        data_dir = self.data_dir(site)
        data_dir.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, "-m", "repro", "service", "replica",
            "--site", str(site),
            "--host", self.spec.host,
            "--port", str(self.replica_ports[site]),
            "--data-dir", str(data_dir),
            "--policy", self.spec.policy,
            "--fsync", self.spec.fsync,
        ]
        peers = self._peer_spec(site)
        if peers:
            argv += ["--peers", peers]
        if self.spec.segments:
            argv += ["--segments", self.spec.segments]
        if self.spec.trace:
            argv.append("--trace")
        env = dict(os.environ)
        package_root = str(pathlib.Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + existing
                                 if existing else package_root)
        log = open(self.root / f"site-{site}.log", "ab")
        try:
            self.processes[site] = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        finally:
            log.close()

    def wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every replica answers a ping through the wire.

        Raises:
            ServiceError: when some replica never comes up (its log
                tail is included for diagnosis).
        """
        deadline = time.monotonic() + timeout
        pending = dict(zip(self.sites, self.client_addresses))
        with ServiceClient(self.client_addresses, timeout=0.5) as probe:
            while pending and time.monotonic() < deadline:
                for site, address in list(pending.items()):
                    if probe.ping(address):
                        del pending[site]
                if pending:
                    time.sleep(0.1)
        if pending:
            details = []
            for site in pending:
                log_path = self.root / f"site-{site}.log"
                tail = ""
                if log_path.exists():
                    tail = log_path.read_text(errors="replace")[-400:]
                details.append(f"site {site}: {tail or 'no log output'}")
            raise ServiceError(
                "replicas never became ready: " + " | ".join(details)
            )

    # ------------------------------------------------------------------
    def kill(self, site: int, sig: int = signal.SIGKILL) -> None:
        """Send *sig* (default SIGKILL) to *site*'s process."""
        process = self.processes.get(site)
        if process is None or process.poll() is not None:
            return
        process.send_signal(sig)
        process.wait(timeout=10.0)
        self.kills.append({
            "site": site,
            "signal": int(sig),
            "at": round(time.monotonic() - self._started_at, 3),
        })
        self._write_control()

    def restart(self, site: int) -> None:
        """Respawn *site* over its surviving data directory."""
        process = self.processes.get(site)
        if process is not None and process.poll() is None:
            return  # still running: nothing to restart
        self._spawn(site)
        self.restarts.append({
            "site": site,
            "at": round(time.monotonic() - self._started_at, 3),
        })
        self._write_control()

    def stop(self) -> None:
        """Terminate every replica, stop the proxy, stamp the control
        file."""
        for process in self.processes.values():
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 5.0
        for process in self.processes.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        if self.proxy is not None:
            try:
                self.runtime.submit(self.proxy.stop()).result(5.0)
            except Exception:
                pass
        self.runtime.stop()
        if self.proxy_recorder is not None:
            self.proxy_recorder.close()
        self._write_control(stopped=True)

    # ------------------------------------------------------------------
    def _write_control(self, stopped: bool = False) -> None:
        control = {
            "format": "repro-service-cluster",
            "version": 1,
            "host": self.spec.host,
            "policy": self.spec.policy,
            "proxy": self.spec.proxy,
            "stopped": stopped,
            "sites": {
                str(site): {
                    "pid": (self.processes[site].pid
                            if site in self.processes
                            and self.processes[site].poll() is None
                            else None),
                    "port": self.replica_ports.get(site),
                    "proxy_port": self.proxy_ports.get(site),
                    "data_dir": str(self.data_dir(site)),
                }
                for site in self.sites
            },
        }
        (self.root / CONTROL_NAME).write_text(
            json.dumps(control, indent=2, sort_keys=True) + "\n")


def load_control(directory: Union[str, pathlib.Path]) -> Mapping[str, Any]:
    """Read a cluster control file written by :class:`LocalCluster`.

    Raises:
        ConfigurationError: when the directory holds no readable
            control file.
    """
    path = pathlib.Path(directory) / CONTROL_NAME
    try:
        control = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"no cluster control file at {path}: {exc}"
        ) from exc
    if not isinstance(control, dict) \
            or control.get("format") != "repro-service-cluster":
        raise ConfigurationError(f"{path} is not a cluster control file")
    return control
