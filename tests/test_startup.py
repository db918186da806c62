"""The serving process boots only the serving path, and drains on SIGTERM.

``python -m repro serve`` must not load the offline code (crawler,
clusterer, corpus generators, evaluation) that package re-exports
would otherwise pull into every importer, and it runs one
thread.  No serving process loads numpy: a gateway, a fleet supervisor
or a shard, for every detector, framed or not, across a reload.  A
gateway, a fleet supervisor and each shard serve on one ``selectors``
loop, so they load no event loop either: none of asyncio, ssl,
concurrent.futures or logging, and no fleet process maps ``_ssl``.
Each runs one thread.  ``repro loadgen``, which drives a gateway or a
fleet in process from a ``selectors`` client, loads no event loop
either.  Lazy re-exports must still resolve every name in each
package's ``__all__``.  Sent SIGTERM, one gateway and a fleet
alike drain and exit 0 without a word on stderr.
"""

import contextlib
import http.client
import importlib
import os
import pkgutil
import re
import select
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.core import signature_set_to_json
from repro.http import HttpRequest
from repro.serve.protocol import encode_framed_request

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

OFFLINE = (
    "repro.crawler", "repro.cluster", "repro.corpus", "repro.eval",
    "repro.scanners", "repro.perdisci", "repro.canary",
    "repro.conformance", "repro.parallel",
    "repro.core.pipeline", "repro.core.generalizer",
    "repro.serve.loadgen", "repro.surfaces.evasion",
)

# One ``-X importtime`` line: self and cumulative microseconds, then the
# module name indented by its nesting depth.
IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \| +(\S+)$", re.M)

PACKAGES = ["repro"] + [
    name
    for _, name, is_package in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if is_package and hasattr(importlib.import_module(name), "__all__")
]


ATTACK_LINE = b"id=1' union select 1,2,3-- -\n"

# What asyncio loads and no serving process needs.
EVENT_LOOP = ("asyncio", "ssl", "concurrent.futures", "logging")

# numpy's compiled core, and the ssl module, as a loaded process maps
# them.
NUMPY_CORE = "numpy/_core/_multiarray_umath"
SSL_MODULE = "/_ssl."


def _environ() -> dict[str, str]:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
    # Unset, so that a BLAS loaded after all would show its threads.
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _python(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=_environ(), capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout


@pytest.fixture(scope="module")
def signature_file(small_signatures, tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "signatures.json"
    path.write_text(signature_set_to_json(small_signatures))
    return str(path)


@contextlib.contextmanager
def _serving(args: list[str], log):
    """A ``repro serve`` process and its data port, stopped on exit.

    ``-X importtime`` logs every import to stderr (*log*) as it happens,
    so the log read after an answer holds everything loaded up to it.
    """
    with open(log, "wb") as stderr, subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve",
         "--port", "0", *args],
        env=_environ(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=stderr,
    ) as server:
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            line = server.stdout.readline().decode() if ready else ""
            match = re.search(r" on [^ ]+:(\d+) ", line)
            assert match, f"no startup line: {line!r}"
            yield server, int(match.group(1))
        finally:
            server.terminate()


def _imported(log) -> set[str]:
    return set(IMPORTED.findall(log.read_text()))


def _answer_line(port: int) -> None:
    with socket.create_connection(
        ("127.0.0.1", port), timeout=30
    ) as sock, sock.makefile("rb") as answers:
        sock.sendall(ATTACK_LINE)
        assert answers.readline().startswith(b"{")


def _answer_frame(port: int) -> None:
    request = HttpRequest(
        method="POST", path="/login", query="id=1' union select 1,2,3-- -",
        headers={"cookie": "session=1' or 1=1-- -"},
        body="user=admin'--&pass=x",
    )
    with socket.create_connection(
        ("127.0.0.1", port), timeout=30
    ) as sock, sock.makefile("rb") as answers:
        sock.sendall(encode_framed_request(request))
        answer = answers.readline()
    assert answer.startswith(b"{") and b'"surfaces"' in answer, answer


def _answer_then_reload(port: int) -> None:
    _answer_line(port)
    # No body: the gateway re-reads its signature file.
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/reload")
        response = connection.getresponse()
        assert response.status == 200, response.read()
    finally:
        connection.close()
    _answer_line(port)


def _children(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status") as status:
                fields = dict(
                    line.split(":", 1) for line in status if ":" in line
                )
        except OSError:
            continue  # exited while we looked
        if int(fields.get("PPid", "0")) == pid:
            children.append(int(entry))
    return children


def test_cli_import_leaves_numpy_unloaded():
    # Every command imports its own code inside the command.
    code = "import sys, repro, repro.__main__; print('numpy' in sys.modules)"
    assert _python(code).strip() == "False"


def test_wire_codec_loads_no_event_loop():
    # Load drivers and benchmarks encode and decode frames without
    # serving: the codec and telemetry alone load neither asyncio (nor
    # ssl through it) nor the gateway.
    code = """
import sys
from repro.http import HttpRequest
from repro.serve.protocol import (
    decode_framed_request, encode_framed_request, frame_header_size,
)
from repro.serve.telemetry import Telemetry
request = HttpRequest(path="/a", query="id=1'", headers={"cookie": "x=1"})
header, _, body = encode_framed_request(request).partition(b"\\n")
decoded, _ = decode_framed_request(body[:frame_header_size(header)])
Telemetry().increment("inspected")
print(decoded == request, *(
    name in sys.modules
    for name in ("asyncio", "ssl", "repro.serve.gateway", "numpy")
))
"""
    assert _python(code).split() == ["True", "False", "False", "False", "False"]


def test_test_traces_load_without_the_experiments():
    # The train-eval set-up probe builds the test traces: it must not
    # load every experiment, report and chart module with them.
    code = (
        "import sys, repro.eval.datasets; print(sorted(m for m in ("
        "'repro.eval.experiments', 'repro.eval.drift', "
        "'repro.eval.evasion', 'repro.eval.report', 'repro.eval.svg', "
        "'repro.eval.tuning') if m in sys.modules))"
    )
    assert _python(code).strip() == "[]"


def test_learn_keeps_its_solver_when_the_module_loads_first():
    # A lazy re-export named like its submodule would be the module here.
    code = (
        "import sys, repro.learn.pcg; from repro.learn import pcg; "
        "print(callable(pcg), 'numpy' in sys.modules)"
    )
    assert _python(code).split() == ["True", "False"]


def test_serve_boots_only_the_serving_path_on_one_thread(
    signature_file, tmp_path
):
    log = tmp_path / "importtime.log"
    with _serving(["-s", signature_file], log) as (server, port):
        _answer_line(port)
        if sys.platform.startswith("linux"):
            assert len(os.listdir(f"/proc/{server.pid}/task")) == 1
        modules = _imported(log)
    assert "repro.serve.gateway" in modules
    assert sorted(modules & set(OFFLINE)) == []
    assert "numpy" not in modules
    assert sorted(modules & set(EVENT_LOOP)) == []


@pytest.mark.parametrize(
    "detector, options, exchange",
    [
        ("psigene", ["--surfaces", "all"], _answer_frame),
        ("psigene", [], _answer_then_reload),
        ("modsecurity", [], _answer_line),
        ("snort", [], _answer_line),
        ("snort-et", [], _answer_line),
        ("bro", [], _answer_line),
    ],
    ids=[
        "framed-all-surfaces", "reload", "modsecurity", "snort",
        "snort-et", "bro",
    ],
)
def test_no_gateway_loads_numpy(
    detector, options, exchange, signature_file, tmp_path
):
    args = ["--detector", detector, *options]
    if detector == "psigene":
        args += ["-s", signature_file]
    log = tmp_path / "importtime.log"
    with _serving(args, log) as (server, port):
        exchange(port)
        if sys.platform.startswith("linux"):
            assert len(os.listdir(f"/proc/{server.pid}/task")) == 1
        modules = _imported(log)
    assert "repro.serve.gateway" in modules
    assert "numpy" not in modules
    # One selectors loop: no event loop, however the gateway was used.
    assert sorted(modules & set(EVENT_LOOP)) == []


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>"
)
def test_no_fleet_process_maps_numpy(signature_file, tmp_path):
    # Nor _ssl, nor an event loop, nor a second thread: the supervisor's
    # control plane is the gateway's loop, and every shard is forked
    # from it.
    log = tmp_path / "importtime.log"
    with _serving(
        ["-s", signature_file, "--shards", "2"], log
    ) as (server, port):
        # Each shard has already answered the supervisor's spot-check.
        for _ in range(4):
            _answer_line(port)
        pids = [server.pid, *_children(server.pid)]
        mapped, threads = {}, {}
        for pid in pids:
            with open(f"/proc/{pid}/maps") as maps:
                text = maps.read()
            mapped[pid] = [
                name for name in (NUMPY_CORE, SSL_MODULE) if name in text
            ]
            threads[pid] = len(os.listdir(f"/proc/{pid}/task"))
        modules = _imported(log)
    assert len(pids) >= 3, pids
    assert not any(mapped.values()), mapped
    assert "repro.serve.supervisor" in modules
    assert sorted(modules & set(EVENT_LOOP)) == []
    assert set(threads.values()) == {1}, threads


@pytest.mark.parametrize(
    "extra", [[], ["--shards", "2"]], ids=["gateway", "fleet"]
)
def test_loadgen_loads_no_event_loop(extra):
    # The load driver is one selectors loop in the calling thread, the
    # same model as the gateway or fleet it drives in process.
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "loadgen",
         "--detector", "modsecurity", "--requests", "50", *extra],
        env=_environ(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "PARITY: 50 compared" in result.stdout
    modules = set(IMPORTED.findall(result.stderr))
    # The load driver imports the fleet supervisor (the driver itself
    # loads through a lazy re-export, which the log leaves out).
    assert "repro.serve.supervisor" in modules
    assert sorted(modules & set(EVENT_LOOP)) == []


def test_verdict_referee_loads_without_the_offline_pipeline():
    # The fleet supervisor, and every shard forked from it, imports the
    # referee for its spot-check.
    code = (
        "import sys, repro.conformance.verdict; print(sorted(m for m in "
        "sys.modules if m.startswith(('repro.core.pipeline', "
        "'repro.cluster', 'repro.corpus'))))"
    )
    assert _python(code).strip() == "[]"


@pytest.mark.smoke
@pytest.mark.parametrize(
    "extra", [[], ["--shards", "2"]], ids=["gateway", "fleet"]
)
def test_sigterm_drains_and_exits_cleanly(extra, tmp_path):
    log = tmp_path / "stderr.log"
    with open(log, "wb") as stderr, subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--detector",
         "modsecurity", "--port", "0", *extra],
        env=_environ(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=stderr,
    ) as server:
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            line = server.stdout.readline().decode() if ready else ""
            match = re.search(r" on [^ ]+:(\d+) ", line)
            assert match, f"no startup line: {line!r}"
            # The client stays connected, idle, across the signal.
            with socket.create_connection(
                ("127.0.0.1", int(match.group(1))), timeout=30
            ) as sock, sock.makefile("rb") as answers:
                sock.sendall(b"id=1' union select 1,2,3-- -\n")
                assert answers.readline().startswith(b"{")
                server.send_signal(signal.SIGTERM)
                code = server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
    assert code == 0
    assert log.read_text() == ""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
