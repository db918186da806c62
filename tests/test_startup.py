"""The serving process boots only the serving path, and drains on SIGTERM.

``python -m repro serve`` must not load the offline code (crawler,
clusterer, corpus generators, evaluation, benches) that package
re-exports would otherwise pull into every importer, and it starts with
one BLAS thread.  Lazy re-exports must still resolve every name in each
package's ``__all__``.  Sent SIGTERM, one gateway and a fleet alike
drain and exit 0 without a word on stderr.
"""

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

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

OFFLINE = (
    "repro.crawler", "repro.cluster", "repro.corpus", "repro.eval",
    "repro.scanners", "repro.perdisci", "repro.canary",
    "repro.conformance", "repro.parallel", "repro.bench",
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


def _environ() -> dict[str, str]:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
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


def test_cli_import_leaves_numpy_unloaded():
    # _cmd_serve sets the BLAS thread count before numpy first loads.
    code = "import sys, repro, repro.__main__; print('numpy' in sys.modules)"
    assert _python(code).strip() == "False"


def test_serve_boots_only_the_serving_path_on_one_thread(
    signature_file, tmp_path
):
    # -X importtime logs every import to stderr as it happens, so the
    # log read after the first answer holds everything loaded up to it.
    log = tmp_path / "importtime.log"
    with open(log, "wb") as stderr, subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve",
         "-s", signature_file, "--port", "0"],
        env=_environ(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=stderr,
    ) as server:
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            line = server.stdout.readline().decode() if ready else ""
            match = re.search(r" on [^ ]+:(\d+) ", line)
            assert match, f"no startup line: {line!r}"
            with socket.create_connection(
                ("127.0.0.1", int(match.group(1))), timeout=30
            ) as sock, sock.makefile("rb") as answers:
                sock.sendall(b"id=1' union select 1,2,3-- -\n")
                assert answers.readline().startswith(b"{")
            if sys.platform.startswith("linux"):
                assert len(os.listdir(f"/proc/{server.pid}/task")) == 1
            modules = set(IMPORTED.findall(log.read_text()))
        finally:
            server.terminate()
    assert "repro.serve.gateway" in modules
    assert sorted(modules & set(OFFLINE)) == []


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
