"""The repo benchmark: one command per workload and seed.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload line-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures them
again, then prints the per-layer metrics, the tracing overhead, and
writes the spans to ``.e2ebench/traces/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``e2ebench/README.md`` for the workloads and every
metric's definition.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("line-mix", "framed-surfaces", "train-eval")


@dataclass
class Context:
    """Where a run may read and write."""

    root: Path
    workdir: Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gateway
    import hostinfo
    import train_eval

    window = hostinfo.HostWindow()
    base = ROOT / ".e2ebench"
    base.mkdir(exist_ok=True)
    ctx = Context(
        root=ROOT,
        workdir=Path(tempfile.mkdtemp(prefix="run-", dir=base)),
    )
    trace = bool(args.trace)
    # A terminated run still stops its server and removes its workdir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload == "train-eval":
            result = train_eval.run(args.seed, args.seconds, trace, ctx)
        else:
            result = gateway.run(args.workload, args.seed, args.seconds, trace, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    print(f"seed: {args.seed}, seconds: {args.seconds:g}, trace: {args.trace}")
    for line in result.lines(trace):
        print(line)
    print("host: " + json.dumps({**hostinfo.fingerprint(ROOT), **window.close()}))
    if trace:
        path = base / "traces" / f"{args.workload}-seed{args.seed}.json"
        result.spans.write(path)
        print(f"spans: {len(result.spans.records)} written to {path.relative_to(ROOT)}")
        for name, entry in sorted(result.spans.summary().items()):
            print(
                f"  span {name}: count={entry['count']} "
                f"total_us={entry['total_us']:.1f} self_us={entry['self_us']:.1f}"
            )
    print(result.json_line(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
