"""Command-line interface: ``python -m repro <command>``.

Commands:
    train    run the four-phase pipeline and write a signature JSON file
    score    score payloads (args or stdin) against a signature file
    crawl    run phase 1 alone and print crawl statistics
    eval     small-scale Table V (accuracy comparison of all detectors)
    serve    run the online detection gateway (TCP/HTTP, hot reload);
             ``--shards N`` runs a supervised multi-process fleet
    loadgen  replay attack+benign traffic against a gateway or fleet
    obs      observability: dump /metrics, validate run manifests
    conform  differential conformance: oracle runs, golden corpora
    match    fused matching engine: explain its compiled plan
    canary   closed-loop continual learning: run a shadow-scored,
             gate-promoted retraining round; inspect the history

Shared options (``--seed``, ``--workers``, ``-s/--signatures``) are
declared once as parent parsers, so their spelling and defaults are
identical across every subcommand that takes them.
"""

from __future__ import annotations

import argparse
import os
import sys

COMMAND_EPILOG = """\
commands:
  train    run the four-phase pipeline and write a signature JSON file
  score    score payloads (args or stdin) against a signature file
  crawl    run phase 1 alone and print crawl statistics
  eval     run the small-scale Table V accuracy comparison
  serve    run the online detection gateway (--shards N for a fleet)
  loadgen  replay traffic at a gateway or fleet, report throughput
  obs      dump a gateway's /metrics or validate a run manifest
  conform  run the differential oracle, record/diff golden corpora
  match    explain the fused matching engine's compiled plan
  canary   run one continual-learning round, or inspect its history

run `repro <command> --help` for per-command options.
"""

_DETECTOR_CHOICES = (
    "psigene", "modsecurity", "snort", "snort-et", "bro",
)


def _load_signature_set(path: str):
    """The signature set in ``path``; exits cleanly if missing or malformed."""
    from repro.core import signature_set_from_json

    try:
        with open(path) as handle:
            return signature_set_from_json(handle.read())
    except FileNotFoundError:
        raise SystemExit(
            f"repro: signature file {path!r} not found; "
            "train one first (repro train) or pass -s"
        ) from None
    except ValueError as error:
        raise SystemExit(f"repro: signature file {path!r}: {error}") from None


def _build_detector(name: str, signatures: str | None):
    """Detector + default-reload-path for ``--detector``/``-s``."""
    if name == "psigene":
        if signatures is None:
            raise SystemExit(
                "repro: --detector psigene needs a signature file (-s)"
            )
        from repro.ids import PSigeneDetector

        return PSigeneDetector(_load_signature_set(signatures)), signatures
    from repro.ids.rulesets import (
        build_bro_ruleset,
        build_merged_snort_et_ruleset,
        build_modsec_ruleset,
        build_snort_ruleset,
    )

    builders = {
        "modsecurity": build_modsec_ruleset,
        "snort": build_snort_ruleset,
        "snort-et": build_merged_snort_et_ruleset,
        "bro": build_bro_ruleset,
    }
    return builders[name](), None


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import (
        PipelineConfig,
        PSigenePipeline,
        signature_set_to_json,
    )

    config = PipelineConfig(
        seed=args.seed,
        n_attack_samples=args.samples,
        n_benign_train=args.benign,
        max_cluster_rows=args.max_cluster_rows,
        workers=args.workers,
        manifest_dir=args.manifest_dir or None,
    )
    result = PSigenePipeline(config).run()
    with open(args.output, "w") as handle:
        handle.write(signature_set_to_json(result.signature_set))
    print(
        f"trained {len(result.signature_set)} signatures from "
        f"{len(result.samples)} crawled samples "
        f"({result.pruning.final_features} active features); "
        f"wrote {args.output}"
    )
    if result.manifest_path is not None:
        print(f"run manifest: {result.manifest_path}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    signature_set = _load_signature_set(args.signatures)
    # rstrip both separators: CRLF input would otherwise leave a carriage
    # return inside the payload, changing normalization (and thus scores)
    # between piped and argv invocations.
    payloads = args.payloads or [
        line.rstrip("\r\n") for line in sys.stdin if line.strip()
    ]
    from repro.surfaces import LEGACY_SURFACES, parse_surfaces

    try:
        surfaces = parse_surfaces(args.surfaces)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None
    if surfaces != LEGACY_SURFACES:
        # Surface-aware scoring: each payload becomes a query-only
        # request scored through the surface extractor, so selections
        # like --surfaces all report per-surface attribution.
        from repro.http import HttpRequest
        from repro.ids import PSigeneDetector

        detector = PSigeneDetector(signature_set)
        exit_code = 0
        for payload in payloads:
            detection = detector.inspect_request(
                HttpRequest(query=payload), surfaces
            )
            if detection.alert:
                attributed = ",".join(
                    s.value for s in detection.alerting_surfaces
                )
                print(
                    f"[ALERT] p={detection.score:0.4f} "
                    f"surfaces={attributed} "
                    f"signatures={detection.matched_sids}  {payload}"
                )
                exit_code = 3
            else:
                print(f"[pass ] p={detection.score:0.4f}  {payload}")
        return exit_code
    if args.workers > 1:
        from repro.http import HttpRequest, Trace
        from repro.ids import PSigeneDetector, SignatureEngine

        engine = SignatureEngine(PSigeneDetector(signature_set))
        trace = Trace(
            name="cli",
            requests=[HttpRequest(query=p) for p in payloads],
        )
        run = engine.run_batch(trace, workers=args.workers)
        by_index = {alert.request_index: alert for alert in run.alerts}
        exit_code = 0
        for index, payload in enumerate(payloads):
            alert = by_index.get(index)
            score = float(run.scores[index])
            if alert is not None:
                print(
                    f"[ALERT] p={score:0.4f} "
                    f"signatures={alert.matched}  {payload}"
                )
                exit_code = 3
            else:
                print(f"[pass ] p={score:0.4f}  {payload}")
        return exit_code
    exit_code = 0
    for payload in payloads:
        score, fired = signature_set.evaluate(payload)
        verdict = "ALERT" if fired else "pass "
        detail = f" signatures={fired}" if fired else ""
        print(f"[{verdict}] p={score:0.4f}{detail}  {payload}")
        if fired:
            exit_code = 3
    return exit_code


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.crawler import CrawlSession, SimulatedWeb

    web = SimulatedWeb(corpus_size=args.samples, seed=args.seed)
    report = CrawlSession(web).run()
    print(f"pages fetched: {report.pages_fetched}")
    print(f"blocked by robots: {report.pages_blocked}")
    print(f"payloads extracted: {report.payloads_seen}")
    print(f"unique samples: {len(report.samples)}")
    for portal, count in sorted(report.per_portal.items()):
        print(f"  {portal}: {count}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval import (
        EvaluationContext,
        format_table,
        percent,
        table5_accuracy,
    )

    context = EvaluationContext.build(
        seed=args.seed,
        n_attack_samples=args.samples,
        n_benign_train=min(args.samples * 3, 10_000),
        n_benign_test=args.benign,
        max_cluster_rows=min(args.samples, 1500),
        n_vulnerabilities=args.vulnerabilities,
        workers=args.workers,
    )
    rows = table5_accuracy(context)
    print(format_table(
        ["RULES", "TPR%(SQLmap)", "TPR%(Arachni)", "FPR%"],
        [
            [r["rules"], percent(r["tpr_sqlmap"]),
             percent(r["tpr_arachni"]), percent(r["fpr"], 4)]
            for r in rows
        ],
        title="Accuracy comparison (Table V)",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DetectionGateway, GatewayConfig, SignatureStore

    from repro.surfaces import parse_surfaces

    try:
        surfaces = parse_surfaces(args.surfaces)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None
    detector, reload_path = _build_detector(args.detector, args.signatures)
    source = f"file:{reload_path}" if reload_path is not None else "static"
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        queue_bound=args.queue_bound,
        policy=args.policy,
        surfaces=surfaces,
    )
    if args.shards > 1:
        from repro.serve import FleetConfig, FleetSupervisor

        server = FleetSupervisor(
            detector,
            FleetConfig(
                shards=args.shards,
                gateway=config,
                control_port=args.control_port,
                signature_path=reload_path,
            ),
            source=source,
        )
    else:
        server = DetectionGateway(
            SignatureStore(detector, path=reload_path, source=source),
            config,
        )
    asyncio.run(server.serve_forever())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        GatewayConfig,
        build_load_trace,
        format_report,
        run_loadgen,
    )
    from repro.surfaces import LEGACY_SURFACES, parse_surfaces

    try:
        surfaces = parse_surfaces(args.surfaces)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None
    framed = args.framed or surfaces != LEGACY_SURFACES
    detector, _ = _build_detector(args.detector, args.signatures)
    trace = build_load_trace(
        seed=args.seed,
        n_benign=args.benign,
        n_vulnerabilities=args.vulnerabilities,
    )
    items = trace.requests if framed else trace.payloads()
    report = asyncio.run(run_loadgen(
        detector,
        items[: args.requests] or items,
        config=GatewayConfig(
            queue_bound=args.queue_bound, policy=args.policy
        ),
        shards=args.shards if args.shards > 1 else None,
        surfaces=surfaces if framed else None,
        connections=args.connections,
        window=args.window,
        rate=args.rate,
        slo_ms=args.slo_ms,
        check_parity=args.check_parity,
    ))
    print(format_report(report))
    if args.check_parity and not report.parity_ok:
        return 4
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    import http.client

    from repro.obs.prometheus import ExpositionError, parse_exposition

    connection = http.client.HTTPConnection(
        args.host, args.port, timeout=args.timeout
    )
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read().decode("utf-8")
    except OSError as error:
        raise SystemExit(
            f"repro: cannot scrape {args.host}:{args.port}/metrics: {error}"
        ) from None
    finally:
        connection.close()
    if response.status != 200:
        raise SystemExit(
            f"repro: /metrics returned HTTP {response.status}"
        )
    try:
        families = parse_exposition(body)
    except ExpositionError as error:
        raise SystemExit(
            f"repro: gateway served malformed exposition: {error}"
        ) from None
    sys.stdout.write(body)
    print(
        f"# repro obs: {len(families)} metric families, "
        f"{sum(len(samples) for samples in families.values())} samples",
        file=sys.stderr,
    )
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    import json

    from repro.obs.manifest import ManifestError, validate_manifest

    try:
        with open(args.manifest) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"repro: manifest {args.manifest!r} not found"
        ) from None
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"repro: {args.manifest}: invalid JSON: {error}"
        ) from None
    try:
        validate_manifest(manifest)
    except ManifestError as error:
        print(f"INVALID {args.manifest}: {error}")
        return 5
    phases = ", ".join(
        phase["name"] for phase in manifest["phases"] if phase["depth"] <= 1
    )
    print(
        f"OK {args.manifest}: schema {manifest['schema']}, "
        f"git {manifest['git']}, seed {manifest['seed']}, "
        f"phases [{phases}]"
    )
    return 0


def _conform_detector(args: argparse.Namespace):
    """The detector a conformance command drives.

    With ``-s`` the signature file is mounted; without it a small
    deterministic pipeline is trained in-process (the canonical
    configuration golden corpora are recorded against).
    """
    if args.signatures is not None:
        detector, _ = _build_detector("psigene", args.signatures)
        return detector, f"file:{args.signatures}"
    from repro.conformance import train_default_detector

    print(
        f"repro conform: no -s given; training the canonical small "
        f"signature set (seed={args.seed})"
    )
    return train_default_detector(args.seed), f"trained:seed={args.seed}"


def _cmd_conform_run(args: argparse.Namespace) -> int:
    from repro.conformance import (
        Oracle,
        format_report,
        generate_corpus,
    )

    detector, source = _conform_detector(args)
    payloads = generate_corpus(seed=args.seed, budget=args.budget)
    print(
        f"repro conform: {len(payloads)} payloads "
        f"(budget={args.budget}, seed={args.seed}), detector {source}"
    )
    # A --path selection drives both detectors; the oracle skips the
    # paths a detector does not support, as it does on the default list.
    paths = None
    if args.path:
        from repro.conformance import SerialPath, default_paths

        registry = {p.name: p for p in default_paths()}
        try:
            paths = [SerialPath(), *(registry[name] for name in args.path)]
        except KeyError as missing:
            raise SystemExit(
                f"repro: unknown conformance path {missing.args[0]!r}; "
                f"valid: {', '.join(sorted(registry))}"
            ) from None
    report = Oracle(
        detector, paths=paths, check_extraction=paths is None
    ).run(payloads)
    print(format_report(report))
    exit_code = 0 if report.ok else 6
    if args.perdisci:
        from repro.corpus.grammar import CorpusGenerator
        from repro.perdisci.signatures import PerdisciSystem

        system = PerdisciSystem(seed=args.seed)
        system.fit([
            sample.payload
            for sample in CorpusGenerator(seed=args.seed).generate(
                max(64, len(payloads) // 3)
            )
        ])
        perdisci_report = Oracle(
            system, paths=paths, check_extraction=False
        ).run(payloads)
        print(format_report(perdisci_report))
        if not perdisci_report.ok:
            exit_code = 6
    return exit_code


def _cmd_conform_record(args: argparse.Namespace) -> int:
    import os

    from repro.conformance import (
        generate_corpus,
        serial_verdicts,
        write_golden,
    )

    detector, source = _conform_detector(args)
    payloads = generate_corpus(seed=args.seed, budget=args.budget)
    output = args.output or os.path.join(
        "conformance", "golden", f"{args.budget}-seed{args.seed}.jsonl"
    )
    directory = os.path.dirname(output)
    if directory:
        os.makedirs(directory, exist_ok=True)
    write_golden(
        output,
        payloads,
        serial_verdicts(detector, payloads),
        detector=detector.name,
        seed=args.seed,
        budget=args.budget,
        extra={"source": source},
    )
    print(
        f"recorded {len(payloads)} verdicts "
        f"(budget={args.budget}, seed={args.seed}) to {output}"
    )
    return 0


def _cmd_conform_diff(args: argparse.Namespace) -> int:
    from repro.conformance import (
        GoldenError,
        diff_golden,
        read_golden,
        serial_verdicts,
    )

    try:
        golden = read_golden(args.golden)
    except FileNotFoundError:
        raise SystemExit(
            f"repro: golden corpus {args.golden!r} not found; "
            "record one first (repro conform record)"
        ) from None
    except GoldenError as error:
        raise SystemExit(f"repro: {error}") from None
    args.seed = golden.meta.get("seed", args.seed)
    detector, _ = _conform_detector(args)
    divergences = diff_golden(
        golden, serial_verdicts(detector, golden.payloads)
    )
    if not divergences:
        print(
            f"GOLDEN OK: {len(golden)} recorded verdicts reproduced "
            f"({args.golden})"
        )
        return 0
    print(
        f"GOLDEN DIVERGENT: {len(divergences)} disagreement(s) "
        f"against {args.golden}"
    )
    for divergence in divergences[:20]:
        print(f"  ! {divergence.describe()}")
    if len(divergences) > 20:
        print(f"  ... and {len(divergences) - 20} more")
    return 6


def _cmd_match_explain(args: argparse.Namespace) -> int:
    from repro.match import FusedSetEvaluator

    detector, source = _conform_detector(args)
    matcher = FusedSetEvaluator(detector.signature_set.signatures).matcher
    print(f"repro match: detector {source}")
    print(matcher.describe())
    if args.patterns:
        for plan in matcher.plans:
            detail = plan.literal or ",".join(plan.factors)
            suffix = f"  [{detail}]" if detail else ""
            print(f"  {plan.kind:>9}  {plan.pattern}{suffix}")
    return 0


def _print_canary_round(completed) -> None:
    shadow = completed.decision.shadow
    churn = completed.decision.churn
    print(
        f"round {completed.index}: {completed.outcome.upper()} "
        f"({completed.mode}, strategy={completed.strategy}, "
        f"gen {completed.generation_before} -> "
        f"{completed.generation_after})"
    )
    print(
        f"  tpr {shadow.incumbent_tpr:.4f} -> {shadow.candidate_tpr:.4f} "
        f"(delta {shadow.tpr_delta:+.4f}); "
        f"fpr {shadow.incumbent_fpr:.4f} -> {shadow.candidate_fpr:.4f} "
        f"(delta {shadow.fpr_delta:+.4f})"
    )
    print(
        f"  churn {churn.churn_fraction:.3f} "
        f"({churn.n_changed} changed, {churn.n_added} added, "
        f"{churn.n_removed} removed); "
        f"divergences {len(shadow.divergences)}; "
        f"drift out-of-cluster {completed.drift['out_of_cluster_rate']}"
    )
    if completed.decision.reasons:
        print(f"  rejected: {', '.join(completed.decision.reasons)}")
    walls = ", ".join(
        f"{stage}={seconds * 1000:.0f}ms"
        for stage, seconds in completed.stage_wall_s.items()
    )
    print(f"  stage walls: {walls}")


def _cmd_canary_run(args: argparse.Namespace) -> int:
    import asyncio

    from repro.canary import (
        CanaryConfig,
        CanaryLoop,
        GatePolicy,
        TrainingState,
    )
    from repro.ids import PSigeneDetector
    from repro.serve.store import SignatureStore

    print(
        f"repro canary: training the incumbent "
        f"(canonical small pipeline, seed={args.seed})"
    )
    state = TrainingState.train(args.seed)
    config = CanaryConfig(
        fresh_attacks=args.fresh,
        benign_replay=args.benign,
        shift=args.shift,
        seed=args.seed,
        drift_threshold=args.drift_threshold,
        refresh_strategy=args.strategy,
        policy=GatePolicy(
            fpr_budget=args.fpr_budget,
            tpr_tolerance=args.tpr_tolerance,
            max_churn_fraction=args.max_churn,
        ),
        runs_dir=args.runs_dir or None,
    )
    sabotage = None
    if args.inject_fpr:
        # CI's forced-reject round: a candidate that alerts on nearly
        # everything must blow the FPR budget and be turned away with
        # the incumbent provably untouched.
        sabotage = lambda s: s.with_threshold(0.05)  # noqa: E731
    if args.shards > 0:
        from repro.serve import FleetConfig, FleetSupervisor

        async def fleet_round():
            supervisor = FleetSupervisor(
                PSigeneDetector(state.signature_set),
                FleetConfig(shards=args.shards),
                source="canary:incumbent",
            )
            loop = CanaryLoop(state, supervisor.store, config=config)
            await supervisor.start()
            try:
                return await loop.run_round_fleet(
                    supervisor, sabotage=sabotage
                )
            finally:
                await supervisor.stop()

        completed = asyncio.run(fleet_round())
    else:
        store = SignatureStore(
            PSigeneDetector(state.signature_set), source="canary:incumbent"
        )
        loop = CanaryLoop(state, store, config=config)
        completed = loop.run_round(sabotage=sabotage)
    _print_canary_round(completed)
    if args.expect and args.expect != (
        "promote" if completed.promoted else "reject"
    ):
        print(
            f"repro canary: expected --expect {args.expect} but the "
            f"round was {completed.outcome}"
        )
        return 9
    return 0 if completed.promoted else 8


def _cmd_canary_status(args: argparse.Namespace) -> int:
    from repro.canary import HistoryError, read_history

    try:
        rounds = read_history(args.runs_dir)
    except HistoryError as error:
        raise SystemExit(f"repro: {error}") from None
    if not rounds:
        print(f"repro canary: no history under {args.runs_dir!r}")
        return 0
    promoted = sum(1 for r in rounds if r["outcome"] == "promoted")
    last = rounds[-1]
    print(
        f"{len(rounds)} round(s): {promoted} promoted, "
        f"{len(rounds) - promoted} rejected"
    )
    print(
        f"last: {last['outcome']} ({last['mode']}, "
        f"strategy={last['strategy']}, gen {last['generation_before']} "
        f"-> {last['generation_after']})"
        + (f", reasons: {', '.join(last['reasons'])}"
           if last["reasons"] else "")
    )
    return 0


def _cmd_canary_history(args: argparse.Namespace) -> int:
    import json

    from repro.canary import HistoryError, read_history

    try:
        rounds = read_history(args.runs_dir)
    except HistoryError as error:
        raise SystemExit(f"repro: {error}") from None
    if args.json:
        print(json.dumps(rounds, indent=2, sort_keys=True))
        return 0
    if not rounds:
        print(f"repro canary: no history under {args.runs_dir!r}")
        return 0
    for record in rounds:
        gate = record["gate"]["shadow"]
        line = (
            f"round {record['round']}: {record['outcome']} "
            f"({record['mode']}, {record['strategy']}, "
            f"gen {record['generation_before']} -> "
            f"{record['generation_after']}, "
            f"tpr {gate['tpr_delta']:+.4f}, fpr {gate['fpr_delta']:+.4f})"
        )
        if record["reasons"]:
            line += f" [{', '.join(record['reasons'])}]"
        print(line)
    return 0


def _positive_int(text: str) -> int:
    """argparse type for worker, pair and queue counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for rates: a number > 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="pSigene reproduction (DSN 2014) command line",
        epilog=COMMAND_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: one definition per shared option, so --seed,
    # --workers, and -s/--signatures are spelled and defaulted
    # identically everywhere they appear.
    seed_options = argparse.ArgumentParser(add_help=False)
    seed_options.add_argument(
        "--seed", type=int, default=2012,
        help="master RNG seed (default: 2012)",
    )
    worker_options = argparse.ArgumentParser(add_help=False)
    worker_options.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (default: 1)",
    )
    signature_options = argparse.ArgumentParser(add_help=False)
    signature_options.add_argument(
        "-s", "--signatures", default="signatures.json",
        help="signature JSON file (default: signatures.json)",
    )
    surface_options = argparse.ArgumentParser(add_help=False)
    surface_options.add_argument(
        "--surfaces", default="query,form", metavar="LIST",
        help="injection surfaces to inspect, comma-separated from "
             "query,form,json,multipart,cookie,header,second-order "
             "or 'all' (default: query,form — the paper's legacy "
             "extraction)",
    )

    train = sub.add_parser(
        "train", help="train and export signatures",
        parents=[seed_options, worker_options],
    )
    train.add_argument("-o", "--output", default="signatures.json")
    train.add_argument("--samples", type=int, default=2000)
    train.add_argument("--benign", type=int, default=6000)
    train.add_argument("--max-cluster-rows", type=int, default=1200)
    train.add_argument(
        "--manifest-dir", default="",
        help="write a run manifest into this directory ('' disables; "
             "conventionally: runs)",
    )
    train.set_defaults(func=_cmd_train)

    score = sub.add_parser(
        "score", help="score payloads against signatures",
        parents=[worker_options, signature_options, surface_options],
    )
    score.add_argument("payloads", nargs="*")
    score.set_defaults(func=_cmd_score)

    crawl = sub.add_parser(
        "crawl", help="crawl the simulated portals",
        parents=[seed_options],
    )
    crawl.add_argument("--samples", type=int, default=1000)
    crawl.set_defaults(func=_cmd_crawl)

    evaluate = sub.add_parser(
        "eval", help="run the Table V comparison",
        parents=[seed_options, worker_options],
    )
    evaluate.add_argument("--samples", type=int, default=1500)
    evaluate.add_argument("--benign", type=int, default=8000)
    evaluate.add_argument("--vulnerabilities", type=int, default=40)
    evaluate.set_defaults(func=_cmd_eval)

    def add_gateway_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--detector", choices=_DETECTOR_CHOICES, default="psigene",
            help="which detector to mount (default: psigene)",
        )
        command.add_argument(
            "--queue-bound", type=_positive_int, default=1024,
            help="admission queue capacity (default: 1024)",
        )
        command.add_argument(
            "--policy", choices=("block", "shed"), default="block",
            help="full-queue behaviour (default: block)",
        )

    serve = sub.add_parser(
        "serve", help="run the online detection gateway",
        parents=[signature_options, surface_options],
    )
    add_gateway_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=9037,
        help="listen port; 0 picks an ephemeral one (default: 9037)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="worker processes sharing the data port; >1 runs the "
             "supervised fleet (default: 1, single process)",
    )
    serve.add_argument(
        "--control-port", type=int, default=0,
        help="fleet control-plane HTTP port; 0 picks an ephemeral one "
             "(fleet mode only, default: 0)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="replay attack+benign traffic at a gateway",
        parents=[seed_options, signature_options, surface_options],
    )
    add_gateway_options(loadgen)
    loadgen.add_argument(
        "--requests", type=int, default=2000,
        help="payloads to replay (default: 2000)",
    )
    loadgen.add_argument(
        "--connections", type=int, default=8,
        help="concurrent client connections (default: 8)",
    )
    loadgen.add_argument(
        "--window", type=int, default=32,
        help="pipelined requests per connection (default: 32)",
    )
    loadgen.add_argument(
        "--benign", type=int, default=800,
        help="benign requests mixed into the trace (default: 800)",
    )
    loadgen.add_argument(
        "--vulnerabilities", type=int, default=12,
        help="webapp vulnerabilities the scanners probe (default: 12)",
    )
    loadgen.add_argument(
        "--check-parity", action=argparse.BooleanOptionalAction,
        default=True,
        help="diff responses against the offline engine (default: on)",
    )
    loadgen.add_argument(
        "--framed", action="store_true",
        help="replay whole requests in wire-format v2 frames with the "
             "--surfaces selection (implied by a non-legacy --surfaces)",
    )
    loadgen.add_argument(
        "--shards", type=int, default=1,
        help="replay against a fleet of this many shard processes "
             "(default: 1, single in-process gateway)",
    )
    loadgen.add_argument(
        "--rate", type=_positive_float, default=None,
        help="open-loop offered rate in req/s (default: closed-loop "
             "capacity measurement)",
    )
    loadgen.add_argument(
        "--slo-ms", type=float, default=50.0,
        help="latency objective for SLO attainment (default: 50ms)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    obs = sub.add_parser(
        "obs", help="observability: dump /metrics, validate manifests",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    dump = obs_sub.add_parser(
        "dump", help="scrape and strict-parse a gateway's /metrics",
    )
    dump.add_argument("--host", default="127.0.0.1")
    dump.add_argument(
        "--port", type=int, default=9037,
        help="gateway port (default: 9037)",
    )
    dump.add_argument(
        "--timeout", type=float, default=5.0,
        help="connect/read timeout in seconds (default: 5)",
    )
    dump.set_defaults(func=_cmd_obs_dump)
    validate = obs_sub.add_parser(
        "validate", help="check a run manifest against the schema",
    )
    validate.add_argument("manifest", help="path to a runs/<ts>.json file")
    validate.set_defaults(func=_cmd_obs_validate)

    conform = sub.add_parser(
        "conform",
        help="differential conformance: oracle runs, golden corpora",
    )
    conform_sub = conform.add_subparsers(dest="conform_command", required=True)

    conform_options = argparse.ArgumentParser(add_help=False)
    conform_options.add_argument(
        "--seed", type=int, default=2012,
        help="fuzz corpus / training seed (default: 2012)",
    )
    conform_options.add_argument(
        "-s", "--signatures", default=None,
        help="signature JSON file to mount (default: train the "
             "canonical small set in-process)",
    )
    budget_option = argparse.ArgumentParser(add_help=False)
    budget_option.add_argument(
        "--budget", choices=("small", "medium", "large"), default="small",
        help="fuzz corpus size (default: small)",
    )

    conform_run = conform_sub.add_parser(
        "run",
        help="fuzz a corpus and assert every detector path agrees",
        parents=[conform_options, budget_option],
    )
    conform_run.add_argument(
        "--perdisci", action=argparse.BooleanOptionalAction, default=True,
        help="also self-check the Perdisci baseline's paths (default: on)",
    )
    conform_run.add_argument(
        "--path", action="append", default=None, metavar="NAME",
        help="run only this path against the serial baseline "
             "(repeatable; e.g. gateway-framed, surfaces-legacy-parity; "
             "default: every registered path)",
    )
    conform_run.set_defaults(func=_cmd_conform_run)

    conform_record = conform_sub.add_parser(
        "record",
        help="snapshot baseline verdicts to a golden JSONL corpus",
        parents=[conform_options, budget_option],
    )
    conform_record.add_argument(
        "-o", "--output", default=None,
        help="snapshot path (default: "
             "conformance/golden/<budget>-seed<seed>.jsonl)",
    )
    conform_record.set_defaults(func=_cmd_conform_record)

    conform_diff = conform_sub.add_parser(
        "diff",
        help="recompute verdicts and diff them against a golden corpus",
        parents=[conform_options],
    )
    conform_diff.add_argument(
        "golden", help="path to a recorded golden .jsonl corpus",
    )
    conform_diff.set_defaults(func=_cmd_conform_diff)

    match = sub.add_parser(
        "match",
        help="fused matching engine: plan inspection",
    )
    match_sub = match.add_subparsers(dest="match_command", required=True)
    match_explain = match_sub.add_parser(
        "explain",
        help="print the fused engine's compiled plan census",
        parents=[conform_options],
    )
    match_explain.add_argument(
        "--patterns", action="store_true",
        help="also list every pattern with its planned tier",
    )
    match_explain.set_defaults(func=_cmd_match_explain)

    canary = sub.add_parser(
        "canary",
        help="closed-loop continual learning (shadow-score + gate)",
    )
    canary_sub = canary.add_subparsers(dest="canary_command", required=True)
    canary_run = canary_sub.add_parser(
        "run",
        help="one full ingest -> refresh -> shadow -> gate round; "
             "exit 0 promoted, 8 rejected, 9 --expect mismatch",
        parents=[seed_options],
    )
    canary_run.add_argument(
        "--fresh", type=int, default=200,
        help="fresh drifted attacks to ingest (default: 200)",
    )
    canary_run.add_argument(
        "--benign", type=int, default=400,
        help="benign payloads for FPR replay (default: 400)",
    )
    canary_run.add_argument(
        "--shift", type=float, default=3.0,
        help="drift magnitude of the fresh attack mix (default: 3.0)",
    )
    canary_run.add_argument(
        "--strategy", choices=("auto", "warm", "rebicluster"),
        default="auto",
        help="refresh strategy (default: auto — escalate on drift)",
    )
    canary_run.add_argument(
        "--drift-threshold", type=float, default=0.5,
        help="out-of-cluster rate at which auto re-biclusters "
             "(default: 0.5)",
    )
    canary_run.add_argument(
        "--fpr-budget", type=float, default=0.01,
        help="max candidate FPR on benign replay (default: 0.01)",
    )
    canary_run.add_argument(
        "--tpr-tolerance", type=float, default=0.0,
        help="allowed TPR regression on fresh attacks (default: 0.0)",
    )
    canary_run.add_argument(
        "--max-churn", type=float, default=1.0,
        help="max fraction of signatures changed/added/removed "
             "(default: 1.0)",
    )
    canary_run.add_argument(
        "--shards", type=int, default=0,
        help="run against a live N-shard fleet instead of an "
             "in-process store (default: 0 = store)",
    )
    canary_run.add_argument(
        "--inject-fpr", action="store_true",
        help="sabotage the candidate's threshold so it alerts on "
             "benign traffic — the gate must reject it (CI smoke)",
    )
    canary_run.add_argument(
        "--expect", choices=("promote", "reject"), default=None,
        help="fail with exit 9 unless the round ends this way",
    )
    canary_run.add_argument(
        "--runs-dir", default="runs",
        help="promotion-history directory ('' disables; default: runs)",
    )
    canary_run.set_defaults(func=_cmd_canary_run)
    canary_status = canary_sub.add_parser(
        "status", help="summarize the promotion history",
    )
    canary_status.add_argument("--runs-dir", default="runs")
    canary_status.set_defaults(func=_cmd_canary_status)
    canary_history = canary_sub.add_parser(
        "history", help="list every recorded round",
    )
    canary_history.add_argument("--runs-dir", default="runs")
    canary_history.add_argument(
        "--json", action="store_true",
        help="print the raw manifest records as JSON",
    )
    canary_history.set_defaults(func=_cmd_canary_history)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
