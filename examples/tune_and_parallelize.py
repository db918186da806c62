"""Operating the signature set: threshold tuning and batched matching.

Two operational features the paper sketches:

* Section III-D: from the per-signature ROC curves "a security
  administrator can visually, and approximately, decide which signatures
  to enable or disable" — here automated as an FPR-budgeted threshold
  search (`repro.eval.tune_thresholds`).
* Experiment 4 / future work: "the signature matching is completely
  parallelizable" (Bro's cluster mode) — here the request-axis fan-out
  `SignatureEngine.run_batch(trace, workers=N)`, timed at 1 and 2
  workers on this machine.

    python examples/tune_and_parallelize.py
"""

import time

from repro.core import PipelineConfig, PSigenePipeline
from repro.corpus import BenignTrafficGenerator, VulnerableWebApp
from repro.eval import tune_thresholds
from repro.http import Trace
from repro.ids import PSigeneDetector, SignatureEngine
from repro.scanners import ArachniSimulator


def main() -> None:
    print("Training pSigene...")
    pipeline = PSigenePipeline(PipelineConfig(
        seed=2012, n_attack_samples=1500, n_benign_train=4000,
        max_cluster_rows=1000,
    ))
    result = pipeline.run()

    print("Generating tuning traffic (Arachni scan + benign day)...")
    app = VulnerableWebApp(seed=7, n_vulnerabilities=20)
    attacks = ArachniSimulator(app, seed=70).scan()
    benign = BenignTrafficGenerator(seed=71).trace(8000)

    print("\n-- Threshold tuning (per-signature FPR budget 0.02%) --")
    tuned, tunings = tune_thresholds(
        result.signature_set, attacks, benign,
        max_fpr_per_signature=0.0002,
    )
    for tuning in tunings:
        state = "enabled " if tuning.enabled else "DISABLED"
        print(f"  Sig_b{tuning.bicluster_index}: threshold="
              f"{tuning.threshold:0.3f} tpr={tuning.tpr:0.3f} "
              f"fpr={tuning.fpr:0.5f}  [{state}]")

    def measure(signature_set, name):
        engine = SignatureEngine(PSigeneDetector(signature_set))
        tpr = engine.run(attacks).alert_flags.mean()
        fpr = engine.run(benign).alert_flags.mean()
        print(f"  {name:12s} TPR={tpr:0.4f} FPR={fpr:0.5f} "
              f"({len(signature_set)} signatures)")

    print("\n-- Before vs after tuning --")
    measure(result.signature_set, "default")
    measure(tuned, "tuned")

    print("\n-- Batched matching (measured wall time) --")
    trace = Trace(
        name="probe", requests=attacks.requests + benign.requests[:4000]
    )
    engine = SignatureEngine(PSigeneDetector(tuned))
    for workers in (1, 2):
        start = time.perf_counter()
        run = engine.run_batch(trace, workers=workers)
        wall = time.perf_counter() - start
        print(f"  workers={workers}: {len(trace)} requests in {wall:0.2f}s "
              f"({len(trace) / wall:0.0f} req/s, {run.alert_count} alerts)")


if __name__ == "__main__":
    main()
