"""repro — a reproduction of pSigene (DSN 2014).

pSigene: Webcrawling to Generalize SQL Injection Signatures
(Modelo-Howard, Gutierrez, Arshad, Bagchi, Qi).

The top-level package imports nothing, so ``python -m repro serve`` loads
only the serving path; the subpackages hold the full system (see
DESIGN.md for the inventory):

- :mod:`repro.core` — the four-phase pipeline and signature artifacts
- :mod:`repro.crawler` — webcrawling substrate with simulated portals
- :mod:`repro.corpus` — SQLi grammar, benign traffic, vulnerable webapp
- :mod:`repro.features` — the three-source feature catalog and extraction
- :mod:`repro.cluster` — UPGMA biclustering from scratch
- :mod:`repro.learn` — logistic regression via Newton + PCG
- :mod:`repro.ids` — signature-IDS engine and the four baseline rulesets
- :mod:`repro.scanners` — SQLmap/Arachni/Vega simulators
- :mod:`repro.perdisci` — the token-subsequence baseline
- :mod:`repro.eval` — drivers for every table and figure in the paper
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
