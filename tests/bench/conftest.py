"""Put ``benchmarks/`` on the import path: the bench harness is the
module ``benchlib`` there, imported under that one name everywhere."""

import os
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
