"""IDS substrate: rule semantics, rulesets, and the inspection engine."""

from repro._lazy import lazy_exports
from repro.ids.engine import (
    Alert,
    Detector,
    EngineRun,
    PSigeneDetector,
    SignatureEngine,
)
from repro.ids.rules import (
    Detection,
    DeterministicRuleSet,
    Rule,
    RuleSet,
    ScoringRuleSet,
)

__all__ = [
    "Rule",
    "RuleSet",
    "Detection",
    "DeterministicRuleSet",
    "ScoringRuleSet",
    "Detector",
    "PSigeneDetector",
    "SignatureEngine",
    "EngineRun",
    "Alert",
    "BroSignature",
    "BroPolicyLayer",
    "PolicyAlert",
    "SigParseError",
    "parse_sig_file",
    "render_sig_file",
    "ruleset_from_sig_file",
    "RulesParseError",
    "parse_rules_file",
    "render_rules_file",
    "ruleset_from_rules_file",
]

# The rule-language front ends load on first use.
__getattr__ = lazy_exports(__name__, {
    "brolang": (
        "BroPolicyLayer", "BroSignature", "PolicyAlert", "SigParseError",
        "parse_sig_file", "render_sig_file", "ruleset_from_sig_file",
    ),
    "snortlang": (
        "RulesParseError", "parse_rules_file", "render_rules_file",
        "ruleset_from_rules_file",
    ),
})
