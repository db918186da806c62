"""IDS substrate: rule semantics, rulesets, and the inspection engine."""

from repro.ids.engine import (
    Alert,
    Detector,
    EngineRun,
    PSigeneDetector,
    SignatureEngine,
)
from repro.ids.brolang import (
    BroPolicyLayer,
    BroSignature,
    PolicyAlert,
    SigParseError,
    parse_sig_file,
    render_sig_file,
    ruleset_from_sig_file,
)
from repro.ids.snortlang import (
    RulesParseError,
    parse_rules_file,
    render_rules_file,
    ruleset_from_rules_file,
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
