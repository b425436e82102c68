"""Evaluation harness: hardware Pareto analysis, RTL verification, artifacts, reports."""

# Re-exports are lazy (PEP 562): the serving layer reuses the artifact
# and report helpers without the model-dependent analysis/verification
# modules loading as a side effect.
from repro._lazy import lazy_exports

_EXPORTS = {
    "ARTIFACT_SCHEMA_VERSION": "repro.evaluation.artifacts",
    "Artifact": "repro.evaluation.artifacts",
    "ArtifactError": "repro.evaluation.artifacts",
    "EvaluatedDesign": "repro.evaluation.pareto_analysis",
    "evaluate_front": "repro.evaluation.pareto_analysis",
    "true_pareto_front": "repro.evaluation.pareto_analysis",
    "select_design": "repro.evaluation.pareto_analysis",
    "format_rows": "repro.evaluation.report",
    "format_table": "repro.evaluation.report",
    "reduction_factor": "repro.evaluation.report",
    "DesignVerification": "repro.evaluation.verification",
    "FrontVerification": "repro.evaluation.verification",
    "verify_design": "repro.evaluation.verification",
    "verify_front": "repro.evaluation.verification",
}

_SUBMODULES = (
    "artifacts",
    "pareto_analysis",
    "report",
    "verification",
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "Artifact",
    "ArtifactError",
    "EvaluatedDesign",
    "evaluate_front",
    "true_pareto_front",
    "select_design",
    "format_rows",
    "format_table",
    "reduction_factor",
    "DesignVerification",
    "FrontVerification",
    "verify_design",
    "verify_front",
]
