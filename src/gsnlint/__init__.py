"""gsnlint: parser, structural linter, and traceability analyzer for
GSN-based safety assurance argumentation models."""

from .findings import Finding, ParseDiagnostic, Severity
from .model import (
    AcpRelation,
    ArgumentType,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModel,
    GsnModule,
    Registries,
    RoleTag,
    canonical_dict,
    link_model,
    models_equal,
)
from .parser import load_model, parse_model, serialize_model
from .rules import (
    CATALOG,
    RuleProfile,
    catalog_as_json,
    evaluate,
    make_profile,
)
from .scaffold import ScaffoldOptions, scaffold_reference_model
from .trace import acp_report, evidence_report, trace_registry
from .wellformed import check_wellformed

__all__ = [name for name in dir() if not name.startswith("_")]
