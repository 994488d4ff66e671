"""datareel: compile a data table plus a title into an animated data-video project.

Two chat-agent roles (a data analyst and a designer) produce the insights,
Vega-Lite chart, narration, animation directives, and annotations; a
deterministic controller binds them to rendered SVG elements and compiles a
keyframe timeline over the narration audio clock.
"""

__version__ = "0.1.0"

from .errors import (
    AdapterError,
    ContractError,
    PipelineError,
    PreconditionError,
    StageError,
)
from .model import (
    AnalystOutput,
    AnimationDirective,
    AnnotationDirective,
    DataDescription,
    DataTable,
    DesignerOutput,
    Insight,
    ValidationReport,
    VisualizationSpec,
    classify_animation,
    parse_insight_type,
)
from .pipeline import ProjectConfig, ProjectManifest, run_pipeline

__all__ = [
    "AdapterError",
    "AnalystOutput",
    "AnimationDirective",
    "AnnotationDirective",
    "ContractError",
    "DataDescription",
    "DataTable",
    "DesignerOutput",
    "Insight",
    "PipelineError",
    "PreconditionError",
    "ProjectConfig",
    "ProjectManifest",
    "StageError",
    "ValidationReport",
    "VisualizationSpec",
    "classify_animation",
    "parse_insight_type",
    "run_pipeline",
    "__version__",
]
