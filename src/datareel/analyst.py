"""The data-analyst role: prompt construction, reply parsing, and spec validation.

One completion covers all three analyst tasks (insights, visualization,
narration) because the prompt ends with a single combined JSON format. Spec
validation here is structural only; deep Vega-Lite validity is established
when the renderer accepts or rejects the spec.
"""

from typing import TypedDict

from .errors import PreconditionError
from .ingest import DEFAULT_PROMPT_ROWS, fill_template, render_table_text
from .model import (
    AnalystOutput,
    DataDescription,
    DataTable,
    Insight,
    ValidationReport,
    VisualizationSpec,
    Violation,
    build_read,
    mark_type,
    read_typed,
    spec_layers,
    structure_violations,
    title_text,
)
from .runtime import ChatSession, RepairReport, extract_json, repair_loop

MAX_TITLE_WORDS = 10
INSIGHT_COUNT_BAND = (1, 10)


def build_analyst_prompt(description: DataDescription, table: DataTable,
                         max_rows: int | None = DEFAULT_PROMPT_ROWS) -> str:
    """Fill the analyst template with the table description and rendered table."""
    return fill_template("analyst", description=description.text,
                         table=render_table_text(table, max_rows))


def parse_analyst_response(raw: str) -> AnalystOutput:
    """Parse the analyst's four-key reply into an AnalystOutput."""
    return analyst_output_from_json(extract_json(raw))


def _iter_encodings(spec: dict):
    """Yield (path, encoding dict) for the top level and every layer."""
    if isinstance(spec.get("encoding"), dict):
        yield "Visualization.encoding", spec["encoding"]
    layers = spec.get("layer")
    if isinstance(layers, list):
        for i, layer in enumerate(layers):
            if isinstance(layer, dict) and isinstance(layer.get("encoding"), dict):
                yield f"Visualization.layer[{i}].encoding", layer["encoding"]


def validate_visualization(spec: VisualizationSpec) -> ValidationReport:
    """Report structural violations and presentation advisories for a spec.

    Never raises: violations are fatal to the repair loop, advisories are not.
    """
    violations = list(structure_violations(spec.spec, "Visualization"))
    advisories = []
    if isinstance(spec.spec, dict):
        for path, encoding in _iter_encodings(spec.spec):
            for channel, defn in encoding.items():
                if isinstance(defn, dict) and defn.get("field") == "index":
                    violations.append(
                        Violation(
                            "index-encoded",
                            f"{path}.{channel}",
                            'the "index" column must not be visualized',
                        )
                    )
        layers = spec_layers(spec.spec)
        if spec.vis_type == "line":
            has_points = any(
                isinstance(l.get("mark"), dict) and l["mark"].get("point")
                for l in layers
            ) or any(mark_type(l) in ("point", "circle") for l in layers)
            if not has_points:
                advisories.append(Violation("line-points", "Visualization",
                                            "line chart should include data points"))
        if spec.vis_type == "pie":
            if not any(mark_type(l) == "text" for l in layers):
                advisories.append(
                    Violation(
                        "pie-label", "Visualization",
                        "pie chart should display percentages via a text layer",
                    )
                )
        title = title_text(spec.spec)
        if title is not None and len(title.split()) > MAX_TITLE_WORDS:
            advisories.append(
                Violation(
                    "title-length", "Visualization.title",
                    f"title has {len(title.split())} words; keep it under {MAX_TITLE_WORDS}",
                )
            )
    return ValidationReport(violations=tuple(violations), advisories=tuple(advisories))


def validate_analyst_output(output: AnalystOutput) -> ValidationReport:
    """The analyst's acceptance rule: the spec checks plus the insight-count advisory."""
    report = validate_visualization(output.visualization)
    count = len(output.insights)
    low, high = INSIGHT_COUNT_BAND
    if not low <= count <= high:
        report = report.merged(ValidationReport(advisories=(
            Violation("insight-count", "Insights",
                      f"{count} insights is outside the expected {low}..{high} band"),
        )))
    return report


def run_analyst(session: ChatSession, description: DataDescription, table: DataTable,
                max_attempts: int = 3,
                max_rows: int | None = DEFAULT_PROMPT_ROWS,
                ) -> tuple[AnalystOutput, ValidationReport, RepairReport]:
    """Run the analyst prompt through the repair loop until the reply validates."""
    if table.row_count == 0:
        raise PreconditionError("cannot analyze a table with no rows")
    return repair_loop(session, build_analyst_prompt(description, table, max_rows),
                       parse_analyst_response,
                       validate_analyst_output, max_attempts)


class InsightJson(TypedDict):
    insight: str
    type: list[str]


class AnalystJson(TypedDict):
    """The analyst reply format, as analyst_output_to_json writes it."""

    Insights: list[InsightJson]
    Visualization: dict
    Visualization_Type: str
    Narration: str


def analyst_output_to_json(output: AnalystOutput) -> dict:
    """Serialize an AnalystOutput mirroring the analyst reply format exactly."""
    return {
        "Insights": [
            {"insight": ins.insight, "type": list(ins.types)} for ins in output.insights
        ],
        "Visualization": output.visualization.spec,
        "Visualization_Type": output.visualization.vis_type,
        "Narration": output.narration,
    }


def analyst_output_from_json(value) -> AnalystOutput:
    """Build an AnalystOutput from a parsed reply or a persisted analyst.json
    payload; raises JsonTypeError where the value breaks the reply format."""
    reply = read_typed(AnalystJson, value, ignore_extra_keys=True)
    insights = tuple([
        build_read(Insight, "Insights", position, insight=item["insight"],
                   types=tuple(item["type"]))
        for position, item in enumerate(reply["Insights"])])
    visualization = build_read(VisualizationSpec, "Visualization_Type",
                               spec=reply["Visualization"], vis_type=reply["Visualization_Type"])
    return build_read(AnalystOutput, insights=insights, visualization=visualization,
                      narration=reply["Narration"])
