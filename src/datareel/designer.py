"""The designer role: prompt construction, reply parsing, and animation legality checks.

The legality rules follow the designer prompt: Axes-fade-in only inside the
first sentence, elements can only be emphasized or exit after they have
appeared, nothing is emphasized after it disappears, and every directive's
narration segment must be a verbatim excerpt of the narration.
"""

import json

from .errors import ContractError
from .ingest import DEFAULT_PROMPT_ROWS, fill_template, render_table_text
from .model import (
    AnimationCategory,
    AnimationDirective,
    AnnotationDirective,
    DataTable,
    DesignerOutput,
    IndexOutOfRange,
    RepairReport,
    ValidationReport,
    Violation,
    VisualizationSpec,
    classify_animation,
    parse_annotation_type,
    structure_violations,
)
from .runtime import ChatSession, SchemaError, extract_json, repair_loop
from .timeline import SegmentNotFound, first_sentence_end, locate_span

DESIGNER_KEYS = (
    "Annotated_Visualization",
    "Annotated_Narration_for_Animation",
    "Annotated_Narration_for_Annotation",
)

ANIMATION_ITEM_KEYS = ("animation", "narration", "target", "index", "explanation")
ANNOTATION_ITEM_KEYS = ("type", "description", "index", "nar")


def build_designer_prompt(vis: VisualizationSpec, narration: str, table: DataTable,
                          max_rows: int | None = DEFAULT_PROMPT_ROWS) -> str:
    """Fill the designer template with the spec, narration, and rendered table."""
    if not narration.strip():
        raise ValueError("narration must be non-empty")
    return fill_template("designer", visualization=json.dumps(vis.spec), narration=narration,
                         table=render_table_text(table, max_rows))


def _parse_indices(value, path: str, table: DataTable) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SchemaError(path, "must be a list of row indices")
    out = []
    for item in value:
        if type(item) is not int or item < 0:
            raise SchemaError(path, f"row index must be a non-negative integer, got {item!r}")
        if item >= table.row_count:
            raise IndexOutOfRange(item, table.row_count)
        out.append(item)
    return tuple(out)


def _parse_animation_item(item, position: int, table: DataTable) -> AnimationDirective:
    path = f"Annotated_Narration_for_Animation[{position}]"
    if not isinstance(item, dict):
        raise SchemaError(path, "animation entry must be an object")
    for key in ANIMATION_ITEM_KEYS:
        if key not in item:
            raise SchemaError(f"{path}.{key}", "missing key")
    if not isinstance(item["animation"], str):
        raise SchemaError(f"{path}.animation", "must be a string")
    classify_animation(item["animation"])
    if not isinstance(item["narration"], str) or not item["narration"].strip():
        raise SchemaError(f"{path}.narration", "must be a non-empty string")
    if not isinstance(item["target"], str):
        raise SchemaError(f"{path}.target", "must be a string")
    if not isinstance(item["explanation"], str):
        raise SchemaError(f"{path}.explanation", "must be a string")
    return AnimationDirective(
        animation=item["animation"].strip(),
        narration=item["narration"],
        target=item["target"],
        index=_parse_indices(item["index"], f"{path}.index", table),
        explanation=item["explanation"],
    )


def _parse_annotation_item(item, position: int, table: DataTable) -> AnnotationDirective | None:
    path = f"Annotated_Narration_for_Annotation[{position}]"
    if not isinstance(item, dict):
        raise SchemaError(path, "annotation entry must be an object")
    if item.get("type") == []:
        return None  # empty-typed items are dropped per the output contract
    for key in ANNOTATION_ITEM_KEYS:
        if key not in item:
            raise SchemaError(f"{path}.{key}", "missing key")
    types = item["type"]
    if not isinstance(types, list):
        raise SchemaError(f"{path}.type", "must be a list of annotation types")
    if not isinstance(item["description"], str):
        raise SchemaError(f"{path}.description", "must be a string")
    if not isinstance(item["nar"], str) or not item["nar"].strip():
        raise SchemaError(f"{path}.nar", "must be a non-empty string")
    return AnnotationDirective(
        types=tuple(parse_annotation_type(t) for t in types),
        description=item["description"],
        index=_parse_indices(item["index"], f"{path}.index", table),
        nar=item["nar"],
    )


def parse_designer_response(raw: str, table: DataTable) -> DesignerOutput:
    """Parse the designer's three-key reply into a DesignerOutput."""
    return designer_output_from_json(extract_json(raw), table)


def default_target_resolver(directive: AnimationDirective) -> frozenset:
    """Target identity without a mark index: row indices, else the target string."""
    if directive.index:
        return frozenset(directive.index)
    return frozenset({" ".join(directive.target.lower().split())})


def validate_animation_sequence(directives, narration: str,
                                resolver=None) -> ValidationReport:
    """Check the four legality rules over a directive list.

    resolver maps a directive to a set of opaque target identities, or raises
    a ContractError when it cannot; two directives act on the same elements
    when their sets intersect. Directives whose segments cannot be located
    are reported and excluded from the ordering rules. Targets with no
    entrance are visible from time zero, so emphasizing them is always legal.
    """
    if resolver is None:
        resolver = default_target_resolver
    violations: list[Violation] = []
    advisories: list[Violation] = []

    located = []
    for d in directives:
        try:
            span = locate_span(narration, d.narration, 0)
        except SegmentNotFound:
            violations.append(Violation(
                "segment-unlocatable", d.animation,
                f"narration segment is not a verbatim excerpt: {d.narration!r}",
            ))
            continue
        try:
            targets = resolver(d)
        except ContractError as e:
            violations.append(Violation("unresolved-target", d.animation, str(e)))
            continue
        located.append((span, d, targets))
    located.sort(key=lambda item: (
        item[0].start_char, item[0].end_char, item[1].animation, item[1].target,
    ))

    sentence_end = first_sentence_end(narration)
    entrances = [(s, t) for s, d, t in located
                 if classify_animation(d.animation) is AnimationCategory.ENTRANCE]
    exits = [(s, t) for s, d, t in located
             if classify_animation(d.animation) is AnimationCategory.EXIT]

    for span, d, targets in located:
        category = classify_animation(d.animation)
        if d.animation == "Axes-fade-in" and span.end_char > sentence_end:
            violations.append(Violation(
                "axes-first-sentence", d.animation,
                "Axes-fade-in may only be used within the first sentence of the narration",
            ))
        if category in (AnimationCategory.EMPHASIS, AnimationCategory.EXIT):
            related = [s for s, t in entrances if t & targets]
            if related and all(s.start_char > span.start_char for s in related):
                kind = "emphasized" if category is AnimationCategory.EMPHASIS else "removed"
                violations.append(Violation(
                    "appear-before-emphasis", d.animation,
                    f"target {d.target!r} is {kind} before its entrance animation",
                ))
        if category is AnimationCategory.EMPHASIS:
            if any(t & targets and span.start_char >= s.end_char for s, t in exits):
                violations.append(Violation(
                    "emphasis-after-exit", d.animation,
                    f"target {d.target!r} is emphasized after it has disappeared",
                ))

    seen: dict[tuple, int] = {}
    for d in directives:
        key = (d.animation, d.narration, d.target)
        seen[key] = seen.get(key, 0) + 1
    for (animation, narration_seg, target), count in seen.items():
        if count > 1:
            advisories.append(Violation(
                "duplicate-directive", animation,
                f"{count} identical directives on {target!r} for {narration_seg!r}; collapsed",
            ))
    return ValidationReport(violations=tuple(violations), advisories=tuple(advisories))


def validate_designer_output(output: DesignerOutput, narration: str,
                             resolver=None) -> ValidationReport:
    """The designer's acceptance rule: annotated-spec structure, animation legality,
    and verbatim annotation segments."""
    structural = structure_violations(output.annotated_visualization,
                                      "Annotated_Visualization")
    unlocatable = []
    for i, d in enumerate(output.annotation_directives):
        try:
            locate_span(narration, d.nar, 0)
        except SegmentNotFound:
            unlocatable.append(Violation(
                "segment-unlocatable", f"annotation[{i}]",
                f"narration segment is not a verbatim excerpt: {d.nar!r}",
            ))
    return ValidationReport(violations=structural).merged(
        validate_animation_sequence(output.animation_directives, narration, resolver)
    ).merged(ValidationReport(violations=tuple(unlocatable)))


def run_designer(session: ChatSession, vis: VisualizationSpec, narration: str,
                 table: DataTable, max_attempts: int = 3, resolver=None,
                 max_rows: int | None = DEFAULT_PROMPT_ROWS,
                 ) -> tuple[DesignerOutput, ValidationReport, RepairReport]:
    """Run the designer prompt through the repair loop until the reply validates."""
    return repair_loop(session, build_designer_prompt(vis, narration, table, max_rows),
                       lambda raw: parse_designer_response(raw, table),
                       lambda output: validate_designer_output(output, narration, resolver),
                       max_attempts)


def designer_output_to_json(output: DesignerOutput) -> dict:
    """Serialize a DesignerOutput mirroring the designer reply format exactly."""
    return {
        "Annotated_Visualization": output.annotated_visualization,
        "Annotated_Narration_for_Animation": [
            {
                "animation": d.animation,
                "narration": d.narration,
                "target": d.target,
                "index": list(d.index),
                "explanation": d.explanation,
            }
            for d in output.animation_directives
        ],
        "Annotated_Narration_for_Annotation": [
            {
                "type": list(d.types),
                "description": d.description,
                "index": list(d.index),
                "nar": d.nar,
            }
            for d in output.annotation_directives
        ],
    }


def designer_output_from_json(value, table: DataTable) -> DesignerOutput:
    """Build a DesignerOutput from a parsed reply or a persisted designer.json
    payload; raises SchemaError where the value breaks the reply format."""
    if not isinstance(value, dict):
        raise SchemaError("", "reply is not a JSON object")
    for key in DESIGNER_KEYS:
        if key not in value:
            raise SchemaError(key, "missing key")
    annotated = value["Annotated_Visualization"]
    if not isinstance(annotated, dict):
        raise SchemaError("Annotated_Visualization", "must be a JSON object")
    animations_raw = value["Annotated_Narration_for_Animation"]
    if not isinstance(animations_raw, list):
        raise SchemaError("Annotated_Narration_for_Animation", "must be a list")
    annotations_raw = value["Annotated_Narration_for_Annotation"]
    if not isinstance(annotations_raw, list):
        raise SchemaError("Annotated_Narration_for_Annotation", "must be a list")
    animations = tuple(
        _parse_animation_item(item, i, table) for i, item in enumerate(animations_raw)
    )
    annotations = tuple(
        parsed
        for i, item in enumerate(annotations_raw)
        if (parsed := _parse_annotation_item(item, i, table)) is not None
    )
    return DesignerOutput(
        annotated_visualization=annotated,
        animation_directives=animations,
        annotation_directives=annotations,
    )
