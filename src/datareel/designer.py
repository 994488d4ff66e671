"""The designer role: prompt construction, reply parsing, and animation legality checks.

The legality rules follow the designer prompt: model.FIRST_SENTENCE_ONLY
animations only inside the first sentence, elements can only be emphasized or
exit after they have appeared, nothing is emphasized after it disappears, and
every directive's narration segment must be a verbatim excerpt of the narration.
"""

import json
from typing import TypedDict

from .errors import ContractError
from .ingest import DEFAULT_PROMPT_ROWS, fill_template, render_table_text
from .model import (
    FIRST_SENTENCE_ONLY,
    AnimationDirective,
    AnnotationDirective,
    DataTable,
    DesignerOutput,
    IndexOutOfRange,
    RepairReport,
    ValidationReport,
    Violation,
    VisualizationSpec,
    build_read,
    parse_annotation_type,
    read_typed,
    structure_violations,
)
from .runtime import ChatSession, extract_json, repair_loop
from .timeline import SegmentNotFound, first_sentence_end, locate_span


def build_designer_prompt(vis: VisualizationSpec, narration: str, table: DataTable,
                          max_rows: int | None = DEFAULT_PROMPT_ROWS) -> str:
    """Fill the designer template with the spec, narration, and rendered table."""
    if not narration.strip():
        raise ValueError("narration must be non-empty")
    return fill_template("designer", visualization=json.dumps(vis.spec), narration=narration,
                         table=render_table_text(table, max_rows))


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
    first_entrance: dict = {}  # target identity -> its first entrance's start; located is sorted
    for span, d, targets in located:
        if d.category == "entrance":
            for x in targets:
                first_entrance.setdefault(x, span.start_char)
    exits = [(s, t) for s, d, t in located if d.category == "exit"]

    for span, d, targets in located:
        if d.animation in FIRST_SENTENCE_ONLY and span.end_char > sentence_end:
            violations.append(Violation(
                "axes-first-sentence", d.animation,
                f"{d.animation} may only be used within the first sentence of the narration",
            ))
        if d.category != "entrance":
            if any(first_entrance.get(x, -1) > span.start_char for x in targets):
                kind = "emphasized" if d.category == "emphasis" else "removed"
                violations.append(Violation(
                    "appear-before-emphasis", d.animation,
                    f"target {d.target!r} is {kind} before its entrance animation",
                ))
        if d.category == "emphasis":
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


class AnimationJson(TypedDict):
    animation: str
    narration: str
    target: str
    index: list[int]
    explanation: str


class AnnotationJson(TypedDict):
    type: list[str]
    description: str
    index: list[int]
    nar: str


class DesignerJson(TypedDict):
    """The designer reply format, as designer_output_to_json writes it."""

    Annotated_Visualization: dict
    Annotated_Narration_for_Animation: list[AnimationJson]
    Annotated_Narration_for_Annotation: list[AnnotationJson]


# What an annotation item with an empty type list reads as, before it is dropped.
_DROPPED = {"type": [], "description": "", "index": [], "nar": ""}


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


def _rows(index: list[int], table: DataTable) -> tuple[int, ...]:
    for row in index:
        if not 0 <= row < table.row_count:
            raise IndexOutOfRange(row, table.row_count)
    return tuple(index)


def designer_output_from_json(value, table: DataTable) -> DesignerOutput:
    """Build a DesignerOutput from a parsed reply or a persisted designer.json
    payload; raises JsonTypeError where the value breaks the reply format and
    IndexOutOfRange for a row outside table. An annotation item whose type
    list is empty is dropped, whatever else it holds."""
    key = "Annotated_Narration_for_Annotation"
    if isinstance(value, dict) and isinstance(value.get(key), list):
        value = {**value, key: [_DROPPED if isinstance(item, dict) and item.get("type") == []
                                else item for item in value[key]]}
    reply = read_typed(DesignerJson, value, ignore_extra_keys=True)
    return DesignerOutput(
        annotated_visualization=reply["Annotated_Visualization"],
        animation_directives=tuple([
            build_read(AnimationDirective, "Annotated_Narration_for_Animation", position,
                       animation=item["animation"].strip(), narration=item["narration"],
                       target=item["target"], index=_rows(item["index"], table),
                       explanation=item["explanation"])
            for position, item in enumerate(reply["Annotated_Narration_for_Animation"])]),
        annotation_directives=tuple([
            build_read(AnnotationDirective, "Annotated_Narration_for_Annotation", position,
                       types=tuple(map(parse_annotation_type, item["type"])),
                       description=item["description"], index=_rows(item["index"], table),
                       nar=item["nar"])
            for position, item in enumerate(reply[key]) if item["type"]]),
    )
