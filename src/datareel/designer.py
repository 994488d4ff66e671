"""The designer role: prompt construction, reply parsing, and animation legality checks.

The legality rules follow the designer prompt: model.FIRST_SENTENCE_ONLY
animations only inside the first sentence, elements can only be emphasized or
exit after they have appeared, nothing is emphasized after it disappears
(until it enters again), and every directive's narration segment must be a
verbatim excerpt, located as the timeline stage places it.
"""

import json
from collections import Counter
from typing import TypedDict

from .errors import ContractError
from .ingest import DEFAULT_PROMPT_ROWS, fill_template, render_table_text
from .model import (
    FIRST_SENTENCE_ONLY,
    AnimationDirective,
    AnnotationDirective,
    DataTable,
    DesignerOutput,
    JsonTypeError,
    ValidationReport,
    Violation,
    VisualizationSpec,
    build_read,
    read_typed,
    structure_violations,
)
from .runtime import ChatSession, RepairReport, extract_json, repair_loop
from .timeline import (PlacedDirective, alive_over, first_sentence_end, lifetime_changes,
                       locate_segments)
from .timeline import locate_span  # noqa: F401 -- read only by perfbench's hook table


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


def _locate(narration: str, segments: list[str], paths: list[str]):
    """locate_segments' spans, and a report of the segments it cannot locate or finds twice."""
    spans, repeated = locate_segments(narration, segments)
    return spans, ValidationReport(
        violations=tuple(Violation("segment-unlocatable", path,
                                   f"narration segment is not a verbatim excerpt: {segment!r}")
                         for path, segment, span in zip(paths, segments, spans) if span is None),
        advisories=tuple(Violation("ambiguous-segment", paths[i],
                                   f"narration segment occurs more than once: {segments[i]!r}; "
                                   "placed at its first occurrence from the previous "
                                   "segment's start") for i in repeated))


def validate_animation_sequence(directives, narration: str,
                                resolver=None) -> ValidationReport:
    """Check the four legality rules over a directive list.

    resolver maps a directive to a set of opaque target identities, or raises
    a ContractError when it cannot; two directives act on the same elements
    when their sets intersect. Directives whose segments cannot be located
    (see _locate) are reported and excluded from the ordering rules. Targets
    with no entrance are visible from time zero, so emphasizing them is
    always legal; a target that exits is gone until an entrance of it starts.
    Each finding's path is its directive's place in the reply.
    """
    if resolver is None:
        resolver = default_target_resolver
    paths = [f"Annotated_Narration_for_Animation[{i}]" for i in range(len(directives))]
    spans, report = _locate(narration, [d.narration for d in directives], paths)
    violations: list[Violation] = []
    located = []
    for path, d, span in zip(paths, directives, spans):
        if span is None:
            continue
        try:
            located.append((span, d, resolver(d), path))
        except ContractError as e:
            violations.append(Violation("unresolved-target", path, str(e)))
    located.sort(key=lambda item: (item[0], item[1].animation, item[1].target))

    sentence_end = first_sentence_end(narration)
    # The compiler's lifetime rule, on the narration's character offsets.
    changes = lifetime_changes([PlacedDirective(d.animation, t, s) for s, d, t, _ in located])
    first_entrance: dict = {}  # target identity -> its first entrance's start
    for time, born, ids in changes:
        for x in ids if born else ():
            first_entrance.setdefault(x, time)

    for (start, end), d, targets, path in located:
        if d.animation in FIRST_SENTENCE_ONLY and end > sentence_end:
            violations.append(Violation(
                "axes-first-sentence", path,
                f"{d.animation} may only be used within the first sentence of the narration",
            ))
        if d.category != "entrance":
            if any(first_entrance.get(x, -1) > start for x in targets):
                kind = "emphasized" if d.category == "emphasis" else "removed"
                violations.append(Violation(
                    "appear-before-emphasis", path,
                    f"target {d.target!r} is {kind} before its entrance animation",
                ))
        if d.category == "emphasis":
            gone = targets - alive_over(changes, targets, start, start)
            if any(time <= start and ids & gone for time, _, ids in changes):
                violations.append(Violation(
                    "emphasis-after-exit", path,
                    f"target {d.target!r} is emphasized after it has disappeared",
                ))

    keys = [(d.animation, d.narration, d.target) for d in directives]
    advisories = [Violation("duplicate-directive", paths[keys.index(key)],
                            f"{count} identical directives on {key[2]!r} for {key[1]!r}; "
                            "collapsed")
                  for key, count in Counter(keys).items() if count > 1]
    return report.merged(ValidationReport(tuple(violations), tuple(advisories)))


def validate_designer_output(output: DesignerOutput, narration: str,
                             resolver=None) -> ValidationReport:
    """The designer's acceptance rule: annotated-spec structure, animation legality,
    and verbatim annotation segments, located as the animation segments are."""
    structural = structure_violations(output.annotated_visualization,
                                      "Annotated_Visualization")
    _, located = _locate(narration, [d.nar for d in output.annotation_directives],
                         [f"Annotated_Narration_for_Annotation[{i}]"
                          for i in range(len(output.annotation_directives))])
    return ValidationReport(violations=structural).merged(
        validate_animation_sequence(output.animation_directives, narration, resolver)
    ).merged(located)


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


def _rows(index: list[int], table: DataTable, key: str, position: int) -> tuple[int, ...]:
    for k, row in enumerate(index):
        if not 0 <= row < table.row_count:
            raise JsonTypeError(f"{key}[{position}].index[{k}]: row {row} out of range "
                                f"(table has {table.row_count} rows)")
    return tuple(index)


def designer_output_from_json(value, table: DataTable) -> DesignerOutput:
    """Build a DesignerOutput from a parsed reply or a persisted designer.json
    payload; raises JsonTypeError where the value breaks the reply format,
    a row outside table included. An annotation item whose type list is
    empty is dropped, whatever else it holds, but it still counts in the
    positions that error paths name."""
    key = "Annotated_Narration_for_Annotation"
    if isinstance(value, dict) and isinstance(value.get(key), list):
        value = {**value, key: [_DROPPED if isinstance(item, dict) and item.get("type") == []
                                else item for item in value[key]]}
    reply = read_typed(DesignerJson, value, ignore_extra_keys=True)
    animations = "Annotated_Narration_for_Animation"
    return DesignerOutput(
        annotated_visualization=reply["Annotated_Visualization"],
        animation_directives=tuple([
            build_read(AnimationDirective, animations, position,
                       animation=item["animation"], narration=item["narration"],
                       target=item["target"], explanation=item["explanation"],
                       index=_rows(item["index"], table, animations, position))
            for position, item in enumerate(reply[animations])]),
        annotation_directives=tuple([
            build_read(AnnotationDirective, key, position, types=tuple(item["type"]),
                       description=item["description"],
                       index=_rows(item["index"], table, key, position), nar=item["nar"])
            for position, item in enumerate(reply[key]) if item["type"]]),
    )
