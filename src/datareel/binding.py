"""SVG parsing, data binding, target resolution, and annotation diffing.

Binding relies entirely on renderer-emitted metadata: group role markers
(data-role) and per-datum attributes (data-row, data-series). Annotation
elements are recovered by a structural diff between the base and annotated
renderings, keyed on content rather than geometry so re-layout never creates
false positives.
"""

import math
import re
import xml.etree.ElementTree as ET
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import count, filterfalse
from operator import itemgetter
from typing import NamedTuple

from .errors import AdapterError, ContractError, PreconditionError
from .model import (
    AnimationDirective,
    AnnotationDirective,
    DataTable,
    DesignerOutput,
    ValidationReport,
    Violation,
)


class XmlParseError(PreconditionError):
    def __init__(self, position):
        super().__init__(f"XML parse error at line {position[0]}, column {position[1]}")
        self.position = position


class NotSvg(PreconditionError):
    pass


class UnboundMark(AdapterError):
    """A rendered mark or annotation (the role) whose data-row is missing or
    does not read: the renderer's output breaks its contract."""

    def __init__(self, element_id: str, detail: str = "carries no data-row metadata",
                 role: str = "mark"):
        super().__init__(f"rendered {role} {element_id!r} {detail}")


class UnresolvedTarget(ContractError):
    def __init__(self, directive: AnimationDirective):
        super().__init__(
            f"no elements resolve for target {directive.target!r} (index {list(directive.index)})"
        )
        self.directive = directive


# Attributes excluded from diff keys: layering annotations can shift layout,
# so identity must not depend on geometry. Synthesized ids are positional and
# excluded for the same reason.
GEOMETRY_ATTRS = frozenset({
    "x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "r", "rx", "ry",
    "d", "points", "transform", "width", "height", "dx", "dy", "viewBox",
})

# The characters xml.sax.saxutils.quoteattr replaces.
_ATTR_SPECIAL = re.compile('[&<>"\n\r\t]')


def escape(text: str) -> str:
    """text with &, > and < written as entities, as xml.sax.saxutils.escape."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(value: str) -> str:
    """value escaped and quoted as an XML attribute value, as
    xml.sax.saxutils.quoteattr: newline, return and tab become character
    references, and the value goes in single quotes when it holds a double
    quote but no single one."""
    if _ATTR_SPECIAL.search(value) is None:
        return '"' + value + '"'
    value = escape(value).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return '"' + value + '"'
    if "'" not in value:
        return "'" + value + "'"
    return '"' + value.replace('"', "&quot;") + '"'


def _attribute_text(attrs: dict[str, str]) -> str:
    """' name="value"' for each attribute, each value as quoteattr writes it.
    When no value needs escaping, the text is joined in one pass."""
    if not attrs:
        return ""
    if _ATTR_SPECIAL.search("".join(attrs.values())) is None:
        return ' ' + '" '.join(map('="'.join, attrs.items())) + '"'
    return "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items())


class SvgDoc:
    """Parsed SVG tree: the elements ET.fromstring built, in stable document
    order, normalized in place by parse_svg: tag and attribute names are
    local, and each element's first attribute is its unique id. text and tail
    are as written, or None where there is none. role_paths maps each element
    id to the data-role values of its ancestors, root first."""

    __slots__ = ("root", "elements", "by_id", "role_paths", "namespace")

    def __init__(self, root: ET.Element, elements: list[ET.Element] | None = None,
                 by_id: dict[str, ET.Element] | None = None,
                 role_paths: dict[str, tuple[str, ...]] | None = None, namespace: str = ""):
        self.root = root
        self.elements = [] if elements is None else elements
        self.by_id = {} if by_id is None else by_id
        self.role_paths = {} if role_paths is None else role_paths
        self.namespace = namespace

    def to_text(self) -> str:
        """Serialize with every element id materialized, for export and styling.

        Each element writes its attributes in order (parse_svg puts the id
        first), then (on the root) xmlns; text and tail are kept as written."""
        out: list[str] = []
        # Elements still to write, and the closing tags (with tail text) of
        # the open ones; the next item to write is last.
        pending: list[ET.Element | str] = [self.root]
        while pending:
            el = pending.pop()
            if type(el) is str:
                out.append(el)
                continue
            attrs = el.attrib
            if el is self.root and self.namespace:
                attrs = {**attrs, "xmlns": self.namespace}
            head = f"<{el.tag}{_attribute_text(attrs)}"
            tail = escape(el.tail) if el.tail else ""
            if not el.text and not len(el):
                out.append(head + "/>" + tail)
                continue
            out.append(head + ">")
            if el.text:
                out.append(escape(el.text))
            pending.append(f"</{el.tag}>{tail}")
            pending.extend(reversed(el))
        return "".join(out)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_svg(raw: str) -> SvgDoc:
    """Parse SVG text and normalize the tree ET.fromstring builds in place,
    as SvgDoc describes. An element keeps its id attribute (an xml:id is not
    one); id-less ones get "e0","e1",... in document order. The tree is
    walked without recursion, so it may nest to any depth."""
    try:
        root = ET.fromstring(raw)
    except ET.ParseError as e:
        raise XmlParseError(e.position) from None
    if _local_name(root.tag) != "svg":
        raise NotSvg(f"root element is <{_local_name(root.tag)}>, expected <svg>")
    namespace = ""
    if root.tag.startswith("{"):
        namespace = root.tag[1:].rsplit("}", 1)[0]

    # Only a prefixed attribute name (xml: or a prefix xmlns: declares) has a
    # namespace; an entity reference may write either prefix.
    prefixed = "xml:" in raw or "xmlns:" in raw or "&" in raw
    explicit_ids = set()
    for node in root.iter():
        explicit = node.get("id")
        if explicit is not None:
            if explicit in explicit_ids:
                raise PreconditionError(f"duplicate element id {explicit!r}")
            explicit_ids.add(explicit)

    elements: list[ET.Element] = []
    by_id: dict[str, ET.Element] = {}
    role_paths: dict[str, tuple[str, ...]] = {}
    synthesized = filterfalse(explicit_ids.__contains__, map("e{}".format, count()))
    local_names: dict[str, str] = {}
    # Per open element: its remaining child nodes and their role path. The
    # for loop runs through an element's children until one has children of
    # its own, which is opened next, so ids are synthesized in document order.
    # An entry per element instead would leave a freed tuple per element on
    # the interpreter's free list, which counts toward the next collection.
    stack = [(iter((root,)), ())]
    while stack:
        nodes, path = stack[-1]
        for node in nodes:
            eid = node.get("id")
            if eid is None:
                eid = next(synthesized)
            attrs = node.attrib
            if prefixed and "}" in "".join(attrs):
                # A renamed xml:id must not replace the id read above.
                attrs = {name: v for k, v in attrs.items() if (name := _local_name(k)) != "id"}
            node.attrib = {"id": eid, **attrs}
            tag = local_names.get(node.tag)
            if tag is None:
                tag = local_names[node.tag] = _local_name(node.tag)
            node.tag = tag
            elements.append(node)
            by_id[eid] = node
            role_paths[eid] = path
            if len(node):
                role = attrs.get("data-role")
                stack.append((iter(node), path if role is None else (*path, role)))
                break
        else:
            stack.pop()
    return SvgDoc(root=root, elements=elements, by_id=by_id, role_paths=role_paths,
                  namespace=namespace)


class MarkEntry(NamedTuple):
    """One SVG element's roles, bound data rows and series key."""

    roles: frozenset
    data_rows: frozenset
    series_key: str | None = None


class MarkIndex:
    """Mapping from element ids to roles, bound data rows, and series keys.

    entries is not changed after construction (with_annotations builds a
    new index), so the lookups by role, row and series are built once, on
    first use."""

    def __init__(self, entries: dict[str, MarkEntry] | None = None):
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, MarkIndex) else NotImplemented

    @cached_property
    def _lookup(self) -> tuple[dict, dict, dict]:
        """(role -> ids, row -> mark ids, lowercased series key -> mark ids)."""
        by_role: dict[str, list[str]] = {}
        by_row: dict[int, list[str]] = {}
        by_series: dict[str, list[str]] = {}
        for eid, entry in self.entries.items():
            for role in entry.roles:
                by_role.setdefault(role, []).append(eid)
            if "mark" in entry.roles:
                for row in entry.data_rows:
                    by_row.setdefault(row, []).append(eid)
                if entry.series_key:
                    by_series.setdefault(entry.series_key.lower(), []).append(eid)
        return {r: frozenset(ids) for r, ids in by_role.items()}, by_row, by_series

    def ids_with_role(self, role: str) -> frozenset:
        return self._lookup[0].get(role, frozenset())

    def mark_ids(self) -> frozenset:
        return self.ids_with_role("mark")

    def ids_of_rows(self, rows) -> set:
        """Ids of the marks bound to any of rows."""
        by_row = self._lookup[1]
        return {eid for row in set(rows) for eid in by_row.get(row, ())}

    def series_marks(self) -> dict[str, list[str]]:
        """Lowercased series key -> ids of the marks of that series."""
        return self._lookup[2]

    def to_json(self) -> list[dict]:
        return [
            {
                "id": eid,
                "roles": sorted(entry.roles),
                "data_rows": sorted(entry.data_rows),
                "series_key": entry.series_key,
            }
            for eid, entry in sorted(self.entries.items())
        ]


# ASCII digits only: int() alone also reads "_", "+", "-", spaces and other digits.
_DATA_ROW = re.compile(r"[0-9]+(?:;[0-9]+)*")


def _parse_data_rows(element: ET.Element, row_count: int | None, role: str) -> frozenset:
    raw = element.get("data-row")
    if raw == "":
        return frozenset()
    try:
        if _DATA_ROW.fullmatch(raw) is None:
            raise ValueError(raw)
        rows = frozenset(map(int, raw.split(";")))  # past its digit limit, int() raises too
    except ValueError:
        raise UnboundMark(element.get("id"), f"carries malformed data-row {raw!r}",
                          role) from None
    if row_count is not None and max(rows) >= row_count:
        raise UnboundMark(
            element.get("id"), f"references rows outside the table ({raw!r}, {row_count} rows)",
            role,
        )
    return rows


def _mark_elements(group: ET.Element):
    """The non-<g> descendants of group, in document order, through nested <g>s."""
    pending = group[::-1]
    while pending:
        child = pending.pop()
        if child.tag == "g":
            pending.extend(reversed(child))
        else:
            yield child


def index_marks(svg: SvgDoc, table: DataTable | None = None) -> MarkIndex:
    """Build the mark index from renderer role markers and per-datum metadata."""
    entries: dict[str, MarkEntry] = {}
    row_count = table.row_count if table else None
    mark_roles = frozenset({"mark"})
    for element in svg.elements:
        role = element.get("data-role")
        if role in ("axis", "legend", "title"):
            entries[element.get("id")] = MarkEntry(frozenset({role}), frozenset())
        elif role == "marks":
            for mark in _mark_elements(element):
                if "data-row" not in mark.attrib:
                    raise UnboundMark(mark.get("id"))
                entries[mark.get("id")] = MarkEntry(mark_roles,
                                                    _parse_data_rows(mark, row_count, "mark"),
                                                    mark.get("data-series"))
    return MarkIndex(entries=entries)


class Rendering(NamedTuple):
    """One rendered chart: its SVG text, the parsed document, and the mark index
    bound to the table."""

    svg: str
    doc: SvgDoc
    index: MarkIndex


def with_annotations(index: MarkIndex, svg: SvgDoc, annotation_ids) -> MarkIndex:
    """Extend a mark index with annotation-role entries for diffed elements."""
    entries = dict(index.entries)
    for eid in annotation_ids:
        element = svg.by_id.get(eid)
        rows = frozenset()
        series = None
        if element is not None and "data-row" in element.attrib:
            rows = _parse_data_rows(element, None, "annotation")
            series = element.get("data-series")
        previous = entries.get(eid)
        if previous is not None:
            entries[eid] = MarkEntry(
                roles=previous.roles | {"annotation"},
                data_rows=previous.data_rows | rows,
                series_key=previous.series_key or series,
            )
        else:
            entries[eid] = MarkEntry(
                roles=frozenset({"annotation"}), data_rows=rows, series_key=series,
            )
    return MarkIndex(entries=entries)


_STRUCTURE_KEYWORDS = {
    "axis": ("axis", "axes"),
    "legend": ("legend",),
    "title": ("title",),
}


def resolve_targets(directive: AnimationDirective, index: MarkIndex) -> frozenset:
    """Resolve a directive to element ids.

    Row indices take priority (machine-checkable); the free-text target adds
    structural keyword matches (axes, legend, title, all/chart) or, failing
    those, the series whose keys the target names as whole words. The union
    of both routes is returned; an empty result raises UnresolvedTarget.
    """
    result = index.ids_of_rows(directive.index)
    words = set(re.findall(r"[a-z]+", directive.target.lower()))
    keyword_hits = set()
    for role, keywords in _STRUCTURE_KEYWORDS.items():
        if words & set(keywords):
            keyword_hits |= index.ids_with_role(role)
    if words & {"all", "chart"}:
        keyword_hits |= index.mark_ids()
    if not keyword_hits:
        target_lower = directive.target.lower()
        for key, ids in index.series_marks().items():
            if re.search(rf"(?<!\w){re.escape(key)}(?!\w)", target_lower):
                keyword_hits.update(ids)
    result |= keyword_hits
    if not result:
        raise UnresolvedTarget(directive)
    return frozenset(result)


_NOT_KEYED = GEOMETRY_ATTRS | {"id"}


def _diff_key(doc: SvgDoc, element: ET.Element, keyed_names: dict):
    """keyed_names maps each attribute name tuple seen to its sorted keyed
    names and a getter of their values, so elements of one kind share them."""
    attrs = element.attrib
    names = keyed_names.get(tuple(attrs))
    if names is None:
        keyed = tuple(sorted(attrs.keys() - _NOT_KEYED))
        names = keyed_names[tuple(attrs)] = (keyed, itemgetter(*keyed) if keyed else
                                               (lambda _: ()))
    return (element.tag, doc.role_paths[attrs["id"]], names[0], names[1](attrs),
            (element.text or "").strip())


def diff_annotations(base: SvgDoc, annotated: SvgDoc) -> list[str]:
    """Ids of annotated-document elements with no structural match in the base.

    Elements are keyed by tag, role path, geometry-free attributes, and text;
    matching uses multiset semantics, so reordering content-equal elements
    yields an empty diff and injecting k elements yields exactly k ids.
    Container <g> elements are structural and never reported; their contents
    are diffed individually.
    """
    keyed_names: dict = {}
    base_keys = Counter(
        _diff_key(base, el, keyed_names) for el in base.elements
        if el is not base.root and el.tag != "g"
    )
    extras = []
    for element in annotated.elements:
        if element is annotated.root or element.tag == "g":
            continue
        key = _diff_key(annotated, element, keyed_names)
        if base_keys[key] > 0:
            base_keys[key] -= 1
        else:
            extras.append(element.get("id"))
    return extras


def _coords(element: ET.Element) -> tuple[float, float] | None:
    for xk, yk in (("x", "y"), ("cx", "cy"), ("x1", "y1")):
        if xk in element.attrib and yk in element.attrib:
            try:
                return float(element.get(xk)), float(element.get(yk))
            except ValueError:
                return None
    return None


def _row_gap(sorted_rows: list[int], row: int) -> int:
    """Distance from row to the nearest of sorted_rows (non-empty)."""
    j = bisect_left(sorted_rows, row)
    if j == len(sorted_rows):
        return row - sorted_rows[-1]
    if j == 0:
        return sorted_rows[0] - row
    return min(sorted_rows[j] - row, row - sorted_rows[j - 1])


def match_annotation_directives(annotation_ids, directives, index: MarkIndex,
                                svg: SvgDoc | None = None,
                                ) -> tuple[dict[int, list[str]], ValidationReport]:
    """Greedily assign annotation elements to annotation directives.

    Each element goes to the directive whose rows lie nearest, by the rows the
    index binds it to (with_annotations reads them from data-row), else by
    geometric proximity to the marks bound to the directive's rows.
    Unassignable elements attach to the earliest directive. Returns
    assignments keyed by directive position plus advisories for empty
    directives and unmatchable elements.
    """
    assignments: dict[int, list[str]] = {i: [] for i in range(len(directives))}
    advisories: list[Violation] = []
    if not directives:
        if annotation_ids:
            advisories.append(Violation(
                "unmatched-annotation", "",
                f"{len(annotation_ids)} annotation elements but no annotation directives",
            ))
        return assignments, ValidationReport(advisories=tuple(advisories))

    row_positions: dict[int, tuple[float, float]] = {}
    # Only an annotation element without rows is placed by its position.
    if svg is not None and not all(eid in index.entries and index.entries[eid].data_rows
                                   for eid in annotation_ids):
        for eid, entry in index.entries.items():
            if "mark" not in entry.roles:
                continue
            pos = _coords(svg.by_id[eid]) if eid in svg.by_id else None
            if pos is None:
                continue
            for row in entry.data_rows:
                row_positions.setdefault(row, pos)
    # Per directive: its rows as a set, sorted, and the positions of their marks.
    targets = [(frozenset(d.index), sorted(set(d.index)),
                [row_positions[r] for r in d.index if r in row_positions])
               for d in directives]

    for eid in annotation_ids:
        entry = index.entries.get(eid)
        rows = entry.data_rows if entry is not None else frozenset()
        best: tuple[float, int] | None = None
        if rows:
            for i, (row_set, sorted_rows, _) in enumerate(targets):
                if not sorted_rows:
                    continue
                if not row_set.isdisjoint(rows):
                    distance = 0.0
                else:
                    distance = min(_row_gap(sorted_rows, a) for a in rows)
                if best is None or distance < best[0]:
                    best = (distance, i)
        elif svg is not None and eid in svg.by_id:
            pos = _coords(svg.by_id[eid])
            if pos is not None:
                for i, (_, _, points) in enumerate(targets):
                    if not points:
                        continue
                    distance = min(math.dist(pos, p) for p in points)
                    if best is None or distance < best[0]:
                        best = (distance, i)
        if best is None:
            advisories.append(Violation(
                "unmatched-annotation", eid,
                "annotation element has no rows or position near any directive's rows; "
                "attached to the earliest directive",
            ))
            best = (math.inf, 0)
        assignments[best[1]].append(eid)

    for i, directive in enumerate(directives):
        if not assignments[i]:
            advisories.append(Violation(
                "directive-without-elements", f"annotation[{i}]",
                f"no annotation elements matched directive for {directive.nar!r}",
            ))
    return assignments, ValidationReport(advisories=tuple(advisories))


class Bindings(NamedTuple):
    """Annotated-rendering elements bound to the designer's directives."""

    index: MarkIndex
    annotation_ids: list[str]
    resolved_targets: list[tuple[AnimationDirective, frozenset]]
    assignments: list[tuple[AnnotationDirective, list[str]]]
    report: ValidationReport

    def to_json(self) -> dict:
        return {
            "mark_index": self.index.to_json(),
            "annotation_ids": self.annotation_ids,
            "resolved_targets": [
                {"animation": d.animation, "narration": d.narration, "target": d.target,
                 "index": list(d.index), "ids": sorted(ids)}
                for d, ids in self.resolved_targets
            ],
            "annotation_assignments": [
                {"position": i, "nar": d.nar, "ids": sorted(ids)}
                for i, (d, ids) in enumerate(self.assignments)
            ],
            "report": self.report.to_json(),
        }


def bind(base: Rendering, annotated: Rendering, designer_output: DesignerOutput) -> Bindings:
    """Resolve animation targets and assign annotation elements to directives.

    Targets resolve against the annotated rendering's mark index, extended
    with the elements the annotated spec added to the base rendering.
    """
    annotation_ids = diff_annotations(base.doc, annotated.doc)
    index = with_annotations(annotated.index, annotated.doc, annotation_ids)
    advisories = tuple(
        Violation("non-additive-change", eid,
                  "diffed element sits inside the marks group; the annotated spec "
                  "may have altered base marks instead of adding layers")
        for eid in annotation_ids if "marks" in annotated.doc.role_paths[eid]
    )
    resolved = [(d, resolve_targets(d, index)) for d in designer_output.animation_directives]
    directives = designer_output.annotation_directives
    assignments, match_report = match_annotation_directives(
        annotation_ids, directives, index, svg=annotated.doc,
    )
    return Bindings(
        index=index,
        annotation_ids=annotation_ids,
        resolved_targets=resolved,
        assignments=[(d, assignments[i]) for i, d in enumerate(directives)],
        report=ValidationReport(advisories=advisories).merged(match_report),
    )
