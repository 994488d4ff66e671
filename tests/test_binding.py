import json
import random
import re
import xml.etree.ElementTree as ET
from xml.sax import saxutils  # the reference for the local escaper only

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel.adapters import MockRenderer
from datareel.binding import (
    MarkEntry,
    MarkIndex,
    NotSvg,
    UnboundMark,
    UnresolvedTarget,
    SvgDoc,
    XmlParseError,
    diff_annotations,
    escape,
    index_marks,
    match_annotation_directives,
    parse_svg,
    quoteattr,
    resolve_targets,
    with_annotations,
)
from datareel.ingest import parse_csv
from datareel.model import AnimationDirective, AnnotationDirective, dump_artifact
from helpers import (
    random_svg,
    reference_ids,
    reference_role_paths,
    reference_mark_index_dict,
    reference_match_annotation_directives,
    reference_resolve_targets,
)


class TestParseSvg:
    def test_two_element_tree(self):
        doc = parse_svg("<svg><g/></svg>")
        assert len(doc.elements) == 2
        assert doc.elements[0].tag == "svg"
        assert doc.elements[1].tag == "g"

    def test_not_svg(self):
        with pytest.raises(NotSvg):
            parse_svg("<div/>")

    def test_unclosed_tag(self):
        with pytest.raises(XmlParseError):
            parse_svg("<svg><g></svg>")

    def test_synthesized_ids_in_document_order(self):
        doc = parse_svg("<svg><g><rect/></g><circle/></svg>")
        assert [el.get("id") for el in doc.elements] == ["e0", "e1", "e2", "e3"]

    def test_explicit_ids_kept_and_collisions_avoided(self):
        doc = parse_svg('<svg><g id="e1"/><rect/><circle/></svg>')
        ids = [el.get("id") for el in doc.elements]
        assert "e1" in ids
        assert len(set(ids)) == len(ids)

    def test_namespace_stripped_from_tags(self):
        doc = parse_svg('<svg xmlns="http://www.w3.org/2000/svg"><g/></svg>')
        assert doc.elements[1].tag == "g"
        assert doc.namespace == "http://www.w3.org/2000/svg"

    def test_to_text_round_trips_through_parse(self):
        doc = parse_svg('<svg><g data-role="marks"><rect data-row="0" x="1"/></g></svg>')
        text = doc.to_text()
        again = parse_svg(text)
        assert [el.tag for el in again.elements] == [el.tag for el in doc.elements]
        assert 'data-row="0"' in text
        assert 'id="e2"' in text

    def test_to_text_keeps_tail_text(self):
        doc = parse_svg('<svg xmlns="http://www.w3.org/2000/svg">'
                        '<text>Sales <tspan>2024</tspan> total</text></svg>')
        assert doc.to_text() == ('<svg id="e0" xmlns="http://www.w3.org/2000/svg">'
                                 '<text id="e1">Sales <tspan id="e2">2024</tspan> total</text>'
                                 '</svg>')

    def test_diff_key_strips_text(self):
        base = parse_svg('<svg><g data-role="title"><text>Sales</text></g></svg>')
        padded = parse_svg('<svg><g data-role="title"><text> Sales\n</text></g></svg>')
        assert diff_annotations(base, padded) == []

    def test_xml_id_is_not_an_id(self):
        doc = parse_svg('<svg xmlns="http://www.w3.org/2000/svg"><rect xml:id="zzz"/></svg>')
        assert list(doc.by_id) == ["e0", "e1"]
        assert doc.to_text() == ('<svg id="e0" xmlns="http://www.w3.org/2000/svg">'
                                 '<rect id="e1"/></svg>')

    def test_to_text_writes_id_first_and_xmlns_last(self):
        doc = parse_svg('<svg xmlns="http://www.w3.org/2000/svg" width="5">'
                        '<rect x="1" id="r" y="2"/></svg>')
        assert doc.to_text() == ('<svg id="e0" width="5" xmlns="http://www.w3.org/2000/svg">'
                                 '<rect id="r" x="1" y="2"/></svg>')


# Hostile text: quotes of both kinds, markup characters, the end of a style
# element, whitespace controls and non-ASCII, mixed with plain letters.
HOSTILE_PIECES = ('"', "'", "&", "<", ">", "</style>", "]]>", "&amp;", "\n", "\t",
                  " ", "a", "Z", "9", "é", "日", "😀")
hostile_text = st.lists(st.sampled_from(HOSTILE_PIECES), max_size=6).map("".join)
# Attribute values also keep a carriage return, which quoteattr writes as &#13;.
hostile_value = st.lists(st.sampled_from(HOSTILE_PIECES + ("\r",)), max_size=6).map("".join)


class TestXmlEscaper:
    @given(st.text() | hostile_value)
    def test_escape_equals_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)

    @given(st.text() | hostile_value)
    def test_quoteattr_equals_saxutils(self, text):
        assert quoteattr(text) == saxutils.quoteattr(text)


ATTR_NAMES = ("x", "fill", "class", "data-row", "data-series", "aria-label")


@st.composite
def svg_docs(draw):
    """An SvgDoc built from elements whose ids, attribute values, text and
    tail text are hostile strings; the root has no tail. Each element's id
    is its first attribute, as parse_svg leaves it."""
    ids = iter(draw(st.lists(hostile_value, min_size=10, max_size=10, unique=True)))
    elements = []

    def element(depth, tail):
        eid = next(ids)
        tag = "svg" if not elements else draw(st.sampled_from(("g", "text")))
        attrs = draw(st.dictionaries(st.sampled_from(ATTR_NAMES), hostile_value, max_size=3))
        el = ET.Element(tag, {"id": eid, **attrs})
        el.text, el.tail = draw(hostile_text), tail
        elements.append(el)
        if depth < 2:
            el.extend([element(depth + 1, draw(hostile_text))
                       for _ in range(draw(st.integers(0, 3 - depth)))])
        return el

    root = element(0, "")
    namespace = draw(st.sampled_from(("", "http://www.w3.org/2000/svg")))
    return SvgDoc(root=root, elements=elements, namespace=namespace)


class TestToTextRoundTrip:
    @given(svg_docs())
    def test_parse_keeps_ids_attributes_text_and_tail(self, doc):
        again = parse_svg(doc.to_text())
        assert again.namespace == doc.namespace
        # the parser gives None where the drawn text or tail is empty
        assert [(el.tag, list(el.attrib.items()), el.text or "", el.tail or "")
                for el in again.elements] == [
            (el.tag, list(el.attrib.items()), el.text, el.tail) for el in doc.elements]


def _bar_spec(rows=3):
    return {
        "mark": "bar",
        "encoding": {"x": {"field": "k"}, "y": {"field": "v"}},
        "data": {"values": [{"k": f"k{i}", "v": i + 1} for i in range(rows)]},
    }


def _line_spec():
    values = []
    for series in ("Alpha", "Beta", "Gamma", "Delta"):
        for day in range(3):
            values.append({"d": day, "v": day + 1, "s": series})
    return {
        "mark": "line",
        "encoding": {"x": {"field": "d"}, "y": {"field": "v"},
                     "color": {"field": "s"}},
        "data": {"values": values},
    }


class TestIndexMarks:
    def test_bar_spec_one_entry_per_row(self):
        doc = parse_svg(MockRenderer().render(_bar_spec(3)))
        index = index_marks(doc)
        marks = [index.entries[eid] for eid in sorted(index.mark_ids())]
        assert len(marks) == 3
        assert sorted(tuple(m.data_rows) for m in marks) == [(0,), (1,), (2,)]

    def test_line_spec_one_entry_per_series_with_series_key(self):
        doc = parse_svg(MockRenderer().render(_line_spec()))
        index = index_marks(doc)
        marks = {index.entries[eid].series_key: index.entries[eid]
                 for eid in index.mark_ids()}
        assert set(marks) == {"Alpha", "Beta", "Gamma", "Delta"}
        assert marks["Alpha"].data_rows == frozenset({0, 1, 2})
        assert marks["Delta"].data_rows == frozenset({9, 10, 11})

    def test_pie_spec_has_no_axis_entries(self):
        spec = {
            "mark": "arc",
            "encoding": {"theta": {"field": "v"}, "color": {"field": "k"}},
            "data": {"values": [{"k": "a", "v": 1}, {"k": "b", "v": 3}]},
        }
        doc = parse_svg(MockRenderer().render(spec))
        index = index_marks(doc)
        assert not index.ids_with_role("axis")
        assert len(index.mark_ids()) == 2

    def test_unbound_mark(self):
        doc = parse_svg('<svg><g data-role="marks"><rect/></g></svg>')
        with pytest.raises(UnboundMark):
            index_marks(doc)

    def test_rows_validated_against_table(self):
        table = parse_csv("a\n1\n2", "t")
        doc = parse_svg('<svg><g data-role="marks"><rect data-row="5"/></g></svg>')
        with pytest.raises(UnboundMark):
            index_marks(doc, table)

    @pytest.mark.parametrize("rows", ["1_0", "٣", " 2", "2 ", "+3", "-1", "1;;2", "1;",
                                      "²", "9" * 5000],
                             ids=["underscore", "arabic-indic", "leading-space",
                                  "trailing-space", "plus", "minus", "empty-index",
                                  "trailing-semicolon", "superscript", "past-int-limit"])
    def test_data_row_takes_only_ascii_digits(self, rows):
        doc = parse_svg(f'<svg><g data-role="marks"><rect data-row="{rows}"/></g></svg>')
        with pytest.raises(UnboundMark, match="malformed data-row"):
            index_marks(doc)
        annotated = parse_svg(f'<svg><text data-row="{rows}"/></svg>')
        with pytest.raises(UnboundMark, match="malformed data-row"):
            with_annotations(MarkIndex(), annotated, ["e1"])

    def test_axis_legend_title_carry_no_rows(self):
        doc = parse_svg(MockRenderer().render({**_line_spec(), "title": "T"}))
        index = index_marks(doc)
        for role in ("axis", "legend", "title"):
            for eid in index.ids_with_role(role):
                assert index.entries[eid].data_rows == frozenset()


def _directive(target, index=()):
    return AnimationDirective(
        animation="Fade-in", narration="seg", target=target, index=tuple(index),
    )


class TestResolveTargets:
    @pytest.fixture
    def line_index(self):
        doc = parse_svg(MockRenderer().render({**_line_spec(), "title": "T"}))
        return index_marks(doc), doc

    def test_index_takes_priority(self, line_index):
        index, _ = line_index
        ids = resolve_targets(_directive("Gamma's line", index=(6,)), index)
        assert len(ids) == 1
        assert index.entries[next(iter(ids))].series_key == "Gamma"

    def test_axes_keyword(self, line_index):
        index, _ = line_index
        ids = resolve_targets(_directive("the axes"), index)
        assert ids == index.ids_with_role("axis")

    def test_all_keyword(self, line_index):
        index, _ = line_index
        assert resolve_targets(_directive("all marks in the chart"), index) == index.mark_ids()

    def test_series_substring(self, line_index):
        index, _ = line_index
        ids = resolve_targets(_directive("Beta line"), index)
        assert {index.entries[eid].series_key for eid in ids} == {"Beta"}

    def test_unresolved(self, line_index):
        index, _ = line_index
        with pytest.raises(UnresolvedTarget):
            resolve_targets(_directive("the dragon"), index)

    def test_union_of_rows_and_keywords(self, line_index):
        index, _ = line_index
        ids = resolve_targets(_directive("the legend", index=(0,)), index)
        assert index.ids_with_role("legend") < ids
        assert any("mark" in index.entries[eid].roles for eid in ids)

    def test_result_is_subset_of_index(self, line_index):
        index, _ = line_index
        for target, rows in [("all", ()), ("axes and legend", ()), ("Alpha", (0,))]:
            ids = resolve_targets(_directive(target, rows), index)
            assert ids <= set(index.entries)

    def test_word_boundary_matching(self, line_index):
        index, _ = line_index
        # "tall" must not trigger the "all" keyword
        with pytest.raises(UnresolvedTarget):
            resolve_targets(_directive("the tall thing"), index)

    @staticmethod
    def _series_index(*keys):
        marks = "".join(f'<path data-row="{i}" data-series="{key}"/>'
                        for i, key in enumerate(keys))
        doc = parse_svg(f'<svg><g data-role="marks">{marks}</g></svg>')
        return index_marks(doc)

    def test_series_key_matches_whole_words_only(self):
        index = self._series_index("A", "B")
        # "A" occurs inside "bars" but is not named in the target
        ids = resolve_targets(_directive("the bars for B"), index)
        assert {index.entries[eid].series_key for eid in ids} == {"B"}

    def test_series_key_with_punctuation(self):
        index = self._series_index("C++", "Go")
        ids = resolve_targets(_directive("the C++ line"), index)
        assert {index.entries[eid].series_key for eid in ids} == {"C++"}


# Far past the interpreter's default recursion limit of 1000.
DEEP = 5000


class TestDeepNesting:
    """A renderer's SVG may nest to any depth."""

    def test_parse_index_and_to_text_at_depth(self):
        text = ('<svg><g data-role="marks">' + "<g>" * DEEP + '<rect data-row="0"/>'
                + "</g>" * DEEP + "</g></svg>")
        doc = parse_svg(text)
        assert len(doc.elements) == DEEP + 3
        rect = doc.elements[-1]
        assert (rect.tag, doc.role_paths[rect.get("id")]) == ("rect", ("marks",))
        assert index_marks(doc).entries == {
            rect.get("id"): MarkEntry(frozenset({"mark"}), frozenset({0}))}
        again = parse_svg(doc.to_text())
        assert [(el.tag, el.attrib) for el in again.elements] == [
            (el.tag, el.attrib) for el in doc.elements]


class TestRolePath:
    def test_equals_a_walk_up_the_tree(self):
        rng = random.Random(11)
        for _ in range(30):
            text = random_svg(rng)
            doc = parse_svg(text)
            assert [doc.role_paths[el.get("id")] for el in doc.elements] == \
                reference_role_paths(text)

    def test_namespaced_role_attribute(self):
        doc = parse_svg('<svg xmlns:d="urn:d"><g d:data-role="marks"><g data-role="axis">'
                        "<rect/></g></g></svg>")
        assert [doc.role_paths[el.get("id")] for el in doc.elements] == [
            (), (), ("marks",), ("marks", "axis")]


# Attributes spliced into random start tags: explicit ids that synthesized
# ids must skip, and namespaced names (xml: is declared by XML itself).
SPLICED_ATTRS = (' id="e0"', ' id="e1"', ' id="e2"', ' id="e3"', ' xml:space="preserve"',
                 ' xlink:href="#e1"')


@st.composite
def svg_with_spliced_attrs(draw):
    """A random_svg document with SPLICED_ATTRS spliced into random start tags."""
    text = random_svg(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    starts = [m.end() for m in re.finditer(r"<(?:svg|g|rect|circle|text|line|path)\b", text)]
    spliced = draw(st.lists(st.sampled_from(SPLICED_ATTRS), unique=True, max_size=len(starts)))
    for place, attr in sorted(zip(draw(st.permutations(starts)), spliced), reverse=True):
        text = text[:place] + attr + text[place:]
    if "xlink:" in text:
        text = text.replace("<svg", '<svg xmlns:xlink="http://www.w3.org/1999/xlink"', 1)
    return text


class TestParseSvgAgreesWithReferenceWalks:
    @given(svg_with_spliced_attrs())
    def test_ids_role_paths_and_local_attribute_names(self, text):
        doc = parse_svg(text)
        assert [el.get("id") for el in doc.elements] == reference_ids(text)
        assert [doc.role_paths[el.get("id")] for el in doc.elements] == reference_role_paths(text)
        assert not [name for el in doc.elements for name in el.attrib if "}" in name]

    def test_entity_that_writes_a_prefixed_attribute(self):
        # the entity's text spells xml: with a character reference
        doc = parse_svg("<!DOCTYPE svg [<!ENTITY r \"<rect &#120;ml:space='preserve'/>\">]>"
                        "<svg>&r;</svg>")
        assert doc.elements[1].attrib == {"id": "e1", "space": "preserve"}


class TestDiffAnnotations:
    def test_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            doc_text = random_svg(rng)
            doc1, doc2 = parse_svg(doc_text), parse_svg(doc_text)
            assert diff_annotations(doc1, doc2) == []

    def test_known_injection(self):
        base_text = (
            '<svg><g data-role="marks"><rect data-row="0" x="5"/></g>'
            "<text>existing</text></svg>"
        )
        annotated_text = (
            '<svg><g data-role="marks"><rect data-row="0" x="9"/></g>'
            "<text>existing</text>"
            '<text x="1">new label</text><text x="2">another</text>'
            '<line x1="0" y1="0" x2="5" y2="5" stroke="red"/></svg>'
        )
        base, annotated = parse_svg(base_text), parse_svg(annotated_text)
        extras = diff_annotations(base, annotated)
        assert len(extras) == 3
        tags = [annotated.by_id[eid].tag for eid in extras]
        assert sorted(tags) == ["line", "text", "text"]

    def test_geometry_changes_do_not_count(self):
        base = parse_svg('<svg><rect x="1" y="2" fill="red"/></svg>')
        moved = parse_svg('<svg><rect x="99" y="50" fill="red"/></svg>')
        assert diff_annotations(base, moved) == []

    def test_reordered_elements_are_not_annotations(self):
        base = parse_svg("<svg><text>a</text><text>b</text><rect fill='x'/></svg>")
        permuted = parse_svg("<svg><rect fill='x'/><text>b</text><text>a</text></svg>")
        assert diff_annotations(base, permuted) == []

    def test_duplicate_content_counts_by_multiplicity(self):
        base = parse_svg("<svg><text>a</text></svg>")
        doubled = parse_svg("<svg><text>a</text><text>a</text></svg>")
        assert len(diff_annotations(base, doubled)) == 1


class TestMatchAnnotationDirectives:
    def _annotation(self, index, nar="seg text"):
        return AnnotationDirective(types=("text",), description="d", index=tuple(index), nar=nar)

    def test_single_directive_takes_all(self):
        svg = parse_svg(
            '<svg><g data-role="marks"><rect data-row="0" x="0" y="0"/></g>'
            '<text x="1" y="1">a</text><text x="2" y="2">b</text>'
            '<text x="3" y="3">c</text></svg>'
        )
        index = with_annotations(index_marks(svg), svg, ["e2", "e3", "e4"])
        assignments, report = match_annotation_directives(
            ["e2", "e3", "e4"], [self._annotation((0,))], index, svg,
        )
        assert assignments == {0: ["e2", "e3", "e4"]}
        assert report.passing

    def test_geometric_proximity(self):
        # marks for rows 0 and 3 sit far apart; text elements sit over each mark
        svg = parse_svg(
            '<svg><g data-role="marks">'
            '<rect data-row="0" x="10" y="100"/><rect data-row="3" x="400" y="100"/></g>'
            '<text x="12" y="90">near row0</text>'
            '<text x="398" y="92">near row3</text></svg>'
        )
        base = parse_svg('<svg><g data-role="marks">'
                         '<rect data-row="0" x="10" y="100"/>'
                         '<rect data-row="3" x="400" y="100"/></g></svg>')
        extras = diff_annotations(base, svg)
        assert len(extras) == 2
        index = with_annotations(index_marks(svg), svg, extras)
        directives = [self._annotation((0,)), self._annotation((3,))]
        assignments, _ = match_annotation_directives(extras, directives, index, svg)
        assert [len(v) for v in assignments.values()] == [1, 1]
        near0 = assignments[0][0]
        assert svg.by_id[near0].text == "near row0"

    def test_data_bound_assignment_beats_distance(self):
        svg = parse_svg(
            '<svg><g data-role="marks"><rect data-row="0" x="0" y="0"/>'
            '<rect data-row="5" x="10" y="0"/></g>'
            '<text data-row="5" x="0" y="1">tag</text></svg>'
        )
        index = with_annotations(index_marks(svg), svg, ["e4"])
        directives = [self._annotation((0,)), self._annotation((5,))]
        assignments, _ = match_annotation_directives(["e4"], directives, index, svg)
        assert assignments == {0: [], 1: ["e4"]}

    def test_directive_with_no_elements_gets_advisory(self):
        svg = parse_svg('<svg><g data-role="marks"><rect data-row="0" x="0" y="0"/></g></svg>')
        index = index_marks(svg)
        assignments, report = match_annotation_directives(
            [], [self._annotation((0,))], index, svg,
        )
        assert assignments == {0: []}
        assert any(a.code == "directive-without-elements" for a in report.advisories)

    def test_unassignable_elements_attach_to_earliest(self):
        svg = parse_svg(
            '<svg><g data-role="marks"><rect data-row="0" x="0" y="0"/></g>'
            "<text>floating</text></svg>"
        )
        index = with_annotations(index_marks(svg), svg, ["e3"])
        directives = [self._annotation(()), self._annotation((0,))]
        assignments, _ = match_annotation_directives(["e3"], directives, index, svg)
        assert assignments[0] == ["e3"]

    def test_unassignable_element_gets_advisory(self):
        svg = parse_svg(
            '<svg><g data-role="marks"><rect data-row="0" x="0" y="0"/></g>'
            "<text>floating</text></svg>"
        )
        index = with_annotations(index_marks(svg), svg, ["e3"])
        assignments, report = match_annotation_directives(
            ["e3"], [self._annotation((0,))], index, svg,
        )
        assert assignments == {0: ["e3"]}
        assert [(a.code, a.path) for a in report.advisories] == [("unmatched-annotation", "e3")]


# Few rows and a small integer grid, so shared rows and distance ties are common.
match_rows = st.frozensets(st.integers(0, 12), max_size=3)
match_coords = st.none() | st.tuples(st.integers(0, 20), st.integers(0, 20))


@st.composite
def match_inputs(draw):
    """Marks and annotation elements with random rows and positions, some
    annotations unindexed or without an SVG element, and random directives."""
    entries, elements = {}, {}

    def element(eid, tag):
        xy = draw(match_coords)
        attrs = {"x": str(xy[0]), "y": str(xy[1])} if xy else {}
        elements[eid] = ET.Element(tag, {"id": eid, **attrs})

    for i in range(draw(st.integers(0, 6))):
        entries[f"m{i}"] = MarkEntry(frozenset({"mark"}), draw(match_rows))
        element(f"m{i}", "rect")
    annotation_ids = [f"a{i}" for i in range(draw(st.integers(0, 6)))]
    for eid in annotation_ids:
        # With rows, indexed without rows, or unindexed: the last two are
        # placed by position, from row positions built only for them.
        rows = draw(st.sampled_from(("rows", "no rows", "unindexed")))
        if rows != "unindexed":
            entries[eid] = MarkEntry(frozenset({"annotation"}),
                                     draw(match_rows) if rows == "rows" else frozenset())
        if draw(st.booleans()):
            element(eid, "text")
    directives = [
        AnnotationDirective(types=("text",), description="d",
                            index=tuple(draw(st.lists(st.integers(0, 12), max_size=4))),
                            nar="seg")
        for _ in range(draw(st.integers(0, 4)))
    ]
    svg = SvgDoc(root=ET.Element("svg", id="root"), by_id=elements) \
        if draw(st.booleans()) else None
    return annotation_ids, directives, MarkIndex(entries), svg


class TestMatchAgreesWithPairwiseReference:
    @given(match_inputs())
    def test_assignments_and_advisories_equal(self, inputs):
        assignments, report = match_annotation_directives(*inputs)
        expected, advisories = reference_match_annotation_directives(*inputs)
        assert assignments == expected
        assert [(a.code, a.path) for a in report.advisories] == advisories


# Series keys that differ in case, hold punctuation or contain one another.
SERIES_KEYS = (None, "Alpha", "alpha beta", "Beta", "C++", "north-east", "east")
TARGET_WORDS = ("the", "axes", "axis", "legend", "title", "all", "chart", "bars", "of",
                "Alpha", "beta", "C++", "north-east", "East", "Gamma")


@st.composite
def resolve_inputs(draw):
    entries = {}
    for i in range(draw(st.integers(0, 12))):
        roles = draw(st.frozensets(
            st.sampled_from(("mark", "axis", "legend", "title", "annotation")),
            min_size=1, max_size=2))
        entries[f"m{i}"] = MarkEntry(roles, draw(st.frozensets(st.integers(0, 9), max_size=3)),
                                     draw(st.sampled_from(SERIES_KEYS)))
    target = " ".join(draw(st.lists(st.sampled_from(TARGET_WORDS), min_size=1, max_size=4)))
    index = tuple(draw(st.lists(st.integers(0, 11), max_size=4)))
    return _directive(target, index), MarkIndex(entries)


class TestResolveAgreesWithScan:
    @given(resolve_inputs())
    def test_row_keyed_lookup_equals_scan(self, inputs):
        directive, index = inputs
        expected = reference_resolve_targets(directive, index)
        if expected is None:
            with pytest.raises(UnresolvedTarget):
                resolve_targets(directive, index)
        else:
            assert resolve_targets(directive, index) == expected


def _grouped_bars(categories, channels, overlay):
    rows = [{"store": f"S{i}", "channel": f"C{j}", "sales": 10 + 7 * i + 3 * j}
            for j in range(channels) for i in range(categories)]
    encoding = {"x": {"field": "store"}, "xOffset": {"field": "channel"},
                "y": {"field": "sales"}, "color": {"field": "channel"}}
    labels = [dict(rows[i], label=f"{rows[i]['sales']} units") for i in overlay]
    base = {"mark": "bar", "encoding": encoding, "data": {"values": rows}}
    annotated = {"data": {"values": rows}, "layer": [
        {"mark": "bar", "encoding": encoding},
        {"data": {"values": labels}, "mark": "text",
         "encoding": {"x": {"field": "store"}, "y": {"field": "sales"},
                      "text": {"field": "label"}}}]}
    return base, annotated


@st.composite
def workload_specs(draw):
    """Base and annotated specs shaped as the benchmark workloads: a
    four-series line chart with a rule overlay (stock-demo), or grouped bars
    with text labels over some bars (synth-long, overlay-wide)."""
    if draw(st.booleans()):
        base = {**_line_spec(), "title": "T"}
        return base, {"data": base["data"], "layer": [
            {"mark": "line", "encoding": base["encoding"]},
            {"mark": "rule", "encoding": {"y": {"field": "v"}}}]}
    categories, channels = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    overlay = draw(st.lists(st.integers(0, categories * channels - 1), unique=True))
    return _grouped_bars(categories, channels, sorted(overlay))


class TestMarkIndexRows:
    @given(workload_specs())
    def test_rows_read_back_equal_the_dict_layout(self, specs):
        renderer = MockRenderer()
        base, annotated = (parse_svg(renderer.render(spec)) for spec in specs)
        index = with_annotations(index_marks(annotated), annotated,
                                 diff_annotations(base, annotated))
        rows = json.loads(dump_artifact({"mark_index": index.to_json()}))["mark_index"]
        assert [row["id"] for row in rows] == sorted(index.entries)
        assert {row.pop("id"): row for row in rows} == reference_mark_index_dict(index)
