"""Property tests of reply faults: a fault anywhere in an analyst or designer
reply is a JsonTypeError whose message starts with the JSON path of the item
at fault."""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel.analyst import parse_analyst_response
from datareel.designer import parse_designer_response
from datareel.ingest import parse_csv
from datareel.model import (ANIMATIONS, ANNOTATION_TYPES, INSIGHT_TYPES, VISUALIZATION_TYPES,
                            JsonTypeError)

TABLE = parse_csv("k,v\n" + "\n".join(f"k{i},{i}" for i in range(5)), "Five rows")
ROWS = st.lists(st.integers(0, TABLE.row_count - 1), max_size=3)
ANIMATION_KEY = "Annotated_Narration_for_Animation"
ANNOTATION_KEY = "Annotated_Narration_for_Annotation"

# Where each vocabulary's names sit in a reply: (role, reply key, item key or
# None for the reply key's own value, the vocabulary).
VOCABULARIES = [
    ("analyst", "Insights", "type", INSIGHT_TYPES),
    ("analyst", "Visualization_Type", None, VISUALIZATION_TYPES),
    ("designer", ANIMATION_KEY, "animation", ANIMATIONS),
    ("designer", ANNOTATION_KEY, "type", ANNOTATION_TYPES),
]


def _items(**fields):
    return st.lists(st.fixed_dictionaries(fields), min_size=1, max_size=3)


# A valid reply of each role, as parsed JSON.
REPLIES = {
    "analyst": st.fixed_dictionaries({
        "Insights": _items(insight=st.just("An insight."), type=st.lists(
            st.sampled_from(INSIGHT_TYPES), min_size=1, max_size=3)),
        "Visualization": st.just({"mark": "bar", "encoding": {}}),
        "Visualization_Type": st.sampled_from(VISUALIZATION_TYPES),
        "Narration": st.just("Prices rise."),
    }),
    "designer": st.fixed_dictionaries({
        "Annotated_Visualization": st.just({"mark": "bar", "encoding": {}}),
        ANIMATION_KEY: _items(
            animation=st.sampled_from(ANIMATIONS), narration=st.just("Prices rise."),
            target=st.just("bars"), index=ROWS, explanation=st.just("")),
        # An item whose type list is empty is dropped, but keeps its place.
        ANNOTATION_KEY: _items(
            type=st.lists(st.sampled_from(ANNOTATION_TYPES), max_size=2),
            description=st.just("note"), index=ROWS, nar=st.just("Prices rise.")),
    }),
}


def _parse(role: str, reply: dict):
    if role == "analyst":
        return parse_analyst_response(json.dumps(reply))
    return parse_designer_response(json.dumps(reply), TABLE)


def _place(data, reply: dict, key: str, field: str | None):
    """A drawn place for a name in reply's key: (item position, list slot or
    None), or None for the key's own value."""
    if field is None:
        return None
    position = data.draw(st.integers(0, len(reply[key]) - 1))
    item = reply[key][position]
    return position, data.draw(st.integers(0, len(item["type"]))) if field == "type" else None


def _put(reply: dict, key: str, field: str | None, place, name: str) -> str:
    """Put name at place in reply's key; the path of the item it is in."""
    if place is None:
        reply[key] = name
        return key
    position, slot = place
    item = reply[key][position]
    if slot is None:
        item[field] = name
    else:
        item[field].insert(slot, name)
    return f"{key}[{position}]"


class TestReplyFaults:
    @given(st.sampled_from(VOCABULARIES), st.data())
    def test_an_unknown_name_names_its_item_and_every_allowed_name(self, vocabulary, data):
        role, key, field, names = vocabulary
        reply = data.draw(REPLIES[role])
        name = data.draw(st.text(max_size=12).filter(lambda n: n.strip() not in names))
        path = _put(reply, key, field, _place(data, reply, key, field), name)
        with pytest.raises(JsonTypeError) as err:
            _parse(role, reply)
        message = str(err.value)
        assert message.startswith(f"{path}: unknown ")
        assert repr(name) in message
        assert message.endswith("; one of " + ", ".join(map(repr, names)))

    @given(st.sampled_from(VOCABULARIES), st.data())
    def test_a_padded_name_reads_as_the_trimmed_name(self, vocabulary, data):
        role, key, field, names = vocabulary
        padded = data.draw(REPLIES[role])
        trimmed = copy.deepcopy(padded)
        name = data.draw(st.sampled_from(names))
        padding = st.text(" \t\r\n", min_size=1, max_size=3)
        place = _place(data, padded, key, field)
        _put(padded, key, field, place, data.draw(padding) + name + data.draw(padding))
        _put(trimmed, key, field, place, name)
        assert _parse(role, padded) == _parse(role, trimmed)

    @given(REPLIES["designer"], st.sampled_from([ANIMATION_KEY, ANNOTATION_KEY]), st.data())
    def test_a_row_out_of_range_names_its_element(self, reply, key, data):
        items = reply[key]
        position = data.draw(st.integers(0, len(items) - 1))
        item = items[position]
        if key == ANNOTATION_KEY and not item["type"]:
            item["type"].append("text")  # a dropped item's rows are not read
        row = data.draw(st.integers(max_value=-1) | st.integers(min_value=TABLE.row_count))
        k = data.draw(st.integers(0, len(item["index"])))
        item["index"].insert(k, row)
        with pytest.raises(JsonTypeError) as err:
            _parse("designer", reply)
        assert str(err.value) == (f"{key}[{position}].index[{k}]: row {row} out of range "
                                  f"(table has {TABLE.row_count} rows)")
