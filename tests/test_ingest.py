import csv
import io
import json
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from datareel.errors import PreconditionError
from datareel.ingest import (
    DuplicateColumn,
    EmptyInput,
    RaggedRows,
    build_description_prompt,
    fill_template,
    load_template,
    parse_csv,
    parse_description_response,
    render_table_text,
)
from datareel.model import DataTable, JsonTypeError, dump_artifact
from helpers import reference_csv_parse


class TestParseCsv:
    def test_basic_typing(self):
        table = parse_csv("date,price\n2023-01-03,125.07", "Stocks")
        assert table.row_count == 1
        assert table.column_names == ("date", "price")
        assert table.row(0) == {"date": "2023-01-03", "price": 125.07}
        assert isinstance(table.row(0)["price"], float)

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows) as err:
            parse_csv("a,b\n1,2\n3", "t")
        assert err.value.row_number == 2

    def test_quoted_comma(self):
        table = parse_csv('a\n"x,y"', "t")
        assert table.row(0) == {"a": "x,y"}

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_csv("   \n ", "t")

    def test_duplicate_column(self):
        with pytest.raises(DuplicateColumn):
            parse_csv("a,a\n1,2", "t")

    def test_integer_and_null_typing(self):
        table = parse_csv("n,s,empty\n42,007x,\n-3,txt,", "t")
        assert dict(table.columns) == {"n": (42, -3), "s": ("007x", "txt"),
                                       "empty": (None, None)}

    @pytest.mark.parametrize("cell", ["1e999", "-1e999", " 1E+400 ", "9" * 400 + ".0"],
                             ids=["exponent", "negative", "spaced", "400-digit-float"])
    def test_float_that_overflows_stays_text(self, cell):
        assert parse_csv(f"a,b\n{cell},1", "t").columns == (("a", (cell,)), ("b", (1,)))

    def test_integer_past_the_int_limit_stays_text(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        cell = "7" * (limit + 1)
        assert parse_csv(f"a,b\n{cell},{cell[:limit]}", "t").columns == (
            ("a", (cell,)), ("b", (int(cell[:limit]),)))

    def test_non_ascii_digits_stay_text(self):
        assert parse_csv("a,b,c\n\u0663,\uff11\uff12,\u0663.5e1\n", "t").columns == (
            ("a", ("\u0663",)), ("b", ("\uff11\uff12",)), ("c", ("\u0663.5e1",)))

    # Quoting corpus checked against an independent RFC-4180 state machine.
    QUOTING_CORPUS = [
        'a,b\n1,2',
        'a,b\r\n1,2\r\n',
        'a\n"x,y"',
        'a\n"line\nbreak"',
        'a,b\n"1","2"',
        'a\n"he said ""hi"""',
        'a,b\n,2',
        'a,b\n1,',
        'a,b,c\nx,"y,y",z',
        'a\n""',
        'name\n" leading space"',
        'name\n"trailing space "',
        'a,b\n"quoted","also ""nested"" quotes"',
        'h1,h2\nплain,"кв,oted"',
        'a\nx',
        'a,b\n"multi\nline","2"',
        'x,y,z\n1,2,3\n4,5,6',
        'a\n","',
        'a\n""""',
        'col\n"a""b""c"',
    ]

    @pytest.mark.parametrize("raw", QUOTING_CORPUS)
    def test_quoting_against_reference_parser(self, raw):
        expected = reference_csv_parse(raw)
        table = parse_csv(raw, "t")
        assert table.column_names == tuple(expected[0])
        got_rows = [
            [table.columns[c][1][r] for c in range(len(table.columns))]
            for r in range(table.row_count)
        ]
        # compare as text: re-render typed cells back to strings
        rendered = [["" if cell is None else str(cell) for cell in row] for row in got_rows]
        assert rendered == [row for row in expected[1:]]


# Pieces of hostile cells: CSV delimiters and quotes, line breaks, spaces,
# number syntax, exponents past a float's range, an integer longer than
# int() reads by default (4,300 digits), non-ASCII digits and plain text.
CSV_PIECES = (",", '"', "\n", "\r\n", " ", "\t", "0", "7", "12", ".", "-", "+", "e", "E",
              "e999", "1e-999", "_", "٣", "inf", "nan", "x", "9" * 4301)
hostile_cell = st.lists(st.sampled_from(CSV_PIECES), max_size=5).map("".join)


@st.composite
def hostile_csv(draw):
    """A header and rows of hostile cells, with the text csv.writer makes of them."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(hostile_cell, min_size=width, max_size=width), max_size=5))
    header = [f"c{i}" for i in range(width)]
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue(), header, rows


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestHostileCells:
    @given(hostile_csv())
    def test_cells_are_null_text_or_finite_numbers(self, drawn):
        text, header, rows = drawn
        table = parse_csv(text, "t")
        assert table.column_names == tuple(header)
        assert table.row_count == len(rows)
        for r, row in enumerate(rows):
            for name, raw in zip(header, row):
                cell = table.row(r)[name]
                if cell is None:
                    assert raw == ""
                elif isinstance(cell, str):
                    assert cell == raw
                else:
                    assert math.isfinite(cell) and raw.strip().isascii()
                    assert cell == type(cell)(raw.strip())
        payload = {"title": table.title, "row_count": table.row_count,
                   "columns": [{"name": name, "values": list(values)}
                               for name, values in table.columns]}
        assert json.loads(dump_artifact(payload), parse_constant=_reject_constant) == payload


class TestRoundTrip:
    def test_parse_serialize_identity_randomized(self):
        rng = random.Random(7)
        letters = "abcdefg XYZ_"
        for _ in range(50):
            n_cols = rng.randint(1, 5)
            n_rows = rng.randint(0, 8)
            names = [f"col{i}" for i in range(n_cols)]
            columns = []
            for name in names:
                values = []
                for _ in range(n_rows):
                    kind = rng.random()
                    if kind < 0.3:
                        values.append(rng.randint(-1000, 1000))
                    elif kind < 0.55:
                        values.append(round(rng.uniform(-100, 100), rng.randint(1, 6)))
                    elif kind < 0.65:
                        values.append(None)
                    else:
                        # text cells must not look numeric or be empty
                        values.append("t" + "".join(rng.choice(letters) for _ in range(4)))
                columns.append((name, tuple(values)))
            table = DataTable(title="rt", columns=tuple(columns), row_count=n_rows)
            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(["" if cell is None else str(cell) for cell in row]
                             for row in zip(*(values for _, values in columns)))
            assert parse_csv(text.getvalue(), "rt") == table


class TestRenderTableText:
    def test_single_row(self):
        table = parse_csv("date,price\n2023-01-03,125.07", "t")
        assert render_table_text(table) == "index | date | price\n0 | 2023-01-03 | 125.07"

    def test_zero_rows_header_only(self):
        table = parse_csv("date,price", "t")
        assert render_table_text(table) == "index | date | price"

    def test_truncation_note(self):
        raw = "n\n" + "\n".join(str(i) for i in range(100))
        table = parse_csv(raw, "t")
        text = render_table_text(table, max_rows=10)
        lines = text.split("\n")
        assert len(lines) == 12  # header + 10 rows + note
        assert lines[-1] == "... (90 more rows)"
        assert lines[1] == "0 | 0"
        assert lines[10] == "9 | 9"

    def test_unlimited_by_default(self):
        raw = "n\n" + "\n".join(str(i) for i in range(100))
        table = parse_csv(raw, "t")
        assert "more rows" not in render_table_text(table)

    def test_distinct_tables_render_distinct_text(self):
        rng = random.Random(13)
        seen = {}
        for _ in range(100):
            rows = rng.randint(1, 3)
            raw = "a,b\n" + "\n".join(
                f"{rng.randint(0, 9)},x{rng.randint(0, 9)}" for _ in range(rows)
            )
            table = parse_csv(raw, "t")
            text = render_table_text(table)
            if text in seen:
                assert seen[text] == table
            seen[text] = table


class TestDescriptionPrompt:
    def test_reblanked_prompt_matches_stored_template(self, stock_table):
        prompt = build_description_prompt(stock_table)
        reblanked = prompt.replace(
            render_table_text(stock_table, 100), "{{table}}"
        ).replace(stock_table.title, "{{title}}")
        assert reblanked == load_template("description")

    def test_anchor_lines(self, stock_table):
        prompt = build_description_prompt(stock_table)
        assert prompt.startswith(
            "Give a short and consistent description of the following data table and columns:"
        )
        assert (
            "The title of the data table is: Weekly Stock Prices of Four IT Companies"
            in prompt
        )
        assert '"Description": [A]' in prompt

    def test_requires_title(self):
        table = DataTable(title="  ", columns=(("a", (1,)),), row_count=1)
        with pytest.raises(PreconditionError):
            build_description_prompt(table)


class TestFillTemplate:
    def test_rejects_unfilled_placeholders(self):
        with pytest.raises(ValueError, match="table"):
            fill_template("analyst", description="d")

    def test_values_are_inserted_verbatim_in_one_pass(self):
        prompt = fill_template("analyst", description="{{table}} and {{description}}",
                               table="T{{description}}")
        head, rest = load_template("analyst").split("{{description}}")
        middle, tail = rest.split("{{table}}")
        assert prompt == head + "{{table}} and {{description}}" + middle + (
            "T{{description}}" + tail
        )

    def test_title_with_placeholder_text(self, stock_table):
        table = DataTable(title="{{table}}", columns=stock_table.columns,
                          row_count=stock_table.row_count)
        prompt = build_description_prompt(table)
        rendered = render_table_text(table, 100)
        assert prompt.count(rendered) == 1
        assert "The title of the data table is: {{table}}" in prompt
        assert prompt.replace(rendered, "{{table}}", 1).replace(
            "is: {{table}}", "is: {{title}}"
        ) == load_template("description")


class TestParseDescriptionResponse:
    def test_plain(self):
        out = parse_description_response(
            '{"Description": "Daily closing prices of four IT stocks."}'
        )
        assert out.text == "Daily closing prices of four IT stocks."

    def test_key_case_mismatch(self):
        with pytest.raises(JsonTypeError):
            parse_description_response('{"description": "..."}')

    def test_code_fenced(self):
        assert parse_description_response('```json\n{"Description": "x"}\n```').text == "x"

    def test_empty_description(self):
        with pytest.raises(JsonTypeError):
            parse_description_response('{"Description": "   "}')

    def test_non_string_value(self):
        with pytest.raises(JsonTypeError):
            parse_description_response('{"Description": 42}')
