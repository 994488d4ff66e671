"""CSV ingestion, prompt-embeddable table rendering, and the table-description step.

The rendered table text makes the implicit 0-based row index explicit
("index | col | ..."), because downstream directives reference rows by that
index. Prompts are built from stored templates that must stay byte-identical
to their source outside the {{placeholder}} markers.
"""

import csv
import io
import math
import re
from importlib import resources
from typing import TypedDict

from .errors import PreconditionError
from .model import (
    Cell,
    DataDescription,
    DataTable,
    ValidationReport,
    build_read,
    read_typed,
)
from .runtime import ChatSession, RepairReport, extract_json, repair_loop


class EmptyInput(PreconditionError):
    pass


class RaggedRows(PreconditionError):
    def __init__(self, row_number: int):
        super().__init__(f"row {row_number} has a different cell count than the header")
        self.row_number = row_number


class DuplicateColumn(PreconditionError):
    def __init__(self, name: str):
        super().__init__(f"duplicate column name: {name!r}")
        self.name = name


# ASCII digits only: int() and float() also read other scripts' digits.
_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)

DEFAULT_PROMPT_ROWS = 100


def _type_cell(raw: str) -> Cell:
    if raw == "":
        return None
    stripped = raw.strip()
    if _INT_RE.fullmatch(stripped):
        try:
            return int(stripped)
        except ValueError:
            return raw
    if _NUMBER_RE.fullmatch(stripped) and math.isfinite(value := float(stripped)):
        return value
    return raw


def parse_csv(raw: str, title: str) -> DataTable:
    """Parse RFC-4180-style CSV with a header row into a DataTable.

    Numeric-looking cells become numbers, except an integer of more digits
    than int() reads and a float that overflows (1e999), which stay text;
    empty cells become null. Raises EmptyInput, RaggedRows(row_number), or
    DuplicateColumn(name).
    """
    if not raw.strip():
        raise EmptyInput("CSV input is empty")
    reader = csv.reader(io.StringIO(raw, newline=""))
    rows = [row for row in reader if row != []]
    if not rows:
        raise EmptyInput("CSV input has no header row")
    header = rows[0]
    seen = set()
    for name in header:
        if not name.strip():
            raise PreconditionError("CSV header contains an empty column name")
        if name in seen:
            raise DuplicateColumn(name)
        seen.add(name)
    data = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RaggedRows(number)
        data.append([_type_cell(cell) for cell in row])
    columns = tuple(
        (name, tuple(row[i] for row in data)) for i, name in enumerate(header)
    )
    return DataTable(title=title, columns=columns, row_count=len(data))


def format_cell(cell: Cell) -> str:
    """Render a cell for prompts (shortest round-trip form)."""
    if cell is None:
        return ""
    return str(cell)


def render_table_text(table: DataTable, max_rows: int | None = None) -> str:
    """Render a table as deterministic prompt text with explicit row indices.

    Header line, then one " | "-joined line per row prefixed with the 0-based
    row index; appends a truncation note when rows were elided.
    """
    if max_rows is not None and max_rows < 1:
        raise PreconditionError("max_rows must be positive")
    lines = ["index | " + " | ".join(table.column_names)]
    shown = table.row_count if max_rows is None else min(max_rows, table.row_count)
    for i in range(shown):
        row = table.row(i)
        lines.append(f"{i} | " + " | ".join(format_cell(row[n]) for n in table.column_names))
    elided = table.row_count - shown
    if elided > 0:
        lines.append(f"... ({elided} more rows)")
    return "\n".join(lines)


def load_template(template_id: str) -> str:
    """Load one of the three stored prompt templates by id."""
    path = resources.files(__package__) / "prompts" / f"{template_id}_prompt.txt"
    return path.read_text(encoding="utf-8")


_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


def fill_template(template_id: str, **values: str) -> str:
    """Fill every {{name}} placeholder of a stored template in one pass.

    Placeholders are read from the template, never from the filled text, so a
    value that itself contains "{{table}}" is inserted verbatim. Raises
    ValueError when the template has a placeholder no value is given for.
    """
    template = load_template(template_id)
    missing = sorted(set(_PLACEHOLDER.findall(template)) - set(values))
    if missing:
        raise ValueError(f"template {template_id!r} has unfilled placeholders: {missing}")
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], template)


def build_description_prompt(table: DataTable, max_rows: int | None = DEFAULT_PROMPT_ROWS) -> str:
    """Fill the table-description template with the rendered table and title."""
    if not table.title.strip():
        raise PreconditionError("table must carry a title")
    return fill_template("description", table=render_table_text(table, max_rows),
                         title=table.title)


class DescriptionJson(TypedDict):
    """The description reply format, as description_to_json writes it."""

    Description: str


def description_to_json(description: DataDescription) -> dict:
    return {"Description": description.text}


def description_from_json(value) -> DataDescription:
    """Build a DataDescription from a parsed reply or a persisted
    description.json payload; raises JsonTypeError where the value breaks
    the reply format."""
    reply = read_typed(DescriptionJson, value, ignore_extra_keys=True)
    return build_read(DataDescription, text=reply["Description"])


def parse_description_response(raw: str) -> DataDescription:
    """Extract the "Description" string from an agent reply."""
    return description_from_json(extract_json(raw))


def describe(session: ChatSession, table: DataTable, max_attempts: int = 3,
             max_rows: int | None = DEFAULT_PROMPT_ROWS,
             ) -> tuple[DataDescription, ValidationReport, RepairReport]:
    """Run the perception step through the repair loop; a parsed description is accepted."""
    return repair_loop(session, build_description_prompt(table, max_rows),
                       parse_description_response, lambda _: ValidationReport(), max_attempts)
