import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=deep` runs ten times the examples of a normal run.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)

from datareel.ingest import parse_csv
from datareel.pipeline import ProjectConfig

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
TRANSCRIPTS = {
    name: str(DATA_DIR / "transcripts" / f"{name}.json")
    for name in ("description", "analyst", "designer")
}

STOCK_TITLE = "Weekly Stock Prices of Four IT Companies"
STOCK_COMPANIES = ("AlphaSoft", "ByteCorp", "CloudNine", "DataWorks")
STOCK_ROWS = {
    "AlphaSoft": (0, 1, 2, 3, 4),
    "ByteCorp": (5, 6, 7, 8, 9),
    "CloudNine": (10, 11, 12, 13, 14),
    "DataWorks": (15, 16, 17, 18, 19),
}


@pytest.fixture(scope="session")
def stock_csv_path() -> Path:
    return DATA_DIR / "stocks.csv"


@pytest.fixture(scope="session")
def stock_table(stock_csv_path):
    return parse_csv(stock_csv_path.read_text(encoding="utf-8"), STOCK_TITLE)


@pytest.fixture(scope="session")
def stock_narration() -> str:
    reply = json.loads(
        (DATA_DIR / "transcripts" / "analyst.json").read_text(encoding="utf-8")
    )[0]["reply"]
    start = reply.index("{")
    payload = json.loads(reply[start:reply.rindex("}") + 1])
    return payload["Narration"]


@pytest.fixture
def mock_project_config(tmp_path, stock_csv_path):
    def factory(**overrides) -> ProjectConfig:
        settings = dict(
            input_csv=str(stock_csv_path),
            output_dir=str(tmp_path / "project"),
            title=STOCK_TITLE,
            mock_mode=True,
            transcripts=dict(TRANSCRIPTS),
            export="both",
        )
        settings.update(overrides)
        return ProjectConfig(**settings)

    return factory
