"""Seeded inputs for the benchmark workloads.

Each generator writes what a user would hand to `datareel run` in mock mode:
a CSV, the three scripted agent transcripts and a config file. It also
returns the counts the output checks expect, which follow from how the
inputs were built and not from running the program.

The same seed always gives the same files. The seed only changes names and
values; row counts, narration length and directive structure are fixed per
workload, so the work a compile does is the same for every seed.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("stock-demo", "synth-long", "overlay-wide")

STOCK_TITLE = "Weekly Stock Prices of Four IT Companies"

PLACES = ("Ashford", "Brookvale", "Carrow", "Dunmore", "Elmstead", "Farley",
          "Glenwood", "Harlow", "Ivydale", "Juniper", "Kestrel", "Larkhill")
CHANNELS = ("Online", "Retail", "Wholesale", "Export", "Catalog", "Kiosk")
EMPHASIS = ("Highlight-one-and-fade-others", "Bar-bounce",
            "Highlight-one-and-fade-others", "Zoom-in-then-zoom-out",
            "Highlight-one-and-fade-others", "Shine-in-a-short-duration")

ANALYST_MATCH = "You are a data analyst."
DESIGNER_MATCH = "You are a data video designer."
DESCRIPTION_MATCH = "Give a short and consistent description"
REPAIR_MATCH = "violated the required output contract"


@dataclass(frozen=True)
class Shape:
    """The fixed structure of a synthetic grouped bar chart workload."""

    categories: int
    channels: int
    overlay_rows: int
    sentences: int
    export: str
    broken_first_reply: bool


SHAPES = {
    "synth-long": Shape(categories=30, channels=4, overlay_rows=12, sentences=12,
                        export="video", broken_first_reply=False),
    "overlay-wide": Shape(categories=200, channels=4, overlay_rows=400, sentences=5,
                          export="html", broken_first_reply=True),
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload plus the counts its outputs must show."""

    config: Path
    export: str
    annotation_ids: int
    attempts: dict
    first_rejection: dict


def generate(name: str, seed: int, dest: Path, root: Path, shape: Shape | None = None) -> Inputs:
    """Write the inputs of workload `name` under `dest` and describe them.

    `root` is the repository checkout, which holds the bundled demo data.
    `shape` overrides the workload's fixed structure (the self-test uses a
    tiny one).
    """
    dest.mkdir(parents=True, exist_ok=True)
    if name == "stock-demo":
        return _stock_demo(dest, root)
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return _grouped_bars(random.Random(seed), shape or SHAPES[name], dest)


def _write_config(dest: Path, csv_path: Path, title: str, transcripts: dict,
                  export: str) -> Path:
    path = dest / "config.json"
    # output_dir is required here but replaced for every compile.
    path.write_text(json.dumps({
        "input_csv": str(csv_path),
        "output_dir": str(dest / "unused"),
        "title": title,
        "mock_mode": True,
        "transcripts": {k: str(v) for k, v in transcripts.items()},
        "export": export,
    }, indent=2), encoding="utf-8")
    return path


def _stock_demo(dest: Path, root: Path) -> Inputs:
    data = root / "tests" / "data"
    transcripts = {n: data / "transcripts" / f"{n}.json"
                   for n in ("description", "analyst", "designer")}
    for path in (data / "stocks.csv", *transcripts.values()):
        if not path.is_file():
            raise FileNotFoundError(f"bundled demo input missing: {path}")
    config = _write_config(dest, data / "stocks.csv", STOCK_TITLE, transcripts, "both")
    # The demo's designer adds one point and one text label for each of the
    # four companies.
    return Inputs(config=config, export="both", annotation_ids=8,
                  attempts={"analyst": 1, "designer": 1}, first_rejection={})


def _fenced(value: dict, lead: str) -> str:
    return f"{lead}\n```json\n{json.dumps(value, indent=2)}\n```"


def _grouped_bars(rng: random.Random, shape: Shape, dest: Path) -> Inputs:
    channels = rng.sample(CHANNELS, shape.channels)
    offset = rng.randrange(len(PLACES))
    categories = [f"{PLACES[(offset + k) % len(PLACES)]} {k // len(PLACES) + 1}"
                  for k in range(shape.categories)]
    rows = [{"store": store, "channel": channel, "sales": round(rng.uniform(20, 900), 1)}
            for channel in channels for store in categories]
    row_of = {(r["store"], r["channel"]): i for i, r in enumerate(rows)}
    title = "Sales by Store and Channel"

    csv_path = dest / "table.csv"
    csv_path.write_text("store,channel,sales\n" + "".join(
        f"{r['store']},{r['channel']},{r['sales']}\n" for r in rows), encoding="utf-8")

    # Narration: a 13-word overview, then one 9-word sentence per emphasised
    # store. Store names are distinct, so every sentence is unique.
    focus = rng.sample(categories, shape.sentences)
    overview = (f"This chart compares sales across {shape.categories} stores "
                f"and {shape.channels} sales channels this year.")
    sentences = []
    for store in focus:
        channel = rng.choice(channels)
        sales = rows[row_of[(store, channel)]]["sales"]
        sentences.append((store, channel,
                          f"At {store} the {channel} channel sold {sales} units."))
    narration = " ".join([overview] + [s for _, _, s in sentences])

    base_encoding = {
        "x": {"field": "store", "type": "nominal"},
        "xOffset": {"field": "channel"},
        "y": {"field": "sales", "type": "quantitative"},
        "color": {"field": "channel", "type": "nominal"},
    }
    spec = {"title": title, "data": {"values": rows}, "mark": "bar",
            "encoding": base_encoding}
    analyst_reply = {
        "Insights": [
            {"insight": f"{focus[0]} has the most varied sales across channels.",
             "type": ["Comparison"]},
            {"insight": f"The {channels[0]} channel leads at most stores.",
             "type": ["Find Extremum", "Comparison"]},
            {"insight": "Sales per store span a wide range.", "type": ["Determine Range"]},
        ],
        "Visualization": spec,
        "Visualization_Type": "bar",
        "Narration": narration,
    }

    overlay = sorted(rng.sample(range(len(rows)), shape.overlay_rows))
    labels = [dict(rows[i], label=f"{rows[i]['sales']} units") for i in overlay]
    annotated = {
        "title": title,
        "data": {"values": rows},
        "layer": [
            {"mark": "bar", "encoding": base_encoding},
            {"data": {"values": labels}, "mark": "text",
             "encoding": {"x": {"field": "store", "type": "nominal"},
                          "y": {"field": "sales", "type": "quantitative"},
                          "text": {"field": "label"}}},
        ],
    }
    animations = [
        {"animation": "Axes-fade-in", "narration": overview, "target": "the x and y axes",
         "index": [], "explanation": "Reveal the frame during the overview."},
        {"animation": "Bar-grow-and-legend-fade-in", "narration": overview,
         "target": "all bars and the legend", "index": [],
         "explanation": "Grow every bar while the overview plays."},
    ]
    for k, (store, channel, sentence) in enumerate(sentences):
        animation = EMPHASIS[k % len(EMPHASIS)]
        if animation == "Highlight-one-and-fade-others":
            index = [row_of[(store, c)] for c in channels]
            target = f"the bars of {store}"
        else:
            index = [row_of[(store, channel)]]
            target = f"the highlighted bar of {store}"
        animations.append({"animation": animation, "narration": sentence, "target": target,
                           "index": index, "explanation": "Point at the narrated store."})
    # Overlay labels are dealt round-robin to one annotation directive per sentence.
    annotations = [
        {"type": ["text"], "description": "Sales labels for the narrated bars.",
         "index": overlay[k::len(sentences)], "nar": sentence}
        for k, (_, _, sentence) in enumerate(sentences)
    ]
    designer_reply = {
        "Annotated_Visualization": annotated,
        "Annotated_Narration_for_Animation": animations,
        "Annotated_Narration_for_Annotation": annotations,
    }
    description = {"Description": (
        f"Yearly sales of {shape.categories} stores, split across {shape.channels} "
        "sales channels. Each row pairs a store and a channel with its sales in units.")}

    analyst_script = [{"match": ANALYST_MATCH,
                       "reply": _fenced(analyst_reply, "Here is the analysis.")}]
    designer_script = [{"match": DESIGNER_MATCH,
                        "reply": _fenced(designer_reply, "Here is the design.")}]
    first_rejection = {}
    if shape.broken_first_reply:
        # Each agent's first reply breaks the contract after its whole payload
        # has been parsed, so the repair loop runs once per agent.
        broken_spec = dict(spec, encoding=dict(base_encoding, x={"field": "index"}))
        broken_analyst = dict(analyst_reply, Visualization=broken_spec)
        bad_annotation = dict(annotations[0], index=annotations[0]["index"] + [len(rows)])
        broken_designer = dict(designer_reply, Annotated_Narration_for_Annotation=(
            [bad_annotation] + annotations[1:]))
        analyst_script = [
            {"match": ANALYST_MATCH, "reply": _fenced(broken_analyst, "Here is the analysis.")},
            {"match": REPAIR_MATCH, "reply": _fenced(analyst_reply, "Corrected.")},
        ]
        designer_script = [
            {"match": DESIGNER_MATCH, "reply": _fenced(broken_designer, "Here is the design.")},
            {"match": REPAIR_MATCH, "reply": _fenced(designer_reply, "Corrected.")},
        ]
        first_rejection = {"analyst": "index-encoded", "designer": "out of range"}

    transcripts = {}
    for role, script in (("description", [{"match": DESCRIPTION_MATCH,
                                           "reply": json.dumps(description)}]),
                         ("analyst", analyst_script), ("designer", designer_script)):
        transcripts[role] = dest / f"{role}.json"
        transcripts[role].write_text(json.dumps(script), encoding="utf-8")

    config = _write_config(dest, csv_path, title, transcripts, shape.export)
    attempts = 2 if shape.broken_first_reply else 1
    return Inputs(config=config, export=shape.export, annotation_ids=len(overlay),
                  attempts={"analyst": attempts, "designer": attempts},
                  first_rejection=first_rejection)
