"""Benchmark of the datareel compiler on seeded, hermetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, imports the package from `src/`, and then compiles in
a closed loop: one client, one thread, the next `run_pipeline` call starting
only when the previous compile, its `validate_project` calls and the output
checks have finished, each compile into a fresh output directory. The first
compile is a warm-up whose outputs are the reference for the others.
Validation is much shorter than a compile, so an untraced run repeats it on
each project for about a quarter of the compile's time.

Compile and validate times are reported as multiples of a fixed reference
workload timed right before and after each compile (see reference.py),
because the shared machine's speed drifts far more than the bounds allow.
For the same reason set-up time is scaled by bare interpreter starts timed
beside it. The plain seconds are printed too.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
spends half the time untraced and half traced, and prints per-layer self
times and counts. Human-readable lines come first; the last line of stdout
is one JSON object {correct, attempted, failed, metrics}. A stamp (nproc,
Python version, git commit, seed) and the raw samples go to
`.perfbench_run/results/`, and traced runs also write their spans there.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_STARTS = 15
BARE_START_S = 0.05  # nominal bare interpreter start that set-up time is scaled to
REFERENCE_SHARE = 0.1  # reference time on each side of a compile, as a share of it
# Untraced runs repeat validation for about this share of a compile's time;
# traced runs validate once per compile, so that its spans add up per compile.
VALIDATE_SHARE = 0.25

# Compile and validate times are multiples of the reference workload timed
# beside them (see reference.py); set-up time is scaled by bare interpreter
# starts (see measure_setup). The 90th
# percentile is printed but not reported: a run holds too few compiles of
# synth-long for it to repeat within any useful bound.
END_TO_END = {
    "compile_x.p50": "x", "validate_x.p50": "x", "setup_s": "s",
    "peak_rss_mb": "MB", "output_bytes": "bytes",
}

# Per-layer self times: metric name -> span layer.
LAYER_TIMES = {
    "adapters.synth_s": "adapters.synth",
    "adapters.render_s": "adapters.render",
    "adapters.html_s": "adapters.html",
    "adapters.tts_s": "adapters.tts",
    "binding.parse_svg_s": "binding.parse_svg",
    "binding.index_marks_s": "binding.index_marks",
    "binding.diff_s": "binding.diff",
    "binding.resolve_s": "binding.resolve",
    "binding.match_s": "binding.match",
    "analyst.run_s": "analyst.run",
    "designer.run_s": "designer.run",
    "runtime.extract_json_s": "runtime.extract_json",
    "timeline.compile_s": "timeline.compile",
    "ingest.parse_csv_s": "ingest.parse_csv",
    "ingest.describe_s": "ingest.describe",
    "pipeline.self_s": "pipeline",
    "pipeline.validate_self_s": "pipeline.validate",
}
LAYER_COUNTS = {
    "adapters.value_at_calls": "count", "adapters.frames": "count",
    "adapters.svg_bytes": "bytes", "adapters.html_bytes": "bytes",
    "binding.svg_elements": "count", "runtime.completions": "count",
    "timeline.keyframes": "count", "timeline.locate_span_calls": "count",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES}, **LAYER_COUNTS,
    "runtime.accept_ratio": "ratio",
    "trace.compile_s.p50": "s", "trace.validate_s.p50": "s",
    "trace.overhead_share": "ratio", "trace.accounted_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def start_seconds(code: str) -> float:
    """Wall time for a fresh interpreter to run `code`, with src/ on its path."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls for the exit every 50 ms, which
    # rounds every start up to that step.
    subprocess.run([sys.executable, "-c", code],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup() -> tuple[float, dict]:
    """Set-up time of a fresh interpreter that imports datareel.cli.

    Each import is timed between two bare interpreter starts and taken as a
    multiple of their mean, then scaled by BARE_START_S, so the value reads
    as seconds on a machine where a bare start takes that long. On the
    shared machine raw set-up medians moved by a third between sets of runs;
    the scaled ones by a few percent. Returns the median and the raw figures.
    """
    start_seconds("import datareel.cli")  # the first start writes the bytecode cache
    bare = [start_seconds("pass")]
    imports = []
    for _ in range(SETUP_STARTS):
        imports.append(start_seconds("import datareel.cli"))
        bare.append(start_seconds("pass"))
    scaled = [t * 2 / (bare[i] + bare[i + 1]) * BARE_START_S for i, t in enumerate(imports)]
    raw = {"import_s.p50": (statistics.median(imports), "s", f"n={len(imports)}"),
           "bare_start_s.p50": (statistics.median(bare), "s", f"n={len(bare)}")}
    return statistics.median(scaled), raw


class Loop:
    """Closed-loop compiles of one workload's inputs, with every output checked."""

    def __init__(self, inputs: workloads.Inputs, out_root: Path, validate_share: float = 0.0):
        from datareel import pipeline
        self.pipeline = pipeline
        self.inputs = inputs
        self.out_root = out_root
        self.validate_share = validate_share
        self.count = 0
        self.failed = 0
        self.reference = None
        self.last_compile_s = 0.0

    def compile_once(self, tracer: Tracer | None = None, after=None) -> dict | None:
        """One compile, validate and check, timed against the reference workload.

        Returns the sample, or None when the compile failed or its outputs
        were wrong.
        """
        self.count += 1
        out = self.out_root / f"c{self.count}"
        if tracer is not None:
            tracer.compile_id = self.count
        try:
            config = self.pipeline.ProjectConfig.from_file(self.inputs.config,
                                                           output_dir=str(out))
            ref_time = REFERENCE_SHARE * self.last_compile_s
            ref_before = reference_seconds(ref_time)
            t0 = time.perf_counter()
            self.pipeline.run_pipeline(config)
            t1 = time.perf_counter()
            ref_after = reference_seconds(ref_time)
            self.last_compile_s = t1 - t0
            # Validation is short, so it may be timed several times per compile.
            validate_s = []
            while not validate_s or sum(validate_s) < self.validate_share * self.last_compile_s:
                t2 = time.perf_counter()
                report = self.pipeline.validate_project(out)
                validate_s.append(time.perf_counter() - t2)
            ref_end = reference_seconds(REFERENCE_SHARE * sum(validate_s))
            if after is not None:
                after(out)
            problems = checks.check_project(out, self.inputs, report, self.reference)
            if self.reference is None and not problems:
                self.reference = checks.artifact_digests(out)
        except Exception as e:  # a failed compile is counted, and the loop goes on
            problems = [f"{type(e).__name__}: {e}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"compile {self.count} failed: " + "; ".join(problems[:3]), file=sys.stderr)
            return None
        return {"id": self.count, "compile_s": t1 - t0, "validate_s": validate_s,
                "ref_before_s": ref_before, "ref_after_s": ref_after, "ref_end_s": ref_end}

    def run_for(self, seconds: float, tracer: Tracer | None = None, after=None) -> list:
        samples = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            sample = self.compile_once(tracer, after)
            if sample is not None:
                samples.append(sample)
            elif not samples and time.perf_counter() >= deadline:
                raise RuntimeError("no compile succeeded")
        return samples


def column(samples: list, key: str) -> list:
    return [s[key] for s in samples]


def validate_times(samples: list) -> list:
    return [v for s in samples for v in s["validate_s"]]


def relative(samples: list) -> tuple[list, list]:
    """Compile and validate times as multiples of the reference workload.

    Each is compared with the mean of the reference runs on either side.
    """
    compile_x = [s["compile_s"] * 2 / (s["ref_before_s"] + s["ref_after_s"]) for s in samples]
    validate_x = [v * 2 / (s["ref_after_s"] + s["ref_end_s"])
                  for s in samples for v in s["validate_s"]]
    return compile_x, validate_x


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict, list]:
    setup_s, setup_raw = measure_setup()
    peak = {}

    def record_peak(out: Path):
        # Peak memory of the warm-up compile, taken before the checks load
        # the outputs back in.
        peak["mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak["bytes"] = checks.artifact_bytes(out)

    loop.compile_once(after=record_peak)
    samples = loop.run_for(seconds)
    compile_x, validate_x = relative(samples)
    compile_s = column(samples, "compile_s")
    metrics = {
        "compile_x.p50": statistics.median(compile_x),
        "validate_x.p50": statistics.median(validate_x),
        "setup_s": setup_s,
        "peak_rss_mb": peak.get("mb", 0.0),
        "output_bytes": peak.get("bytes", 0),
    }
    n = f"n={len(samples)}"
    extra = {
        "compile_x.p90": (quantile(compile_x, 0.9), "x", n),
        "compile_s.p50": (statistics.median(compile_s), "s", n),
        "compile_s.p90": (quantile(compile_s, 0.9), "s", n),
        "validate_s.p50": (statistics.median(validate_times(samples)), "s",
                           f"n={len(validate_x)}"),
        "reference_s.p50": (statistics.median(column(samples, "ref_before_s")), "s", n),
        **setup_raw,
    }
    return metrics, extra, samples


def per_layer(loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, dict, list]:
    loop.compile_once()
    untraced = loop.run_for(seconds / 2)
    tracer = Tracer()

    def count_frames(out: Path):
        if (out / "video_manifest.json").is_file():
            tracer.counts[tracer.compile_id]["adapters.frames"] = (
                checks.read_video_manifest(out)["frame_count"])

    with tracer.installed():
        traced = loop.run_for(seconds / 2, tracer, count_frames)
    tracer.write(spans_path)

    ids = column(traced, "id")
    self_times = tracer.self_times()
    metrics = {}
    for name, layer in LAYER_TIMES.items():
        metrics[name] = statistics.median(self_times[c][layer] for c in ids)
    for name in LAYER_COUNTS:
        metrics[name] = statistics.median(tracer.counts[c][name] for c in ids)
    metrics["runtime.accept_ratio"] = statistics.median(
        tracer.counts[c]["runtime.accepted"] / tracer.counts[c]["runtime.completions"]
        for c in ids)
    compile_p50 = statistics.median(column(traced, "compile_s"))
    validate_p50 = statistics.median(validate_times(traced))
    metrics["trace.compile_s.p50"] = compile_p50
    metrics["trace.validate_s.p50"] = validate_p50
    # Relative times cancel the machine's drift between the two halves.
    untraced_x, _ = relative(untraced)
    traced_x, _ = relative(traced)
    metrics["trace.overhead_share"] = (
        statistics.median(traced_x) / statistics.median(untraced_x) - 1)
    metrics["trace.accounted_share"] = (
        sum(metrics[name] for name in LAYER_TIMES) / (compile_p50 + validate_p50))
    extra = {
        "untraced compile_s.p50": (statistics.median(column(untraced, "compile_s")), "s",
                                   f"n={len(untraced)}"),
        "traced compiles": (len(traced), "count", ""),
    }
    return metrics, extra, untraced + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "datareel" / "pipeline.py").is_file():
        print(f"error: no datareel package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run"
    scratch = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": git_commit(ROOT),
    }
    try:
        inputs = workloads.generate(args.workload, args.seed, scratch / "inputs", ROOT)
        sys.path.insert(0, str(SRC))
        loop = Loop(inputs, scratch / "out", 0.0 if args.trace else VALIDATE_SHARE)
        started = time.perf_counter()
        if args.trace:
            metrics, extra, samples = per_layer(loop, args.seconds,
                                                results / f"{tag}-spans.jsonl")
            units = PER_LAYER
        else:
            metrics, extra, samples = end_to_end(loop, args.seconds)
            units = END_TO_END
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    error_rate = loop.failed / loop.count
    print("stamp " + json.dumps(stamp))
    print(f"{args.workload}: {loop.count} compiles in {elapsed:.1f} s, {loop.failed} failed, "
          f"error_rate {error_rate:g}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:>14.6g} {unit}")
    print("also measured, not reported:")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:28s} {value:>14.6g} {unit}  {note}")
    (results / f"{tag}.json").write_text(json.dumps(
        {"stamp": stamp, "error_rate": error_rate, "metrics": metrics,
         "extra": extra, "samples": samples}, indent=2), encoding="utf-8")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.count,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
