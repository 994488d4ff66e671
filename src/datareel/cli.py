"""Command-line interface: run the pipeline, inspect stages, validate projects.

Exit codes: 0 success, 2 precondition failure, 3 agent-contract failure,
4 adapter failure. A usage error (a missing or unknown option) also exits 2.
"""

import argparse
import sys

from .errors import AdapterError, ContractError, PipelineError, PreconditionError, StageError
from .pipeline import ProjectConfig, inspect_stage, run_pipeline, validate_project

EXIT_PRECONDITION = 2
EXIT_CONTRACT = 3
EXIT_ADAPTER = 4


def _exit_code(error: PipelineError) -> int:
    cause = error.cause if isinstance(error, StageError) else error
    if isinstance(cause, PreconditionError):
        return EXIT_PRECONDITION
    if isinstance(cause, AdapterError):
        return EXIT_ADAPTER
    if isinstance(cause, ContractError):
        return EXIT_CONTRACT
    return 1


def _fail(error: PipelineError) -> int:
    print(f"error: {error}", file=sys.stderr)
    return _exit_code(error)


def run(input_csv, title, config_path, output_dir, mock, no_cache, export) -> int:
    """Run the full pipeline and write every stage artifact to the project dir."""
    try:
        config = ProjectConfig.from_file(
            config_path, input_csv=input_csv, title=title, output_dir=output_dir,
            export=export, mock_mode=mock, no_cache=no_cache or None,
        )
        manifest = run_pipeline(config)
    except PipelineError as e:
        return _fail(e)
    for record in manifest.stages:
        names = ", ".join(a["path"] for a in record["artifacts"])
        print(f"{record['name']}: {record['status']} ({names})")
    print(f"project written to {config.output_dir}")
    return 0


def inspect(project_dir, stage_name) -> int:
    """Print a human-readable report for one persisted stage."""
    try:
        print(inspect_stage(project_dir, stage_name))
    except PipelineError as e:
        return _fail(e)
    return 0


def validate(project_dir) -> int:
    """Re-run all validators against the persisted artifacts."""
    try:
        report = validate_project(project_dir)
    except PipelineError as e:
        return _fail(e)
    for violation in report.violations:
        print(f"violation {violation}")
    for advisory in report.advisories:
        print(f"advisory {advisory}")
    if report.passing:
        print("all validators passed")
        return 0
    return EXIT_CONTRACT


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datareel",
        description="Turn a data table plus a title into an animated data-video project.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(function) -> argparse.ArgumentParser:
        sub = commands.add_parser(function.__name__, help=function.__doc__,
                                  description=function.__doc__)
        sub.set_defaults(handler=function)
        return sub

    sub = command(run)
    sub.add_argument("--input", dest="input_csv", required=True, metavar="PATH",
                     help="Input CSV file.")
    sub.add_argument("--title", metavar="TEXT",
                     help="Table title (defaults to the file stem).")
    sub.add_argument("--config", dest="config_path", required=True, metavar="PATH",
                     help="JSON config file (see README for the schema).")
    sub.add_argument("--output", dest="output_dir", metavar="PATH",
                     help="Override the configured output directory.")
    sub.add_argument("--mock", action=argparse.BooleanOptionalAction,
                     help="Force the scripted mock backend and mock tools on or off.")
    sub.add_argument("--no-cache", action="store_true",
                     help="Bypass the live-completion disk cache.")
    sub.add_argument("--export", choices=["video", "html", "both"],
                     help="Which final artifacts to produce.")

    sub = command(inspect)
    sub.add_argument("--project", dest="project_dir", required=True, metavar="PATH",
                     help="Project directory containing manifest.json.")
    sub.add_argument("--stage", dest="stage_name", required=True, metavar="TEXT",
                     help="Stage name to inspect.")

    sub = command(validate)
    sub.add_argument("--project", dest="project_dir", required=True, metavar="PATH",
                     help="Project directory containing manifest.json.")
    return parser


def main(argv=None) -> int:
    """Parse argv (default: sys.argv[1:]), run the command, return its exit code."""
    try:
        options = vars(_parser().parse_args(argv))
    except SystemExit as e:  # --help (0) or a usage error (2)
        return e.code
    del options["command"]
    return options.pop("handler")(**options)


if __name__ == "__main__":
    sys.exit(main())
