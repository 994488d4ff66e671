"""Command-line interface: run the pipeline, inspect stages, validate projects.

Exit codes: 0 success, 2 precondition failure, 3 agent-contract failure,
4 adapter failure.
"""

import sys

import click

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


@click.group()
def main():
    """Turn a data table plus a title into an animated data-video project."""


@main.command()
@click.option("--input", "input_csv", required=True, type=click.Path(), help="Input CSV file.")
@click.option("--title", default=None, help="Table title (defaults to the file stem).")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="JSON config file (see README for the schema).")
@click.option("--output", "output_dir", default=None, type=click.Path(),
              help="Override the configured output directory.")
@click.option("--mock/--no-mock", "mock", default=None,
              help="Force the scripted mock backend and mock tools on or off.")
@click.option("--no-cache", is_flag=True, default=False,
              help="Bypass the live-completion disk cache.")
@click.option("--export", type=click.Choice(["video", "html", "both"]), default=None,
              help="Which final artifacts to produce.")
def run(input_csv, title, config_path, output_dir, mock, no_cache, export):
    """Run the full pipeline and write every stage artifact to the project dir."""
    try:
        config = ProjectConfig.from_file(
            config_path, input_csv=input_csv, title=title, output_dir=output_dir,
            export=export, mock_mode=mock, no_cache=no_cache or None,
        )
        manifest = run_pipeline(config)
    except PipelineError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(_exit_code(e))
    for record in manifest.stages:
        names = ", ".join(a["path"] for a in record["artifacts"])
        click.echo(f"{record['name']}: {record['status']} ({names})")
    click.echo(f"project written to {config.output_dir}")


@main.command()
@click.option("--project", "project_dir", required=True, type=click.Path(),
              help="Project directory containing manifest.json.")
@click.option("--stage", "stage_name", required=True, help="Stage name to inspect.")
def inspect(project_dir, stage_name):
    """Print a human-readable report for one persisted stage."""
    try:
        click.echo(inspect_stage(project_dir, stage_name))
    except PipelineError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(_exit_code(e))


@main.command()
@click.option("--project", "project_dir", required=True, type=click.Path(),
              help="Project directory containing manifest.json.")
def validate(project_dir):
    """Re-run all validators against the persisted artifacts."""
    try:
        report = validate_project(project_dir)
    except PipelineError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(_exit_code(e))
    for violation in report.violations:
        click.echo(f"violation {violation}")
    for advisory in report.advisories:
        click.echo(f"advisory {advisory}")
    if report.passing:
        click.echo("all validators passed")
    else:
        sys.exit(EXIT_CONTRACT)


if __name__ == "__main__":
    main()
