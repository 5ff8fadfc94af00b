"""The CI workflow runs every performance benchmark file.

The budget gates in ``benchmarks/bench_perf_*.py`` (disabled-path
overheads, the index speedup, the fan-out bound) run only where a CI job
names their file, so a file that no job names holds gates that never run.
The workflow is read as plain text: the dev extras carry no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def job_lines(text: str, job: str) -> list[str]:
    """The lines of ``jobs.<job>``, up to the next job or top-level key."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:")
    body = []
    for line in lines[start + 1:]:
        if re.match(r"^ {0,2}\S", line):
            break
        body.append(line)
    return body


def run_commands(lines: list[str]) -> list[str]:
    """Each ``run:`` value of a job, its continuation lines joined by spaces."""
    commands = []
    for i, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if match is None:
            continue
        indent = len(match.group(1))
        parts = [match.group(2)]
        for following in lines[i + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            parts.append(following.strip())
        commands.append(" ".join(parts))
    return commands


def test_bench_smoke_runs_every_perf_benchmark_file():
    commands = [
        command
        for command in run_commands(job_lines(WORKFLOW.read_text(), "bench-smoke"))
        if "-m pytest" in command
    ]
    assert len(commands) == 1, commands
    named = set(re.findall(r"benchmarks/(bench_perf_\w+\.py)", commands[0]))
    on_disk = {path.name for path in (ROOT / "benchmarks").glob("bench_perf_*.py")}
    assert on_disk, "no benchmarks/bench_perf_*.py found"
    assert sorted(on_disk - named) == [], "perf benchmark files that bench-smoke never runs"
