"""Golden alert stream: every lifecycle event of one seeded monitor run.

The command below replays the whole seed-2019 Bitcoin year through the
streaming monitor with two threshold rules and one anomaly rule, logging
every alert transition as JSONL::

    repro --seed 2019 monitor --chain bitcoin --alert-above entropy=4.5 \\
        --alert-below nakamoto=4 --anomaly gini --alert-log FILE

The test pins the run's evaluation count and each event's ``rule``,
``state``, ``value`` and ``message`` (the wall-clock ``ts`` is dropped).
Progress rules (``lag_blocks``) stay out of the command: the order in
which rules of different kinds report within one evaluation is not part
of the contract.

The expected values live in ``alert_golden.json`` next to this file.
After a deliberate change to the alert stream, regenerate it with::

    PYTHONPATH=src python tests/serve/test_alert_golden.py

and review the diff: it shows every event the change moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).with_name("alert_golden.json")

ARGV = [
    "--seed", "2019", "monitor", "--chain", "bitcoin",
    "--alert-above", "entropy=4.5", "--alert-below", "nakamoto=4",
    "--anomaly", "gini",
]

#: Event fields the golden file pins.
FIELDS = ("rule", "state", "value", "message")


def observe(log_path: Path, output: str) -> dict:
    """The evaluation count and the pinned fields of every logged event."""
    summary = re.search(r"^monitored \d+ blocks: (\d+) evaluations", output, re.M)
    assert summary is not None, output
    lines = log_path.read_text(encoding="utf-8").splitlines()
    events = [{key: json.loads(line)[key] for key in FIELDS} for line in lines]
    return {"evaluations": int(summary[1]), "events": events}


def run_command(log_path: Path) -> str:
    """Run the golden command in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*ARGV, "--alert-log", str(log_path)])
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict:
    log_path = tmp_path_factory.mktemp("alert_golden") / "alerts.jsonl"
    return observe(log_path, run_command(log_path))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_evaluation_count(observed, golden):
    assert observed["evaluations"] == golden["evaluations"]


def test_event_stream(observed, golden):
    assert len(observed["events"]) == len(golden["events"])
    for index, (got, want) in enumerate(zip(observed["events"], golden["events"])):
        assert (got["rule"], got["state"], got["message"]) == (
            want["rule"], want["state"], want["message"]
        ), f"event {index}"
        # numpy's vectorised log may differ in the last ulp between CPUs.
        assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=1e-12), (
            f"event {index}"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "alerts.jsonl"
        data = observe(path, run_command(path))
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data['events'])} events to {GOLDEN_PATH}", file=sys.stderr)
