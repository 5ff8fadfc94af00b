"""One operation family in a process of its own, driven by ``run.py``.

``python3 perfbench/runner.py --family F --seed S [--smoke] [--setup-only]``

The process sets its family up, writes ``{"ready": true}`` on its
channel (the standard output it was started with), then answers one JSON
command per line read from standard input:

``{"cmd": "prepare"}``          warm up, and compute what the output
                                checks compare against
``{"cmd": "step", "index": i}`` run one step of the family
``{"cmd": "finish"}``           return the tally, the samples and the
                                process's peak resident memory, then exit

With ``--setup-only`` it exits right after ``ready``: one more set-up
sample for ``setup_s``.

Set-up is what a user's process pays before its first operation: the
CLI's imports, and for ``sql`` also simulating both chains, building the
four tables, ``ANALYZE`` and the two sorted indexes.

Each family runs apart so that a report forks its worker pools from a
process that holds what ``repro report`` holds, not the sql catalog, and
so that the process's peak resident memory is its family's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402

FAMILIES = ("paper", "monitor", "sql")

#: ``--smoke``: short replays and one small sql step of every kind, for self-tests.
SMOKE_BLOCKS = {"eth": 12_000, "btc": 3_000}
SMOKE_SQL_STEPS = ({"point": 25, "join": 1, "btc_groupby": 1, "eth_groupby": 1, "eth_distinct": 1},)


def untimed(kind: str, label: str) -> None:
    """Operation marker of untraced runs: nothing to record."""


def monitor_blocks(smoke: bool) -> dict[str, int | None]:
    """Blocks each monitor command replays (None: the whole year)."""
    if smoke:
        return dict(SMOKE_BLOCKS)
    return {key: run[2] for key, run in families.MONITOR_RUNS.items()}


def expectations(chains: dict, blocks: dict[str, int | None]) -> dict:
    """The monitor summaries the offline sliding sweep predicts."""
    return {
        key: families.monitor_expectation(chains[key], window, blocks[key])
        for key, (_, window, _) in families.MONITOR_RUNS.items()
    }


class Family:
    """One family's objects, set up in this process."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        import repro.cli  # noqa: F401  (the CLI's imports are part of set-up)

        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.tally = families.Tally()
        if name == "sql":
            self.world = families.World(seed)
        self.ops = None

    def prepare(self) -> None:
        """Warm the family up and compute what its checks compare against."""
        if self.name == "paper":
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            self.ops = families.Paper(self.seed, out_dir, untimed)
            self.ops.warm_up()
        elif self.name == "monitor":
            from repro.analysis.study import DecentralizationStudy

            study = DecentralizationStudy(seed=self.seed)
            blocks = monitor_blocks(self.smoke)
            chains = {key: study.chain(key) for key in ("btc", "eth")}
            self.ops = families.Monitor(self.seed, expectations(chains, blocks), untimed, blocks)
        else:
            steps = SMOKE_SQL_STEPS if self.smoke else families.SQL_STEPS
            self.ops = families.Sql(self.world, self.seed, untimed, steps)
            self.ops.warm_up()

    def samples(self) -> dict[str, list[float]]:
        """Timed samples by setting, chain or query kind."""
        if self.name == "sql":
            return self.ops.ms
        return self.ops.seconds

    def finish(self) -> dict:
        result = {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "reasons": self.tally.reasons,
            "samples": self.samples(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if self.name == "monitor":
            result["blocks"] = {key: value[0] for key, value in self.ops.expected.items()}
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The channel keeps the original standard output; anything else the
    # process or its pool workers print on file descriptor 1 goes to
    # standard error instead.
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    family = Family(args.family, args.seed, args.smoke)
    channel.write(json.dumps({"ready": True}) + "\n")
    if args.setup_only:
        channel.flush()
        os._exit(0)  # skip tearing the catalog down: the sample is taken
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "prepare":
            family.prepare()
            reply: dict = {"ok": True}
        elif command["cmd"] == "step":
            family.ops.step(command["index"], family.tally)
            reply = {"ok": True}
        else:
            channel.write(json.dumps(family.finish()) + "\n")
            return 0
        channel.write(json.dumps(reply) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
