"""Run a small scenario campaign across topology families.

Usage::

    python examples/run_campaign.py [workers]

Enumerates a (family × size × seed) grid, fans it out over a worker
pool while streaming results to a resumable JSONL journal, and prints
the per-scenario rows plus per-family aggregates — the programmatic
equivalent of::

    python -m repro campaign --families star,chain,ring,mesh \
        --sizes 4,6 --seeds 2 --workers 4 --journal campaign_journal.jsonl

Re-running after an interruption picks up where the journal left off
(``resume=True`` below).  The rerun writes the same
``campaign_results.json`` byte for byte, but its printed output can
differ.  The campaign line shows wall-clock time, and the ``symbolic
cache``, ``route datapath`` and per-cache hit lines count work inside
each worker's memos, which depends on which worker draws which unit.
"""

import sys

from repro.experiments.campaign import build_grid, run_campaign


def main() -> int:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    grid = build_grid(
        families=["star", "chain", "ring", "mesh", "dumbbell"],
        sizes=[4, 6],
        seeds=2,
    )
    print(f"{len(grid)} scenarios on {workers} worker(s)\n")
    summary = run_campaign(
        grid,
        workers=workers,
        journal_path="campaign_journal.jsonl",
        resume=True,
    )
    print(summary.render())
    path = summary.write_json("campaign_results.json")
    print(f"\nwrote {path}")
    return 1 if summary.errors else 0


if __name__ == "__main__":
    sys.exit(main())
