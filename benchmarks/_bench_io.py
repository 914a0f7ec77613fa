"""Shared I/O for the machine-readable ``BENCH_*.json`` records.

Every benchmark that publishes a perf-trajectory record at the repo root
goes through :func:`append_trend`, which keeps a *history* of runs — one
timestamped entry appended per execution — instead of overwriting the
previous measurement.  That turns the committed JSON files into small
trend lines: a perf regression shows up as a drop between the last two
entries, not as a silently replaced number.

File shape::

    {"bench": "<name>", "runs": [{...record..., "timestamp": "..."}, ...]}
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

#: Repo root — the BENCH_*.json records live next to README.md.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cap on retained history so committed files stay reviewable.
MAX_RUNS = 50


def append_trend(path, record: dict) -> dict:
    """Append ``record`` (timestamped) to the trend file at ``path``.

    Returns the stored entry (the record plus its ``timestamp``).
    """
    path = Path(path)
    entry = dict(record)
    entry["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(entry)
    payload = {"bench": record.get("bench"), "runs": runs[-MAX_RUNS:]}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return entry
