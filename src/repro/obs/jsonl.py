"""Torn-line-tolerant reading of append-only JSONL files.

The run ledger, the benchmark history and fleet telemetry snapshots
are written one whole line per ``O_APPEND`` write, so a crash leaves
at most one torn trailing line.  Their readers share this one parser,
which skips such lines instead of failing the whole file.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple


def read_jsonl(path: str) -> Tuple[List[Dict], int]:
    """The JSON-object lines of ``path`` in file order, and the skip count.

    Blank lines are ignored; a line that is not valid JSON, or not a
    JSON object, is skipped and counted.

    Raises:
        OSError: the file cannot be opened (each caller decides what a
            missing file means).
    """
    records: List[Dict] = []
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped
