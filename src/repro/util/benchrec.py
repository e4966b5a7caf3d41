"""Tracked benchmark records (``BENCH_<id>.json``).

Every benchmark appends one entry per run to a small JSON file committed
under ``benchmarks/results/``, so performance history travels with the repo
and regressions show up in diffs.  One file per benchmark id::

    {
      "schema": 1,
      "id": "micro_protocol_rounds",
      "entries": [
        {"created": "2026-08-06T12:00:00Z", "n": 48, "rounds": 2,
         "seconds_per_round": 0.2662, "peak_rss_kb": 120832,
         "label": "optional free-form tag"},
        ...
      ]
    }

``seconds_per_round`` is wall-time divided by the simulated rounds per
benchmark iteration; ``peak_rss_kb`` is the process peak resident set in
KiB (``ru_maxrss``; measured via :mod:`resource`, so no extra dependency).
Files keep the newest :data:`MAX_ENTRIES` entries per grid point
``(n, workers)`` (``workers`` defaults to 1) — old history rolls off
instead of growing without bound, and a burst of rows at one point never
pushes another point out of the file.
"""

from __future__ import annotations

import json
import resource
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from repro.config import env_flag

__all__ = [
    "SCHEMA_VERSION",
    "MAX_ENTRIES",
    "RECORD_ENV",
    "recording_enabled",
    "bench_path",
    "peak_rss_kb",
    "make_entry",
    "append_entry",
    "load_bench_file",
    "validate_bench_file",
]

SCHEMA_VERSION = 1
MAX_ENTRIES = 50

#: Environment opt-in for persisting benchmark entries.
RECORD_ENV = "REPRO_BENCH_RECORD"


def recording_enabled(label: str | None = None) -> bool:
    """Whether a benchmark run should persist its entry.

    BENCH files are committed history: a casual ``pytest benchmarks/``
    while iterating on a change must not grow them with throwaway noise.
    An entry is persisted only on explicit intent — the caller passed a
    descriptive ``label``, or the run was started with ``REPRO_BENCH_RECORD=1``.
    """
    return label is not None or env_flag(RECORD_ENV)

#: Required per-entry fields and their types (``label``, ``workers`` and
#: the per-round counters of :data:`_COUNTERS` are optional; ``workers`` is
#: absent on records that predate the sharded engine and means 1).
_ENTRY_FIELDS: dict[str, type | tuple[type, ...]] = {
    "created": str,
    "n": int,
    "rounds": int,
    "seconds_per_round": (int, float),
    "peak_rss_kb": int,
}

#: Optional non-negative integer counters, each per simulated round.
_COUNTERS = (
    "exchange_bytes_pipe",
    "exchange_bytes_shm",
    "msgs_per_round",
    "repro_calls_per_round",
)


def bench_path(directory: Path | str, bench_id: str) -> Path:
    """The ``BENCH_<id>.json`` path for a benchmark id."""
    return Path(directory) / f"BENCH_{bench_id}.json"


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Linux reports ``ru_maxrss`` in KiB already; macOS reports bytes — the
    heuristic below normalises (a real process peak is far above 1 GiB when
    expressed in bytes, far below when in KiB).
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rss > 1 << 30:  # plausibly bytes (macOS)
        rss //= 1024
    return int(rss)


def make_entry(
    *,
    n: int,
    rounds: int,
    seconds_per_round: float,
    created: str | None = None,
    label: str | None = None,
    workers: int | None = None,
    exchange_bytes_pipe: int | None = None,
    exchange_bytes_shm: int | None = None,
    msgs_per_round: int | None = None,
    repro_calls_per_round: int | None = None,
) -> dict:
    """One schema-valid benchmark entry (RSS sampled at call time).

    ``exchange_bytes_pipe`` / ``exchange_bytes_shm`` are *per simulated
    round* (like ``seconds_per_round``): the shard exchange's control-plane
    and shared-memory traffic on sharded runs.  Omitted on serial rows.
    ``msgs_per_round`` is the message copies sent per timed round, for rows
    whose cost is to be read per message (fault mixes change the traffic).
    ``repro_calls_per_round`` is a deterministic work counter: calls to the
    package's own functions per round (see ``benchmarks/bench_scaling.py``).
    """
    entry = {
        "created": created
        or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "n": int(n),
        "rounds": int(rounds),
        "seconds_per_round": float(seconds_per_round),
        "peak_rss_kb": peak_rss_kb(),
    }
    if label is not None:
        entry["label"] = str(label)
    if workers is not None:
        entry["workers"] = int(workers)
    counters = (
        exchange_bytes_pipe,
        exchange_bytes_shm,
        msgs_per_round,
        repro_calls_per_round,
    )
    for name, value in zip(_COUNTERS, counters):
        if value is not None:
            entry[name] = int(value)
    return entry


def _grid_point(entry: dict) -> tuple[int, int]:
    return entry["n"], entry.get("workers", 1)


def append_entry(directory: Path | str, bench_id: str, entry: dict) -> Path:
    """Append ``entry`` to ``BENCH_<bench_id>.json``, trimming old history.

    Only the entry's own grid point is trimmed, to its newest
    :data:`MAX_ENTRIES`.

    Creates the file (and directory) if missing; an existing file must be
    schema-valid, so a corrupted record fails loudly instead of silently
    restarting history.
    """
    path = bench_path(directory, bench_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        data = validate_bench_file(path)
        if data["id"] != bench_id:
            raise ValueError(f"{path}: holds id {data['id']!r}, not {bench_id!r}")
    else:
        data = {"schema": SCHEMA_VERSION, "id": bench_id, "entries": []}
    _validate_entry(entry, where=f"new entry for {bench_id}")
    entries = data["entries"] + [entry]
    point = _grid_point(entry)
    same = [i for i, e in enumerate(entries) if _grid_point(e) == point]
    dropped = set(same[:-MAX_ENTRIES])
    data["entries"] = [e for i, e in enumerate(entries) if i not in dropped]
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def load_bench_file(path: Path | str) -> dict:
    """Parse a BENCH file without validation (raises on malformed JSON)."""
    return json.loads(Path(path).read_text())


def validate_bench_file(path: Path | str) -> dict:
    """Parse and schema-check one BENCH file; returns the parsed payload."""
    path = Path(path)
    data = load_bench_file(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {data.get('schema')!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(data.get("id"), str) or not data["id"]:
        raise ValueError(f"{path}: missing benchmark id")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: entries must be a list")
    for i, entry in enumerate(entries):
        _validate_entry(entry, where=f"{path} entry {i}")
    for (n, workers), count in Counter(map(_grid_point, entries)).items():
        if count > MAX_ENTRIES:
            raise ValueError(
                f"{path}: {count} entries at n={n}, workers={workers} > {MAX_ENTRIES}"
            )
    return data


def _validate_entry(entry: object, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: entry must be an object")
    for name, types in _ENTRY_FIELDS.items():
        if name not in entry:
            raise ValueError(f"{where}: missing field {name!r}")
        if not isinstance(entry[name], types) or isinstance(entry[name], bool):
            raise ValueError(f"{where}: field {name!r} has wrong type")
    if entry["seconds_per_round"] < 0 or entry["n"] < 0 or entry["rounds"] < 0:
        raise ValueError(f"{where}: negative measurement")
    if "label" in entry and not isinstance(entry["label"], str):
        raise ValueError(f"{where}: label must be a string")
    if "workers" in entry and (
        not isinstance(entry["workers"], int)
        or isinstance(entry["workers"], bool)
        or entry["workers"] < 1
    ):
        raise ValueError(f"{where}: workers must be a positive int")
    for name in _COUNTERS:
        if name in entry and (
            not isinstance(entry[name], int)
            or isinstance(entry[name], bool)
            or entry[name] < 0
        ):
            raise ValueError(f"{where}: {name} must be a non-negative int")
