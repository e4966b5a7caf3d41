"""Tests for the tracked benchmark records (BENCH_<id>.json)."""

from __future__ import annotations

import json

import pytest

from repro.util.benchrec import (
    MAX_ENTRIES,
    SCHEMA_VERSION,
    append_entry,
    bench_path,
    load_bench_file,
    make_entry,
    peak_rss_kb,
    validate_bench_file,
)


class TestEntries:
    def test_make_entry_fields(self):
        entry = make_entry(n=48, rounds=2, seconds_per_round=0.5)
        assert entry["n"] == 48
        assert entry["rounds"] == 2
        assert entry["seconds_per_round"] == 0.5
        assert entry["peak_rss_kb"] > 0
        assert entry["created"].endswith("Z")
        assert "label" not in entry

    def test_label_and_created_override(self):
        entry = make_entry(
            n=1, rounds=1, seconds_per_round=0.1,
            created="2026-01-01T00:00:00Z", label="baseline",
        )
        assert entry["created"] == "2026-01-01T00:00:00Z"
        assert entry["label"] == "baseline"

    def test_peak_rss_positive_kib(self):
        rss = peak_rss_kb()
        assert 0 < rss < 1 << 30  # KiB, not bytes


class TestAppendAndValidate:
    def test_roundtrip(self, tmp_path):
        entry = make_entry(n=8, rounds=4, seconds_per_round=0.25)
        path = append_entry(tmp_path, "micro", entry)
        assert path == bench_path(tmp_path, "micro")
        data = validate_bench_file(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["id"] == "micro"
        assert data["entries"] == [entry]

    def test_appends_in_order(self, tmp_path):
        for i in range(3):
            append_entry(
                tmp_path, "b", make_entry(n=i, rounds=1, seconds_per_round=i)
            )
        data = load_bench_file(bench_path(tmp_path, "b"))
        assert [e["n"] for e in data["entries"]] == [0, 1, 2]

    def test_trims_to_max_entries(self, tmp_path):
        for i in range(MAX_ENTRIES + 7):
            append_entry(
                tmp_path, "b", make_entry(n=i, rounds=1, seconds_per_round=0.1)
            )
        data = validate_bench_file(bench_path(tmp_path, "b"))
        assert len(data["entries"]) == MAX_ENTRIES
        assert data["entries"][-1]["n"] == MAX_ENTRIES + 6  # newest kept

    def test_id_mismatch_rejected(self, tmp_path):
        append_entry(tmp_path, "a", make_entry(n=1, rounds=1, seconds_per_round=1))
        bad = bench_path(tmp_path, "b")
        bad.write_text(bench_path(tmp_path, "a").read_text())
        with pytest.raises(ValueError, match="holds id"):
            append_entry(tmp_path, "b", make_entry(n=1, rounds=1, seconds_per_round=1))

    def test_schema_mismatch_rejected(self, tmp_path):
        path = bench_path(tmp_path, "x")
        path.write_text(json.dumps({"schema": 99, "id": "x", "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            validate_bench_file(path)

    def test_missing_field_rejected(self, tmp_path):
        entry = make_entry(n=1, rounds=1, seconds_per_round=1.0)
        del entry["peak_rss_kb"]
        path = bench_path(tmp_path, "x")
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION, "id": "x", "entries": [entry]})
        )
        with pytest.raises(ValueError, match="peak_rss_kb"):
            validate_bench_file(path)

    def test_wrong_type_rejected(self, tmp_path):
        entry = make_entry(n=1, rounds=1, seconds_per_round=1.0)
        entry["n"] = True  # bools are ints in Python; schema says no
        with pytest.raises(ValueError, match="wrong type"):
            append_entry(tmp_path, "x", entry)

    def test_negative_measurement_rejected(self, tmp_path):
        entry = make_entry(n=1, rounds=1, seconds_per_round=-0.5)
        with pytest.raises(ValueError, match="negative"):
            append_entry(tmp_path, "x", entry)

    def test_work_counter_roundtrips_and_must_be_a_count(self, tmp_path):
        entry = make_entry(n=128, rounds=2, seconds_per_round=0.1, repro_calls_per_round=9)
        data = validate_bench_file(append_entry(tmp_path, "x", entry))
        assert data["entries"][0]["repro_calls_per_round"] == 9
        entry["repro_calls_per_round"] = 1.5
        with pytest.raises(ValueError, match="repro_calls_per_round"):
            append_entry(tmp_path, "x", entry)


class TestRepoRecords:
    def test_committed_bench_files_are_valid(self):
        from pathlib import Path

        results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        files = sorted(results.glob("BENCH_*.json"))
        assert files, "expected committed BENCH_*.json records"
        for path in files:
            data = validate_bench_file(path)
            assert data["entries"], f"{path} has no entries"

    def test_micro_benchmark_history_records_speedup(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "results"
            / "BENCH_micro_protocol_rounds.json"
        )
        data = validate_bench_file(path)
        first, second = data["entries"][0], data["entries"][1]
        assert first["label"].startswith("baseline")
        assert first["seconds_per_round"] / second["seconds_per_round"] >= 2.0
