"""Every committed benchmark evidence file (`BENCH_*.json` at the
repository root) parses and names its claim, the command that measured
it, and the accuracy the change kept."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_files_exist():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_evidence_file_names_claim_command_and_accuracy(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert record.get("claim")
    assert record.get("command")
    assert record.get("accuracy") or record.get("accuracy_kept")
