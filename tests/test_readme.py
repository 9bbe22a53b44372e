"""The README's "Invariants" table names tests that exist: tier-1 collects
every node id it gives."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _named_ids() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\n## Invariants\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(tests/[\w/]+\.py::[\w:]+)`", table)


def test_every_invariant_names_a_collected_test():
    ids = _named_ids()
    assert len(ids) >= 10
    listed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert listed.returncode == 0, listed.stdout + listed.stderr
    collected = {line.split("[", 1)[0] for line in listed.stdout.splitlines()}
    assert [i for i in ids if i not in collected] == []
