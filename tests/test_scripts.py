"""Smoke tests for the experiment scripts: each runs end to end on a tiny
workload and writes its CSV, so library API changes cannot break them
silently."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from midcache.simharness import POLICY_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, args, rows", [
    ("update_sweep.py", ["--updates", "20", "40"],
     [(str(n), p) for n in (20, 40) for p in POLICY_NAMES]),
    ("granularity_sweep.py", ["--updates", "40", "--granularities", "6", "12", "24"],
     [(str(n), "vcover") for n in (24, 12, 6)]),
])
def test_sweep_writes_one_row_per_point(tmp_path, name, args, rows):
    out = tmp_path / "sweep.csv"
    subprocess.run([sys.executable, str(SCRIPTS / name), "--queries", "40", *args,
                    "--out", str(out)], check=True, capture_output=True, timeout=120)
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(r.get("n_updates") or r["n_objects"], r["policy"]) for r in table] == rows
    for r in table:
        assert int(r["total"]) == int(r["query_ship"]) + int(r["update_ship"]) + int(r["load"])
