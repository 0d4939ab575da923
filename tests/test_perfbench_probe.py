"""The benchmark's traced probe runs against the library as it stands.

``perfbench/tracing.py`` wraps the public layer functions by name and binds
some of their arguments by name (``pair_inner_matrix``'s ``denominators``
and ``x_min``), so a signature change that breaks the benchmark shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPANS = {
    "pair_inner_matrix",
    "build_gram",
    "decay_report",
    "truncation_suite",
    "zeta_half_grid",
    "mellin_closed_grid",
    "mellin_direct",
    "gram_to_csv",
    "gram_to_json",
    "shells_to_csv",
    "decay_report_to_json",
    "truncation_suite_to_json",
}


def test_tracing_probe_runs_and_records_every_layer(tmp_path):
    spans, out = tmp_path / "spans.json", tmp_path / "probe"
    out.mkdir()  # the probe writes into DIR but does not create it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans),
            "--trace-id", "0", "--probe", str(out)]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    assert SPANS <= names
