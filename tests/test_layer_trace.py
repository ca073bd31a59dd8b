"""Every name perfbench/layer_trace.py wraps still exists in the package.

The tracer resolves all its targets when it installs, before the command
runs, so even the short ``validate-data`` lists a renamed or deleted
function under ``missing``, where the benchmark would only count it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves(tmp_path):
    spans = tmp_path / "spans.json"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "layer_trace.py"),
            str(spans),
            "validate-data",
            "-c",
            str(ROOT / "fixtures" / "config.yaml"),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans.read_text(encoding="utf-8"))
    assert trace["missing"] == []
    assert trace["observer_errors"] == []
