"""Four short runs write exactly the bytes recorded in tests/fingerprints.json.

Criterion 6 only checks that two runs of one checkout agree; this checks
that a change meant to keep outputs byte-identical really does. A change
that alters outputs on purpose regenerates the file with
``python scripts/fingerprints.py --write`` and says which hashes moved.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "_fingerprints_script", ROOT / "scripts" / "fingerprints.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_committed_fingerprints(tmp_path):
    script = _script()
    committed = json.loads(script.FINGERPRINTS.read_text(encoding="utf-8"))
    lines = script.differences(committed["runs"], script.fingerprints(tmp_path))
    made = {key: committed[key] for key in script.versions()}
    assert not lines, (
        f"outputs differ from the fingerprints made with {made} (here {script.versions()}):\n"
        + "\n".join(lines)
    )
