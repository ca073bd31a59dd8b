"""The shipped fixtures/ tree is exactly what scripts/make_fixture.py writes.

The benchmark builds its inputs from the script while the acceptance tests
read fixtures/, so the two copies must not drift apart.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"


def tree(root: Path, skip: frozenset[str] = frozenset()) -> dict[str, bytes]:
    files = (path for path in sorted(root.rglob("*")) if path.is_file())
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in files
        if path.relative_to(root).parts[0] not in skip
    }


def test_script_regenerates_the_shipped_fixture(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_fixture.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    # out/ is where a run of fixtures/config.yaml writes by default; git ignores it.
    generated, shipped = tree(tmp_path), tree(FIXTURE_DIR, skip=frozenset({"out"}))
    assert sorted(generated) == sorted(shipped)
    differing = [name for name in shipped if generated[name] != shipped[name]]
    assert not differing, f"differs from fixtures/: {differing}"
