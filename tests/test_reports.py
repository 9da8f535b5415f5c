"""The committed experiment reports regenerate byte for byte."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, report, args",
    [
        ("robustness_sweep.py", "robustness_sweep.json", ["--words", "60"]),
        ("compose_identity.py", "compose_identity.json", []),
        ("expansion_scan.py", "expansion_scan.json", []),
    ],
)
def test_committed_report_regenerates(tmp_path, script, report, args):
    out = tmp_path / report
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        check=True,
        capture_output=True,
        env=env,
    )
    assert out.read_bytes() == (ROOT / "out" / report).read_bytes()
