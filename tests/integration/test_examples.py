"""Examples print exactly what they printed when their output was pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(__file__).resolve().parents[2]

VERIFY_STANDALONE = """\
1. Batfish substitute
------------------------------------------------------------------------
parse warnings: 0
  session edge1 -> 1.0.0.2: established
  session edge2 -> 1.0.0.1: established
  edge2's RIB:
    10.1.0.0/16 via edge1 communities [100:7]
    10.2.0.0/16 via local communities []
  TO_PEER permits e.g.: prefix 203.0.113.0/24, as-path [], communities {}, \
med 0, local-pref 100

2. Campion differ (Cisco original vs its Juniper translation)
------------------------------------------------------------------------
reference translation: 0 structural mismatch(es), 0 attribute difference(s), \
0 policy behavior difference(s)
after dropping the export policy: 1 structural mismatch(es), 0 attribute \
difference(s), 0 policy behavior difference(s)
  first finding: In the original configuration, there is an export route map \
for bgp neighbor 2.3.4.5, but in the translation, there is no corresponding \
export route map

3. Lightyear local invariants on the 7-router star
------------------------------------------------------------------------
12 local invariants derived; e.g.:
  on R1, every route accepted from neighbor 1.0.0.2 must carry the community \
100:1
violations on the reference configs: 0
after breaking FILTER_COMM_OUT_R2: 1 violation(s)
  The route-map FILTER_COMM_OUT_R2 permits routes that have the community \
101:1. However, they should be denied.
"""


def _run_example(name, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, str(_ROOT / "examples" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_verify_standalone_transcript(tmp_path):
    result = _run_example("verify_standalone.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == VERIFY_STANDALONE


# Every other example must at least run to a zero exit, so deleting a
# name one of them imports fails the suite.
_SMOKE = sorted(
    path.name
    for path in (_ROOT / "examples").glob("*.py")
    if path.name != "verify_standalone.py"
)


@pytest.mark.parametrize("name", _SMOKE)
def test_example_runs(name, tmp_path):
    result = _run_example(name, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
