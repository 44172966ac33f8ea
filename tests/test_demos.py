import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_exports import sketch_blocks

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, for the two that print only integers and
# exact exponents; the completions demo prints floats that follow the
# platform's libm, so only its exit code is checked
DEMO_STDOUT = {
    "coefficient_tables.py":
        "f684526898c7d5617b8d22bc7cdd60d6c26254024a024d4e67c18f46cc908ed1",
    "completions_and_modularity.py": None,
    "mock_theta_identities.py":
        "e1728789ddb250e44711e07645818bf7281da9ec076f03c552e37d2e3e0b1338",
}


@pytest.mark.parametrize("demo", DEMO_STDOUT)
def test_demo_runs(demo):
    # each demo runs in a fresh interpreter against the source tree
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, cwd=ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    if DEMO_STDOUT[demo] is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]


def test_library_sketch_runs():
    # README's library sketch, each python block in turn, in a fresh
    # interpreter against the source tree: it runs as printed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in sketch_blocks():
        proc = subprocess.run([sys.executable, "-c", block], env=env,
                              cwd=ROOT, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr.decode()) == (0, "")


def test_workflow_names_existing_tests():
    # every test that the workflow runs by its node id is a test function
    # of the file it names: a renamed or deleted test fails here, not only
    # on CI
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    node_ids = re.findall(r'"(tests/\w+\.py)::(\w+)', workflow)
    assert len(node_ids) >= 10
    for path, name in node_ids:
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, \
            f"{path}::{name}"
