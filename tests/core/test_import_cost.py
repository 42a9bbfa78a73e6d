"""Importing the campaign loop must not pull in modules no campaign uses."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter: this test process may
    have imported the modules already."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_campaign_import_leaves_networkx_unloaded():
    assert _fresh_interpreter(
        "import sys, repro.core.continuous; "
        "print('networkx' in sys.modules)") == "False"


def test_saxpy_stream_import_leaves_amg_unloaded():
    # AMG pulls in scipy.sparse; saxpy and STREAM campaigns never use it
    assert _fresh_interpreter(
        "import sys, repro.benchmarks.saxpy, repro.benchmarks.stream; "
        "print('repro.benchmarks.amg' in sys.modules, 'scipy' in sys.modules)"
    ) == "False False"


def test_amg_still_importable_by_name():
    assert _fresh_interpreter(
        "import repro.benchmarks; from repro.benchmarks import amg; "
        "print(repro.benchmarks.amg is amg, hasattr(amg, 'solver'))"
    ) == "True True"
