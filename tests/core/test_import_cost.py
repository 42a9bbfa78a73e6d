"""Importing the campaign loop must not pull in modules no campaign uses."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_campaign_import_leaves_networkx_unloaded():
    # a fresh interpreter: this test process may have imported it already
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.core.continuous; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
