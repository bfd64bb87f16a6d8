"""Start a child interpreter that imports sparsecp from this checkout's src."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd, timeout=300, env=None) -> subprocess.CompletedProcess:
    """Run `python *args` in cwd with src first on PYTHONPATH, capturing text output;
    env holds variables to set on top of this process's."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
