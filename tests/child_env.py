"""The environment a test hands to a child interpreter."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a child interpreter imports the package under test
    whether or not it is installed and whether or not the caller set
    ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
    return env
