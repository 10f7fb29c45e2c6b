"""Make ``src/`` importable for the ``python -m wirecat.cli`` subprocesses.

``pythonpath`` in ``pyproject.toml`` puts ``src/`` on ``sys.path`` of the test
process only; child processes see ``PYTHONPATH``, so it is extended here and a
bare ``pytest`` works from a checkout without installing the package.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
