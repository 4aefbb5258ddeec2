"""Make the checkout's package importable in the CLI subprocesses the tests
start, so that a bare ``python -m pytest`` from the root works without
PYTHONPATH (``pythonpath`` in pyproject.toml covers this process only)."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
