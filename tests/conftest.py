"""Let subprocesses started by the tests import the package under test.

pytest puts src/ on its own sys.path (see pyproject.toml); tests that run
``python -m hopfcon`` need it on PYTHONPATH as well.
"""

import os
from pathlib import Path

import hopfcon

_SRC = str(Path(hopfcon.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
