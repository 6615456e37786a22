"""Let the ``python -m movdom`` subprocesses that some tests start import
the package from this checkout, as pytest's own ``pythonpath`` does for
the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
