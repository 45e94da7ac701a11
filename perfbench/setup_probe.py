"""Set-up probe: start, import hhverify, run one campaign trial, say so.

run.py launches this script several times and times each launch from process
start to the ``ready`` line, which covers the interpreter, ``import
hhverify``, the quadrature rule cache and the LAPACK warm-up. The arguments
are a ``verify`` command line.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hhverify import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(f"ready {code}", flush=True)
