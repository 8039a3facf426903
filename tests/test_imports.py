import os
import subprocess
import sys

import gratescat


def test_import_loads_no_public_scipy_subpackage_but_linalg():
    # scipy.optimize or scipy.sparse.linalg would add their import time to
    # every process that imports the package
    code = ("import sys, scipy, gratescat; "
            "print(*sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}"
            " & set(scipy.__all__)))")
    src = os.path.dirname(os.path.dirname(gratescat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert out.stdout.split() == ["linalg"]
