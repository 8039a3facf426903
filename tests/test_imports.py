import os
import subprocess
import sys

import gratescat

# Every public name of a freshly imported ``gratescat``, its submodules
# included.  Adding or dropping an export means editing this list.
PUBLIC_API = [
    "DipoleDensity", "LayerField", "MediumProfile", "ModalBasis", "ModeSet",
    "MomentTable", "PlaneWaveIncidence", "Quasimomentum", "RayleighField",
    "ReconstructionResult", "SLProblem", "SLSpectrum", "Slab", "TangentialField",
    "TransverseFactor", "TrigPoly", "apply_R", "assemble_dtn", "build_modeset", "build_u",
    "check_asymptotics", "efficiencies", "energy_forms", "errors", "extract_moments",
    "forward", "green_eval", "greens", "helmholtz_residual", "incident_from_density",
    "inner", "inverse", "lattice", "moment_kernels", "rayleigh_dtn", "reciprocity_gap",
    "reconstruct_difference", "separable", "solve_layer_modes", "solve_qpbvp",
    "solve_scattering", "solve_sl", "sturm", "tables",
]


def _fresh_stdout(code):
    """stdout of ``code`` run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(gratescat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=120).stdout


def test_import_loads_no_public_scipy_subpackage_but_linalg():
    # scipy.optimize or scipy.sparse.linalg would add their import time to
    # every process that imports the package
    code = ("import sys, scipy, gratescat; "
            "print(*sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}"
            " & set(scipy.__all__)))")
    assert _fresh_stdout(code).split() == ["linalg"]


def test_public_api_is_pinned():
    # a new interpreter, because importing gratescat.cli elsewhere in the
    # session adds ``cli`` to the package namespace
    code = "import gratescat; print(*sorted(n for n in dir(gratescat) if not n.startswith('_')))"
    assert _fresh_stdout(code).split() == sorted(PUBLIC_API)
