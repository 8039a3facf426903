import ast
import inspect
import os
import subprocess
import sys
import types

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

# Parameter names and defaults of every exported function and class
# constructor, the classmethod constructors included.  Adding or dropping a
# parameter, or changing a default, means editing this table.
SIGNATURES = {
    "DipoleDensity": "(modeset, height, coeffs)",
    "LayerField": "(profile, stack, top_amplitudes)",
    "MediumProfile": "(slabs)",
    "MediumProfile.from_coeffs": "(coeffs, height)",
    "ModalBasis": "(modeset, W, V, gamma, Qinv, cond, E_inv=None, X_inv=None, G=None, s1=None)",
    "ModeSet": "(k, alpha, N, n1, n2, alpha_n, beta, propagating)",
    "MomentTable": "(L, m_schedule, entries=<factory>, estimates=<factory>, "
                   "fit_residuals=<factory>)",
    "PlaneWaveIncidence": "(p, d, k)",
    "PlaneWaveIncidence.from_angles": "(k, theta1, theta2, pol_seed=(0.0, 1.0, 0.0))",
    "Quasimomentum": "(alpha1, alpha2)",
    "Quasimomentum.from_angles": "(k, theta1, theta2)",
    "RayleighField": "(modeset, coeffs, height=0.0, direction='up')",
    "ReconstructionResult": "(coeffs, errors)",
    "SLProblem": "(coeffs, k, alpha1, M)",
    "SLSpectrum": "(problem, entries=<factory>, matrix_norm=0.0, undecided=<factory>)",
    "Slab": "(height, coeffs)",
    "TangentialField": "(modeset, coeffs, height=0.0)",
    "TangentialField.from_components": "(modeset, c1, c2, height=0.0)",
    "TransverseFactor": "(mu, sqrt_mu, c1, alpha2)",
    "TrigPoly": "(coeffs)",
    "apply_R": "(field)",
    "assemble_dtn": "(profile, modeset)",
    "build_modeset": "(k, alpha, N)",
    "build_u": "(mu, alpha2)",
    "check_asymptotics": "(spectrum)",
    "efficiencies": "(scattered, incidence)",
    "energy_forms": "(field)",
    "extract_moments": "(q1, q2, L, m_schedule=(16, 24, 32, 48, 64), *, k, alpha)",
    "green_eval": "(x, y, modeset)",
    "helmholtz_residual": "(x, y, modeset, h)",
    "incident_from_density": "(g, modeset)",
    "inner": "(a, b)",
    "moment_kernels": "(spec1, entries_n, spec2, entries_m, u_n, u_m, qdiff)",
    "reciprocity_gap": "(profile1, profile2, f, g, modeset)",
    "reconstruct_difference": "(table)",
    "solve_layer_modes": "(profile, slab_index, modeset)",
    "solve_qpbvp": "(profile, f, modeset)",
    "solve_scattering": "(profile, incidence, modeset)",
    "solve_sl": "(problem, branches=None)",
}

# The public guard limits, read by the code at call time, and their values.
# Changing a limit means editing this table.
LIMITS = {
    "forward.COND_LIMIT": 1e12,
    "greens.DELTA_MIN": 1e-2,
    "inverse.A2_FLOOR": 1e-6,
    "lattice.WOOD_TOL": 1e-8,
}


def _parameters(fn) -> str:
    """fn's signature without annotations: names, defaults and a ``*`` before keyword-only ones."""
    sig = inspect.signature(fn)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


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


def test_exported_signatures_are_pinned():
    got = {}
    for name in PUBLIC_API:
        obj = getattr(gratescat, name)
        if isinstance(obj, types.ModuleType):
            continue
        got[name] = _parameters(obj)
        for attr, value in vars(obj).items() if isinstance(obj, type) else ():
            if isinstance(value, classmethod):
                got[f"{name}.{attr}"] = _parameters(getattr(obj, attr))
    assert got == SIGNATURES


def test_public_limits_are_pinned():
    got = {}
    for name in LIMITS:
        module, attr = name.split(".")
        got[name] = getattr(getattr(gratescat, module), attr)
    assert got == LIMITS


def test_every_python_file_parses_under_the_oldest_supported_python():
    # pyproject.toml says requires-python >= 3.10, and the interpreter that
    # runs the suite may be newer: 3.11-only syntax such as except* fails here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(top, name)
             for part in ("src", "tests", "perfbench", ".github")
             for top, _, names in os.walk(os.path.join(root, part))
             for name in sorted(names) if name.endswith(".py")]
    assert len(paths) >= 25
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
