from pathlib import Path

import numpy as np
import pytest

from gratescat import Quasimomentum, build_modeset
from gratescat.cli import main
from gratescat.forward import Slab, assemble_dtn, profile_from_mapping
from gratescat.sturm import SLProblem, solve_sl, write_spectrum_csv

K = 1.2
THETA1 = 1.05
THETA2 = 0.4


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


STURM_CONFIG = f"""
[scenario]
kind = sturm

[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
M = 24

[profile]
direction = x1
slabs = 0.7
qcoef =
    0 1.5 0.1

[output]
eigenvalues = eig.csv
summary = sturm_summary.txt
"""


def test_sturm_scenario_matches_closed_form(tmp_path):
    cfg = _write(tmp_path, "sturm.ini", STURM_CONFIG)
    assert main(["sturm", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "eig.csv").read_text().splitlines()
    assert lines[0] == "n,branch,re_lambda,im_lambda,residual"
    alpha1 = K * np.cos(THETA1) * np.cos(THETA2)
    q0 = 1.5 + 0.1j
    rows = {(r.split(",")[0], r.split(",")[1]): r.split(",") for r in lines[1:]}
    for (n, branch), row in rows.items():
        m = int(n) if branch == "+" else -int(n)
        lam = float(row[2]) + 1j * float(row[3])
        expected = K * K * q0 - (m + alpha1) ** 2
        assert abs(lam - expected) <= 1e-10
    assert (tmp_path / "sturm_summary.txt").read_text().find("shift_convention") >= 0


def test_sturm_rejects_height_dependent_profile(tmp_path, capsys):
    text = STURM_CONFIG.replace("slabs = 0.7", "slabs = 0.3 0.4").replace(
        "    0 1.5 0.1\n", "    0 1.5 0.1\nqcoef2 =\n    0 1.8 0.1\n")
    cfg = _write(tmp_path, "layered.ini", text)
    code = main(["sturm", cfg, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "[NotOneDirectional]" in err
    assert "varies with height" in err
    assert not (tmp_path / "eig.csv").exists()


def test_sturm_x2_profile_uses_alpha2(tmp_path):
    k, theta1, theta2 = 1.3, 0.9, 0.7
    text = (STURM_CONFIG.replace(f"k = {K}", f"k = {k}")
            .replace(f"theta1 = {THETA1}", f"theta1 = {theta1}")
            .replace(f"theta2 = {THETA2}", f"theta2 = {theta2}")
            .replace("    0 1.5 0.1\n", "    0 1.5 0.1\n    1 0.2 0.05\n    -1 0.2 -0.05\n"))
    spectra = {}
    for direction in ("x1", "x2"):
        cfg = _write(tmp_path, f"{direction}.ini", text.replace("direction = x1",
                                                                f"direction = {direction}"))
        out = tmp_path / direction
        assert main(["sturm", cfg, "--output-dir", str(out)]) == 0
        spectra[direction] = (out / "eig.csv").read_bytes()
    alpha = Quasimomentum.from_angles(k, theta1, theta2)
    assert abs(alpha.alpha1 - alpha.alpha2) > 0.05
    coeffs = Slab(0.7, {0: 1.5 + 0.1j, 1: 0.2 + 0.05j, -1: 0.2 - 0.05j}).coeffs
    expected = tmp_path / "expected.csv"
    write_spectrum_csv(solve_sl(SLProblem(coeffs, k, alpha.alpha2, 24)), expected)
    assert spectra["x2"] == expected.read_bytes()
    assert spectra["x2"] != spectra["x1"]


@pytest.mark.parametrize("old, new", [
    ("    0 1.5 0.1\n", "    0 1.5 0.1\n    1 nan 0\n"),
    ("slabs = 0.7", "slabs = nan"),
    ("slabs = 0.7", "slabs = inf"),
])
def test_non_finite_profile_values_rejected(tmp_path, capsys, old, new):
    cfg = _write(tmp_path, "bad.ini", STURM_CONFIG.replace(old, new))
    code = main(["sturm", cfg, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "[ValidationError]: forward.Slab" in err
    assert not (tmp_path / "eig.csv").exists()


def test_wood_anomaly_exit_code(tmp_path, capsys):
    text = f"""
[scenario]
kind = modes

[physics]
k = 1.0
theta1 = 1.5707963267948966
theta2 = 0.0

[numerics]
N = 1
"""
    cfg = _write(tmp_path, "wood.ini", text)
    code = main(["modes", cfg, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "WoodAnomaly" in err


def test_kind_mismatch_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "sturm.ini", STURM_CONFIG)
    code = main(["modes", cfg, "--output-dir", str(tmp_path)])
    assert code == 1
    assert "does not match subcommand" in capsys.readouterr().err


def test_forward_scenario_and_determinism(tmp_path):
    text = f"""
[scenario]
kind = forward

[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 4

[profile]
slabs = 0.8
qcoef =
    0 1.0 0

[incidence]
pol_seed = 0.3 0.9 0.2

[output]
rayleigh = r.csv
efficiencies = e.csv
summary = s.txt
"""
    cfg = _write(tmp_path, "fwd.ini", text)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["forward", cfg, "--output-dir", str(out1)]) == 0
    assert main(["forward", cfg, "--output-dir", str(out2)]) == 0
    assert (out1 / "r.csv").read_bytes() == (out2 / "r.csv").read_bytes()
    assert (out1 / "e.csv").read_bytes() == (out2 / "e.csv").read_bytes()
    summary = (out1 / "s.txt").read_text()
    total = float([ln for ln in summary.splitlines()
                   if ln.startswith("total_efficiency")][0].split("=")[1])
    np.testing.assert_allclose(total, 1.0, atol=1e-8)


def test_show_config_echo(tmp_path, capsys):
    cfg = _write(tmp_path, "sturm.ini", STURM_CONFIG)
    assert main(["sturm", cfg, "--output-dir", str(tmp_path), "--show-config"]) == 0
    out = capsys.readouterr().out
    assert "kind = sturm" in out
    assert "profile.qcoef[0]" in out
    assert not (tmp_path / "eig.csv").exists()


def test_gapcheck_scenario(tmp_path):
    text = f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 3
cases = 2

[profile]
slabs = 0.7
qcoef =
    0 1.5 0.1
    1 0.12 0
    -1 0.12 0

[profile2]
slabs = 0.7
qcoef =
    0 1.5 0.1
    1 0.22 0
    -1 0.12 0

[output]
gap = gap.csv
summary = gsum.txt
"""
    cfg = _write(tmp_path, "gap.ini", text)
    assert main(["gapcheck", cfg, "--output-dir", str(tmp_path), "--seed", "5"]) == 0
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert lines[0] == "case,re_lhs,im_lhs,re_rhs,im_rhs,gap"
    assert len(lines) == 3
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) <= 1e-6


def test_reconstruct_scenario(tmp_path):
    text = f"""
[physics]
k = 1.6
theta1 = 1.05
theta2 = 0.4

[numerics]
L = 1
m_schedule = 16 24 32

[profile]
slabs = 0.7
qcoef =
    0 1.77 0.12
    1 0.25 0
    -1 0.25 0

[profile2]
slabs = 0.7
qcoef =
    0 1.6 0.12
    1 0.15 0
    -1 0.15 0

[output]
moments = m.csv
coefficients = c.csv
summary = rsum.txt
"""
    cfg = _write(tmp_path, "rec.ini", text)
    assert main(["reconstruct", cfg, "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    coeffs = {int(r.split(",")[0]): float(r.split(",")[1]) + 1j * float(r.split(",")[2])
              for r in rows}
    assert abs(coeffs[0] - 0.17) <= 2e-3
    assert abs(coeffs[-1] - 0.1) <= 2e-3
    assert abs(coeffs[1] - 0.1) <= 2e-3


def test_missing_config_rejected(tmp_path, capsys):
    assert main(["modes", str(tmp_path / "nope.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_modes_green_dtn_moments_kinds(tmp_path):
    common = f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 3
M = 24
L = 1
m_schedule = 16 24
"""
    modes_cfg = _write(tmp_path, "modes.ini", common)
    assert main(["modes", modes_cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert len(lines) == 1 + 49

    green_cfg = _write(tmp_path, "green.ini", common + """
[green]
x = 0.4 0.7 1.9
y = 0.1 0.3 0.2
h = 1e-3
""")
    assert main(["green", green_cfg, "--output-dir", str(tmp_path)]) == 0
    row = (tmp_path / "green.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) <= 1e-10  # quasi-periodicity defect column

    profile = """
[profile]
slabs = 0.7
qcoef =
    0 1.5 0.1
    1 0.12 0
    -1 0.12 0
"""
    dtn_cfg = _write(tmp_path, "dtn.ini", common + profile)
    assert main(["dtn", dtn_cfg, "--output-dir", str(tmp_path)]) == 0
    head = (tmp_path / "dtn.csv").read_text().splitlines()[0]
    assert head == "row,col,re,im"

    moments_cfg = _write(tmp_path, "moments.ini", common + profile + """
[profile2]
slabs = 0.7
qcoef =
    0 1.4 0.1
    1 0.12 0
    -1 0.12 0
""")
    assert main(["moments", moments_cfg, "--output-dir", str(tmp_path)]) == 0
    head = (tmp_path / "moments.csv").read_text().splitlines()[0]
    assert head.startswith("l,m,re_A1")


def test_moments_mixed_axis_pair_rejected(tmp_path, capsys):
    text = f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
L = 1
m_schedule = 16 24

[profile]
direction = x1
slabs = 0.7
qcoef =
    0 1.5 0.1
    1 0.12 0
    -1 0.12 0

[profile2]
direction = x2
slabs = 0.7
qcoef =
    0 1.4 0.1
    1 0.12 0
    -1 0.12 0
"""
    cfg = _write(tmp_path, "mixed.ini", text)
    assert main(["moments", cfg, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "[NotOneDirectional]" in err
    assert "depends on both directions" in err
    assert "swap" not in err
    assert not (tmp_path / "moments.csv").exists()


def test_dtn_csv_lists_nonzero_entries_in_row_major_order(tmp_path):
    qcoef = "0 1.5 0.1\n1 0.12 0\n-1 0.12 0"
    cfg = _write(tmp_path, "dtn.ini", f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 2

[profile]
slabs = 0.7
qcoef =
""" + "".join(f"    {line}\n" for line in qcoef.splitlines()))
    assert main(["dtn", cfg, "--output-dir", str(tmp_path)]) == 0
    ms = build_modeset(K, Quasimomentum.from_angles(K, THETA1, THETA2), 2)
    matrix = assemble_dtn(profile_from_mapping({"slabs": "0.7", "qcoef": qcoef}), ms).matrix
    want = ["row,col,re,im"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            v = matrix[i, j]
            if v != 0:
                want.append(f"{i},{j},{v.real:.17g},{v.imag:.17g}")
    assert 1 < len(want) < 1 + matrix.size  # the block structure leaves zeros out
    assert (tmp_path / "dtn.csv").read_text().splitlines() == want


def test_readme_config_example_runs(tmp_path, capsys):
    # the README's config block, as written, is a valid forward scenario
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = _write(tmp_path, "readme.ini", block)
    code = main(["forward", cfg, "--output-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "rayleigh.csv").is_file()
