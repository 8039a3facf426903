import configparser
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gratescat import Quasimomentum, build_modeset, cli
from gratescat.cli import KINDS, main
from gratescat.forward import MediumProfile, Slab, assemble_dtn

import oracles

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
    assert "\nundecided_branches = 0\n" in (tmp_path / "sturm_summary.txt").read_text()


def test_sturm_huge_k_exits_2(tmp_path, capsys):
    # the band iteration does not converge at k = 1e70: a solver failure
    text = (STURM_CONFIG.replace(f"k = {K}", "k = 1e70")
            .replace("    0 1.5 0.1\n", "    0 1.4 0\n    1 0.2 0\n    -1 0.2 0\n"))
    code = main(["sturm", _write(tmp_path, "huge.ini", text), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver failure [EigenFailure]: sturm.solve_sl: branches ")
    assert "not converged in 30 steps" in err
    assert not (tmp_path / "eig.csv").exists()


def test_sturm_symmetric_profile_at_default_theta1_exits_1(tmp_path, capsys):
    # theta1 = pi/2 puts the mirror anchors together; an even q splits each
    # mirror pair into an even and an odd eigenfunction, whose labels no
    # eigenvector decides, so the asymptotic fit has no pair left to read
    text = (STURM_CONFIG.replace(f"theta1 = {THETA1}\n", "")
            .replace("    0 1.5 0.1\n", "    0 1.5 0.1\n    1 0.2 0\n    -1 0.2 0\n"))
    code = main(["sturm", _write(tmp_path, "sym.ini", text), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert ("[ValidationError]: sturm.check_asymptotics: need at least 8 branch pairs in "
            "range, got 0; 9 pairs in range 4..12 have an undecided label") in err
    assert not (tmp_path / "sturm_summary.txt").exists()
    assert not (tmp_path / "eig.csv").exists()


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


@pytest.mark.parametrize("kind", ["sturm", "moments", "forward"])
@pytest.mark.parametrize("section", ["profile", "profile2"])
@pytest.mark.parametrize("axis", ["x2", "X1", "y"])
def test_profile_axis_other_than_x1_exits_1(tmp_path, capsys, kind, section, axis):
    profile2 = "\n[profile2]\nslabs = 0.7\nqcoef =\n    0 1.4 0.1\n"
    text = {"sturm": STURM_CONFIG.replace("direction = x1\n", "") + profile2,
            "moments": RECONSTRUCT_CONFIG,
            "forward": FORWARD_CONFIG.replace("SEED", "0 1 0") + profile2}[kind]
    text = text.replace(f"[{section}]\n", f"[{section}]\ndirection = {axis}\n")
    out = tmp_path / "out"
    assert main([kind, _write(tmp_path, "axis.ini", text), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"validation failure [ValidationError]: cli.run: [{section}] direction must be x1: "
        "q varies along x1, and a layer that varies along x2 is the x1 layer at "
        "theta2 -> pi/2 - theta2")
    assert not out.exists()


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


def test_sturm_refuses_k_with_overflowing_square(tmp_path, capsys):
    cfg = _write(tmp_path, "big.ini", STURM_CONFIG.replace(f"k = {K}", "k = 1e160"))
    code = main(["sturm", cfg, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("validation failure [ValidationError]: sturm.SLProblem: k must be finite")
    assert not (tmp_path / "eig.csv").exists()


def test_sturm_refuses_q_whose_k_squared_multiple_overflows(tmp_path, capsys):
    # k^2 = 1e20 and q0 = 1e300 are finite, k^2 q0 is not
    text = STURM_CONFIG.replace(f"k = {K}", "k = 1e10").replace("0 1.5 0.1", "0 1e300 0")
    code = main(["sturm", _write(tmp_path, "big.ini", text), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("validation failure [ValidationError]: sturm.SLProblem: the Gershgorin bound")
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


def test_forward_at_large_k_accepts_its_own_plane_wave(tmp_path, capsys):
    # k d and alpha round apart by more than 1e-10 at k = 1e6; the direction
    # check is relative to k, so the scenario's plane wave is its own
    text = """
[scenario]
kind = forward

[physics]
k = 1e6
theta1 = 0.305
theta2 = 0.113

[numerics]
N = 1

[profile]
slabs = 0.8
qcoef =
    0 1.0 0
"""
    code = main(["forward", _write(tmp_path, "big_k.ini", text), "--output-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "rayleigh.csv").exists()


def test_show_config_echo(tmp_path, capsys):
    cfg = _write(tmp_path, "sturm.ini", STURM_CONFIG)
    assert main(["sturm", cfg, "--output-dir", str(tmp_path), "--show-config"]) == 0
    out = capsys.readouterr().out
    assert "kind = sturm" in out
    assert "profile.qcoef[0]" in out
    # every [physics] and [numerics] key, with the derived b and alpha
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "kind", "seed", "k", "theta1", "theta2", "b", "alpha", "N", "M", "L", "cases",
        "m_schedule", "profile.slabs", "profile.qcoef[0]", "output_dir"]
    assert "b = 0.7\nalpha = (" in out
    assert "M = 24\n" in out and "m_schedule = 16 24 32 48 64\n" in out
    assert not (tmp_path / "eig.csv").exists()


GAPCHECK_CONFIG = f"""
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


def test_gapcheck_scenario(tmp_path):
    cfg = _write(tmp_path, "gap.ini", GAPCHECK_CONFIG)
    assert main(["gapcheck", cfg, "--output-dir", str(tmp_path), "--seed", "5"]) == 0
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert lines[0] == "case,re_lhs,im_lhs,re_rhs,im_rhs,gap"
    assert len(lines) == 3
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) <= 1e-6
    summary = dict(ln.split(" = ") for ln in (tmp_path / "gsum.txt").read_text().splitlines())
    assert list(summary) == ["kind", "cases", "seed", "max_gap", "max_rhs_scale_ratio"]
    # the boundary side subtracts two inner products larger than their difference
    assert 1.0 < float(summary["max_rhs_scale_ratio"]) < 1e6


RECONSTRUCT_CONFIG = f"""
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


def test_reconstruct_scenario(tmp_path):
    cfg = _write(tmp_path, "rec.ini", RECONSTRUCT_CONFIG)
    assert main(["reconstruct", cfg, "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    coeffs = {int(r.split(",")[0]): float(r.split(",")[1]) + 1j * float(r.split(",")[2])
              for r in rows}
    assert abs(coeffs[0] - 0.17) <= 2e-3
    assert abs(coeffs[-1] - 0.1) <= 2e-3
    assert abs(coeffs[1] - 0.1) <= 2e-3


@pytest.mark.parametrize("alpha1, code", [
    (0.5 + 1e-9 * (1 - 1e-3), 1), (0.5 + 1e-9 * (1 + 1e-3), 0),
    (-1e-9 * (1 - 1e-3), 1), (-1e-9 * (1 + 1e-3), 0)])
def test_moment_kinds_alpha1_near_half_integer_threshold(tmp_path, capsys, alpha1, code):
    # alpha1 = k cos(theta1) at theta2 = 0; within 1e-9 of Z/2 the mirror
    # branches coincide and the run stops before any solve
    theta1 = float(np.arccos(alpha1 / 1.6))
    text = (RECONSTRUCT_CONFIG.replace("theta1 = 1.05", f"theta1 = {theta1!r}")
            .replace("theta2 = 0.4", "theta2 = 0.0"))
    cfg = _write(tmp_path, "rec.ini", text)
    assert main(["reconstruct", cfg, "--output-dir", str(tmp_path)]) == code
    assert (tmp_path / "c.csv").exists() == (code == 0)
    if code:
        assert "within 1e-9 of a multiple of 1/2" in capsys.readouterr().err


def test_moment_kinds_reject_default_normal_incidence(tmp_path, capsys):
    cfg = _write(tmp_path, "rec.ini", RECONSTRUCT_CONFIG.replace("theta1 = 1.05\n", ""))
    assert main(["moments", cfg, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "[ValidationError]" in err and "theta1 = pi/2" in err
    assert not (tmp_path / "m.csv").exists()


def test_missing_config_rejected(tmp_path, capsys):
    assert main(["modes", str(tmp_path / "nope.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("output_dir, message", [
    ("afile/sub", "[NotADirectoryError]: cli.run: [Errno 20] Not a directory: 'afile/sub'"),
    ("", "[FileNotFoundError]: cli.run: [Errno 2] No such file or directory: ''"),
], ids=["file-in-path", "empty"])
def test_unusable_output_dir_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                   output_dir, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    cfg = _write(tmp_path, "modes.ini", COMMON_CONFIG)
    assert main(["modes", cfg, "--output-dir", output_dir]) == 1
    assert capsys.readouterr().err == f"validation failure {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "modes.ini"]


PROFILE_SECTION = """
[profile]
slabs = 0.7
qcoef =
    0 1.5 0.1
    1 0.12 0
    -1 0.12 0
"""


COMMON_CONFIG = f"""
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


GREEN_SECTION = """
[green]
x = 0.4 0.7 1.9
y = 0.1 0.3 0.2
h = 1e-3
"""


def test_modes_green_dtn_moments_kinds(tmp_path):
    modes_cfg = _write(tmp_path, "modes.ini", COMMON_CONFIG)
    assert main(["modes", modes_cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert len(lines) == 1 + 49

    green_cfg = _write(tmp_path, "green.ini", COMMON_CONFIG + GREEN_SECTION)
    assert main(["green", green_cfg, "--output-dir", str(tmp_path)]) == 0
    row = (tmp_path / "green.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) <= 1e-10  # quasi-periodicity defect column

    dtn_cfg = _write(tmp_path, "dtn.ini", COMMON_CONFIG + PROFILE_SECTION)
    assert main(["dtn", dtn_cfg, "--output-dir", str(tmp_path)]) == 0
    head = (tmp_path / "dtn.csv").read_text().splitlines()[0]
    assert head == "row,col,re,im"

    moments_cfg = _write(tmp_path, "moments.ini", COMMON_CONFIG + PROFILE_SECTION + """
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


@pytest.mark.parametrize("old, new", [
    ("x = 0.4 0.7 1.9", "x = 0.1 0.2"), ("x = 0.4 0.7 1.9", "x = nan 0.2 0.5"),
    ("h = 1e-3", "h = 0"), ("h = 1e-3", "h = 1e-200"), ("h = 1e-3", "h = nan"),
    ("h = 1e-3", "h = 2.3e-162"),
])
def test_green_bad_point_or_step_rejected(tmp_path, capsys, old, new):
    cfg = _write(tmp_path, "green.ini", COMMON_CONFIG + GREEN_SECTION.replace(old, new))
    assert main(["green", cfg, "--output-dir", str(tmp_path)]) == 1
    assert "[ValidationError]: greens." in capsys.readouterr().err
    assert not (tmp_path / "green.csv").exists()


@pytest.mark.parametrize("numerics, message", [("m_schedule = 16 16", "none repeated")])
def test_moment_schedule_and_floor_rejected(tmp_path, capsys, numerics, message):
    text = RECONSTRUCT_CONFIG.replace("m_schedule = 16 24 32", numerics)
    cfg = _write(tmp_path, "bad.ini", text)
    assert main(["moments", cfg, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "[ValidationError]: inverse.extract_moments" in err and message in err
    assert not (tmp_path / "m.csv").exists()


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
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.12 + 0j, -1: 0.12 + 0j}, 0.7)
    matrix = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    want = ["row,col,re,im"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            v = matrix[i, j]
            if v != 0:
                want.append(f"{i},{j},{v.real:.17g},{v.imag:.17g}")
    assert 1 < len(want) < 1 + matrix.size  # the block structure leaves zeros out
    assert (tmp_path / "dtn.csv").read_text().splitlines() == want


def test_dtn_csv_bytes_match_one_format_per_row(tmp_path):
    cfg = _write(tmp_path, "dtn.ini", f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 4

[profile]
slabs = 0.4 0.3
qcoef =
    0 1.5 0.1
    1 0.05 -0.02
qcoef2 =
    0 1.8 0.05
""")
    assert main(["dtn", cfg, "--output-dir", str(tmp_path)]) == 0
    ms = build_modeset(K, Quasimomentum.from_angles(K, THETA1, THETA2), 4)
    prof = MediumProfile([Slab(0.4, {0: 1.5 + 0.1j, 1: 0.05 - 0.02j}), Slab(0.3, {0: 1.8 + 0.05j})])
    matrix = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    rows, cols = np.nonzero(matrix)
    assert rows.size > 1024  # the rows take two formatting calls
    want = "row,col,re,im\n" + "".join(
        f"{i},{j},{v.real:.17g},{v.imag:.17g}\n" for i, j, v in zip(rows, cols, matrix[rows, cols]))
    assert (tmp_path / "dtn.csv").read_bytes() == want.encode()


def test_dtn_csv_drops_in_block_zeros_of_a_uniform_slab(tmp_path):
    # A uniform slab couples only the two components of one mode: each n2 block
    # is 2x2 per mode, so most of its entries are exact zeros and stay out.
    cfg = _write(tmp_path, "dtn.ini", f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 3

[profile]
slabs = 0.7
qcoef =
    0 1.6 0.25
""")
    assert main(["dtn", cfg, "--output-dir", str(tmp_path)]) == 0
    ms = build_modeset(K, Quasimomentum.from_angles(K, THETA1, THETA2), 3)
    prof = MediumProfile.from_coeffs({0: 1.6 + 0.25j}, 0.7)
    matrix = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    rows, cols = np.nonzero(matrix)
    assert 0 < rows.size <= 4 * ms.num_modes < (2 * ms.N + 1) * (2 * ms.block_size) ** 2
    want = "row,col,re,im\n" + "".join(
        f"{i},{j},{v.real:.17g},{v.imag:.17g}\n" for i, j, v in zip(rows, cols, matrix[rows, cols]))
    assert (tmp_path / "dtn.csv").read_bytes() == want.encode()


def test_readme_config_example_runs(tmp_path, capsys):
    # the README's config block, as written, is a valid forward scenario
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = _write(tmp_path, "readme.ini", block)
    code = main(["forward", cfg, "--output-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "rayleigh.csv").is_file()


def test_readme_library_example_runs(capsys):
    # the README's library example, as written, runs and prints the summed
    # efficiency of its absorbing layer
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    total = float(capsys.readouterr().out)
    assert abs(total - 0.8731575199036319) <= 1e-12 and total < 1.0


def _show_config(tmp_path, capsys, kind, text):
    cfg = _write(tmp_path, f"{kind}.ini", text)
    code = main([kind, cfg, "--output-dir", str(tmp_path), "--show-config"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LAYERED_PROFILE = """
[profile]
direction = x1
slabs = 0.3 0.5
qcoef =
    0 1.5 0.1
    1 0.15 0
    -1 0.15 0
qcoef2 =
    0 1.9 0.2
"""


def test_profile_section_builds_layered_stack(tmp_path, capsys):
    code, out, _ = _show_config(tmp_path, capsys, "sturm", STURM_CONFIG.split("[profile]")[0]
                                + LAYERED_PROFILE)
    assert code == 0
    assert "b = 0.8\n" in out
    assert "profile.slabs = 0.3 0.5\n" in out
    assert "profile.qcoef[0] = -1:(0.15+0j) 0:(1.5+0.1j) 1:(0.15+0j)\n" in out
    assert "profile.qcoef[1] = 0:(1.9+0.2j)\n" in out
    code, _, err = _show_config(tmp_path, capsys, "sturm",
                                STURM_CONFIG.replace("    0 1.5 0.1\n", "    0 1.5\n"))
    assert code == 1
    assert "qcoef line '0 1.5' is not 'j re im'" in err


@pytest.mark.parametrize("old, new, line", [
    ("    -1 0.15 0\n", "    -1 0.15 0\n    1 0.9 0\n", "1 0.9 0"),
    ("    0 1.9 0.2\n", "    0 1.9 0.2\n    0 1.2 0\n", "0 1.2 0"),
], ids=["qcoef", "qcoef2"])
def test_repeated_qcoef_index_rejected(tmp_path, capsys, old, new, line):
    # the later line used to replace the earlier one silently
    text = STURM_CONFIG.split("[profile]")[0] + LAYERED_PROFILE.replace(old, new)
    code, out, err = _show_config(tmp_path, capsys, "sturm", text)
    assert code == 1 and out == ""
    index = line.split()[0]
    assert err.startswith("validation failure [ValidationError]: "
                          f"cli.run: qcoef line '{line}' repeats index {index}")


def test_profile_slab_without_own_qcoef_reuses_first(tmp_path, capsys):
    text = (STURM_CONFIG.split("[profile]")[0]
            + LAYERED_PROFILE.replace("slabs = 0.3 0.5", "slabs = 0.2 0.3 0.4"))
    code, out, _ = _show_config(tmp_path, capsys, "sturm", text)
    assert code == 0
    first = "-1:(0.15+0j) 0:(1.5+0.1j) 1:(0.15+0j)"
    assert f"profile.qcoef[0] = {first}\n" in out
    assert "profile.qcoef[1] = 0:(1.9+0.2j)\n" in out
    assert f"profile.qcoef[2] = {first}\n" in out


@pytest.mark.parametrize("old, new, message", [
    ("theta1 = ", "theta_1 = ", "unknown key 'theta_1' in [physics]"),
    ("[output]", "[outputs]", "unknown section [outputs]"),
    ("[output]", "qcoef1 =\n    0 1.6 0.1\n\n[output]", "unknown key 'qcoef1' in [profile]"),
    ("[output]", "qcoef2 =\n    0 1.6 0.1\n\n[output]", "unknown key 'qcoef2' in [profile]"),
    ("[output]", "[incidence]\np1 = 1\n\n[output]", "unknown key 'p1' in [incidence]"),
    ("[output]", "[green]\nx = 0 0 1\ny = 0 0 0\nz = 1\n\n[output]",
     "unknown key 'z' in [green]"),
    # b is the slab total, and the Wood and A2 limits are module constants
    ("[numerics]", "b = 0.7\n\n[numerics]", "unknown key 'b' in [physics]"),
    ("M = 24", "M = 24\nwood_tol = 1e-8", "unknown key 'wood_tol' in [numerics]"),
    ("M = 24", "M = 24\na2_floor = 1e-6", "unknown key 'a2_floor' in [numerics]"),
], ids=["misspelled", "section", "qcoef1", "qcoefK-beyond-slabs", "incidence-p1", "green-z",
        "physics-b", "wood_tol", "a2_floor"])
def test_unknown_section_or_key_rejected(tmp_path, capsys, old, new, message):
    cfg = _write(tmp_path, "bad.ini", STURM_CONFIG.replace(old, new))
    out = tmp_path / "out"
    code = main(["sturm", cfg, "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"[ValidationError]: cli.run: {message}" in err
    assert not out.exists()


def test_qcoefk_accepted_up_to_slab_count(tmp_path, capsys):
    text = STURM_CONFIG.replace("slabs = 0.7", "slabs = 0.3 0.4").replace(
        "[output]", "qcoef2 =\n    0 1.6 0.1\n\n[output]")
    code, out, _ = _show_config(tmp_path, capsys, "sturm", text)
    assert code == 0
    assert "profile.qcoef[1] = 0:(1.6+0.1j)\n" in out
    code, _, err = _show_config(tmp_path, capsys, "sturm",
                                text.replace("qcoef2 =", "qcoef3 ="))
    assert code == 1
    assert "unknown key 'qcoef3' in [profile]" in err


def _numerics_config(**values):
    vals = {"k": K, "N": 3, "M": 24, "L": 1, "cases": 2} | values
    return (f"[physics]\nk = {vals['k']}\ntheta1 = {THETA1}\ntheta2 = {THETA2}\n\n[numerics]\n"
            + "".join(f"{key} = {vals[key]}\n" for key in ("N", "M", "L", "cases")))


@pytest.mark.parametrize("key, outside, inside", [
    ("k", "0", "5e-324"), ("N", "-1", "0"), ("M", "0", "1"), ("L", "-1", "0"),
    ("cases", "0", "1"),
])
def test_numerical_parameter_limits(tmp_path, capsys, key, outside, inside):
    code, out, _ = _show_config(tmp_path, capsys, "modes", _numerics_config(**{key: inside}))
    assert code == 0
    assert f"{key} = {float(inside) if key == 'k' else int(inside)}\n" in out
    code, _, err = _show_config(tmp_path, capsys, "modes", _numerics_config(**{key: outside}))
    assert code == 1
    assert "numerical parameters must be positive" in err


FORWARD_CONFIG = f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 3

[profile]
slabs = 0.8
qcoef =
    0 1.0 0

[incidence]
pol_seed = SEED
"""


def _rayleigh(tmp_path, name, seed):
    cfg = _write(tmp_path, f"{name}.ini", FORWARD_CONFIG.replace("SEED", seed))
    assert main(["forward", cfg, "--output-dir", str(tmp_path / name)]) == 0
    rows = (tmp_path / name / "rayleigh.csv").read_text().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[2:8]] for row in rows]).view(complex)


def test_pol_seed_takes_complex_literals(tmp_path):
    # the seed is projected orthogonal to d, and the solve is linear in it
    e1 = _rayleigh(tmp_path, "e1", "1 0 0")
    e2 = _rayleigh(tmp_path, "e2", "0 1 0")
    mixed = _rayleigh(tmp_path, "mixed", "1 1j 0")
    np.testing.assert_allclose(mixed, e1 + 1j * e2, rtol=0, atol=1e-13)
    assert np.array_equal(_rayleigh(tmp_path, "real", "0.3 0.9 0.2"),
                          _rayleigh(tmp_path, "cplx", "0.3+0j 0.9+0j 0.2-0j"))


@pytest.mark.parametrize("seed", ["nan 0 1", "1e308 1e308 1e308", "0 inf 0"])
def test_non_finite_or_overflowing_pol_seed_exits_1(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "bad.ini", FORWARD_CONFIG.replace("SEED", seed))
    out = tmp_path / "out"
    assert main(["forward", cfg, "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation failure [ValidationError]: greens.PlaneWaveIncidence.from_angles: "
        "pol_seed must be finite with a finite squared norm")
    assert not out.exists()


def test_non_finite_theta2_exits_1(tmp_path, capsys):
    text = FORWARD_CONFIG.replace("SEED", "0 1 0").replace(f"theta2 = {THETA2}", "theta2 = inf")
    out = tmp_path / "out"
    assert main(["forward", _write(tmp_path, "bad.ini", text), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation failure [ValidationError]: lattice.Quasimomentum.from_angles: the angles "
        f"theta1, theta2 must be finite, got {THETA1!r}, inf")
    assert not out.exists()


def test_gapcheck_slab_totals_one_ulp_apart(tmp_path):
    text = f"""
[physics]
k = {K}
theta1 = {THETA1}
theta2 = {THETA2}

[numerics]
N = 3
cases = 1

[profile]
slabs = 0.1 0.2
qcoef =
    0 1.5 0.1
    1 0.12 0
    -1 0.12 0

[profile2]
slabs = 0.3
qcoef =
    0 1.5 0.1
    1 0.22 0
    -1 0.12 0
"""
    cfg = _write(tmp_path, "ulp.ini", text)
    assert 0.1 + 0.2 != 0.3
    assert main(["gapcheck", cfg, "--output-dir", str(tmp_path), "--seed", "5"]) == 0
    row = (tmp_path / "gap.csv").read_text().splitlines()[1]
    assert float(row.split(",")[-1]) <= 1e-6


@pytest.mark.parametrize("kind, text, message", [
    ("green", _numerics_config(), "[green] needs key 'x'"),
    ("sturm", STURM_CONFIG.replace("slabs = 0.7\n", ""), "[profile] needs key 'slabs'"),
], ids=["green-x", "profile-slabs"])
def test_required_key_missing(tmp_path, capsys, kind, text, message):
    cfg = _write(tmp_path, "missing.ini", text)
    assert main([kind, cfg, "--output-dir", str(tmp_path)]) == 1
    assert f"[ValidationError]: cli.run: {message}" in capsys.readouterr().err


# the profile sections each kind needs, spelled out here rather than read back
# from cli._RUNNERS, which the first test holds to them
SECTIONS_NEEDED = {
    "modes": (), "green": (), "forward": ("profile",), "dtn": ("profile",),
    "sturm": ("profile",), "moments": ("profile", "profile2"),
    "reconstruct": ("profile", "profile2"), "gapcheck": ("profile", "profile2"),
}


def test_runner_table_lists_every_kind_with_the_sections_it_needs():
    assert KINDS == tuple(SECTIONS_NEEDED)
    assert {kind: entry[1] for kind, entry in cli._RUNNERS.items()} == SECTIONS_NEEDED


# every kind that needs profile sections, with none of them and, where it
# needs two, with [profile] alone
@pytest.mark.parametrize("kind, profiles", [
    pytest.param(kind, profiles, id=f"{kind}-{'profile' if profiles else 'none'}")
    for kind, needs in SECTIONS_NEEDED.items() for profiles in ("", PROFILE_SECTION)[:len(needs)]
])
def test_kind_without_its_profile_sections_exits_1_naming_them(tmp_path, capsys, kind, profiles):
    cfg = _write(tmp_path, f"{kind}.ini", COMMON_CONFIG + profiles)
    out = tmp_path / "out"
    assert main([kind, cfg, "--output-dir", str(out)]) == 1
    needs = " and ".join(f"[{s}]" for s in SECTIONS_NEEDED[kind])
    assert capsys.readouterr().err == ("validation failure [ValidationError]: cli.run: "
                                       f"{kind} scenario needs {needs}\n")
    assert not out.exists()


def test_modes_runs_without_a_profile_section(tmp_path):
    cfg = _write(tmp_path, "modes.ini", COMMON_CONFIG)
    assert main(["modes", cfg, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "modes.csv").is_file()


def _fields(path):
    """(where, word) for each field of a CSV body or each value word of a summary."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        return [(f"{path.name} line {i}", word)
                for i, row in enumerate(lines[1:], 2) for word in row.split(",")]
    # "key = value" lines; a digest is an identifier, not a number
    return [(f"{path.name} {key}", word)
            for key, _, value in (line.partition(" = ") for line in lines)
            if not key.endswith("_digest") for word in value.split()]


def _documented_columns():
    """[output] key -> CSV header, from the README's table of artifacts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\|[^|]*\| `([\w,]+)` \|$", readme, re.MULTILINE)
    assert len(rows) == 9
    return dict(rows)


@pytest.mark.parametrize("kind", KINDS)
def test_cli_artifacts_hold_no_inf_or_nan(tmp_path, kind):
    # moments and reconstruct run at the default schedule, which reaches m = 64
    default_schedule = RECONSTRUCT_CONFIG.replace("m_schedule = 16 24 32\n", "")
    configs = {"modes": COMMON_CONFIG, "green": COMMON_CONFIG + GREEN_SECTION,
               "forward": FORWARD_CONFIG.replace("SEED", "0.3 0.9 0.2"),
               "dtn": COMMON_CONFIG + PROFILE_SECTION, "sturm": STURM_CONFIG,
               "gapcheck": GAPCHECK_CONFIG, "moments": default_schedule,
               "reconstruct": default_schedule}
    cfg = _write(tmp_path, f"{kind}.ini", configs[kind])
    out = tmp_path / "out"
    assert main([kind, cfg, "--output-dir", str(out)]) == 0
    # the [output] key of each renamed file; a default name is the key plus .csv
    parser = configparser.ConfigParser()
    parser.read_string(configs[kind])
    keys = {name: key for key, name in (parser.items("output") if parser.has_section("output")
                                        else ())}
    columns = _documented_columns()
    numeric = 0
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            header = path.read_text().splitlines()[0]
            assert header == columns[keys.get(path.name, path.stem)], path.name
        for where, word in _fields(path):
            try:
                value = complex(word)
            except ValueError:
                continue  # a label: the kind, a branch sign, a convention name
            numeric += 1
            assert np.isfinite(value), f"{where}: {word}"
            if path.suffix == ".csv":  # integers pass: "%.17g" % 3.0 == "3"
                assert word == "%.17g" % float(word), f"{where}: {word}"
    assert numeric > 0


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path (its dataclasses need it in sys.modules)."""
    if "perfbench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_workloads"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_cli_configs_parse(tmp_path, capsys, seed):
    # the cli-scenarios benchmark runs these configs; a grammar change that
    # refuses one would fail every benchmark op
    workload = _perfbench_workloads().CliScenarios(seed, 0, str(tmp_path))
    try:
        for kind in workload.KINDS:
            out = tmp_path / f"out-{kind}"
            code = cli.run(kind, workload.configs[kind], str(out), show_config=True)
            assert code == 0, capsys.readouterr().err
            assert not out.exists()
    finally:
        workload.close()
