"""The scripts under scripts/ run end to end with small arguments."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_density_sweep_writes_csv_and_summary(tmp_path):
    proc = _run("density_sweep.py", "--ts", "2", "--out-dir", str(tmp_path / "sweep"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / "sweep" / "semicircle_t2.csv"
    assert proc.stdout.startswith("t=2: support [")
    assert f"wrote {csv}" in proc.stdout
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,density,residual,iterations"
    assert len(lines) == 1 + int(2 * (2 * 2**0.5 + 0.6) / 0.02) + 1


def test_contraction_profile_prints_table(tmp_path):
    proc = _run("contraction_profile.py", "--ys", "1,0.3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "y,iterations,residual,tail_ratio,bound,certificate"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "0.3"]
    assert all(line.endswith(",ok") for line in lines[1:])


def test_blowup_profile_prints_table(tmp_path):
    proc = _run("blowup_profile.py", "--samples", "3", "--js", "2,4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "fill,ball_tilde,disk_worst_tilde"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.750000", "0.937500"]


def test_parity_of_the_tree_with_itself(tmp_path):
    # one metric round runs every op kind, contract with --out among them
    proc = _run("parity.py", "--base", str(ROOT), "--metric-seeds", "1", "--props-seeds", "",
                "--density-seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "79 of 79 ops identical (exit code, stdout, --out file)\n"


def test_parity_reports_the_first_differing_op(tmp_path):
    # and every later one: the base tree renames a column for the semicircle grids only
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src", base / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = base / "src" / "ncmetric" / "cli.py"
    header = '"x,density,residual,iterations"'
    assert header in cli.read_text()
    renamed = f'("x,density,residual,iters" if args.law == "semicircle" else {header})'
    cli.write_text(cli.read_text().replace(header, renamed))
    proc = _run("parity.py", "--base", str(base), "--metric-seeds", "", "--props-seeds", "",
                "--density-seeds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[::2]] == [
        "density seed 1 op 2", "density seed 1 op 6", "density seed 1 op 10",
        "3 of 19 ops differ (exit code, stdout, --out file)",
    ]
    assert lines[0].startswith("density seed 1 op 2: convolve --law semicircle ")
    assert lines[1::2] == ["  stdout: line 1: 'x,density,residual,iters' != 'x,density,residual,iterations'"
                           " (base != this tree)"] * 3


def test_parity_flags_a_stream_that_differs_in_floating_point_numbers_only(tmp_path):
    # the base tree doubles the first residual of each semicircle grid and scales its
    # first density by 1.25 (floats), and adds one to the first iteration count of
    # each matrix-model grid (an integer)
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src", base / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = base / "src" / "ncmetric" / "cli.py"
    row = '        lines.append(f"{row.x!r},{row.density!r},{row.residual!r},{row.iterations}")\n'
    assert row in cli.read_text()
    perturbed = (
        '        first = len(lines) == 1\n'
        '        residual = 2.0 * row.residual if first and args.law == "semicircle" else row.residual\n'
        '        density = 1.25 * row.density if first and args.law == "semicircle" else row.density\n'
        '        iterations = row.iterations + (first and args.law is None)\n'
        '        lines.append(f"{row.x!r},{density!r},{residual!r},{iterations}")\n'
    )
    cli.write_text(cli.read_text().replace(row, perturbed))
    proc = _run("parity.py", "--base", str(base), "--metric-seeds", "", "--props-seeds", "",
                "--density-seeds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1:2]] == [
        f"density seed 1 op {i}" for i in (2, 3, 6, 7, 10, 11)
    ]
    assert lines[-1] == "6 of 19 ops differ (exit code, stdout, --out file), 3 of them in floating-point numbers only"
    semicircle, matrix = lines[1:-1:4], lines[3:-1:4]
    assert all(line.startswith("  stdout: line 2: ") for line in semicircle + matrix)
    # one figure per CSV column that moved, by header name
    assert all(line.endswith(" (base != this tree); only numbers differ: 2, by at most density 2.0e-01,"
                             " residual 5.0e-01 relative") for line in semicircle)
    assert all(line.endswith(" (base != this tree)") for line in matrix)
