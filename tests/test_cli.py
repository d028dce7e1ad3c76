import json
import math

import numpy as np
import pytest

from ncmetric.cli import main
from ncmetric.domains import ball_domain, domain_to_json
from ncmetric.matcore import mat_to_json
from ncmetric.ncfunc import Polynomial, func_to_json
from ncmetric.ncpoint import point, point_to_json


def _dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def ball_files(tmp_path):
    return {
        "domain": _dump(tmp_path, "ball.json", domain_to_json(ball_domain())),
        "a": _dump(tmp_path, "a.json", point_to_json(point([[0.0]]))),
        "c": _dump(tmp_path, "c.json", point_to_json(point([[0.5]]))),
        "b": _dump(tmp_path, "b.json", mat_to_json(np.array([[1.0]]))),
    }


def test_delta_reports_every_route(ball_files, tmp_path, capsys):
    out = tmp_path / "delta.csv"
    code = main(
        [
            "delta",
            "--domain",
            ball_files["domain"],
            "--a",
            ball_files["a"],
            "--c",
            ball_files["c"],
            "--b",
            ball_files["b"],
            "--tol",
            "1e-7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 1
    methods = {r["method"] for r in payload["results"]}
    assert methods == {"ray", "closed_ball", "kernel"}
    want = 1.0 / math.sqrt(1.0 - 0.25)  # (1-aa*)^(-1/2) b (1-c*c)^(-1/2) at a=0
    for r in payload["results"]:
        assert r["value"] == pytest.approx(want, abs=5e-6)
    lines = out.read_text().splitlines()
    assert lines[0] == "level,method,value,bracket_lo,bracket_hi,iterations"
    assert len(lines) == 4


def test_distance_payload_values(ball_files, capsys):
    code = main(
        [
            "distance",
            "--domain",
            ball_files["domain"],
            "--a",
            ball_files["a"],
            "--c",
            ball_files["c"],
            "--refine",
            "4",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_upper"]["value"] == pytest.approx(math.atanh(0.5), abs=1e-4)
    dt = payload["dtilde_upper"]
    assert dt["value"] <= dt["stage_values"][0] + 1e-12
    assert len(dt["division"]) >= 2


@pytest.mark.parametrize("quad", ["0", "-2"])
def test_distance_without_quadrature_nodes_is_exit_3(ball_files, capsys, quad):
    argv = ["distance", "--domain", ball_files["domain"], "--a", ball_files["a"],
            "--c", ball_files["c"], "--quad-points", quad]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "--quad-points must be at least 1" in captured.err
    assert captured.out == ""


def test_contract_exit_codes(tmp_path, ball_files, capsys):
    half = _dump(tmp_path, "half.json", func_to_json(Polynomial((0.0, 0.5))))
    double = _dump(tmp_path, "double.json", func_to_json(Polynomial((0.0, 2.0))))
    base = [
        "contract",
        "--src",
        ball_files["domain"],
        "--dst",
        ball_files["domain"],
        "--samples",
        "4",
        "--seed",
        "3",
    ]
    code = main(base + ["--function", half])
    ok_payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert ok_payload["ok"] and ok_payload["samples"] == 4
    code = main(base + ["--function", double])
    bad_payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not bad_payload["ok"]
    assert bad_payload["violations"]
    for levels in (",", ""):
        code = main(base + ["--function", half, "--levels", levels])
        assert code == 3
        assert "at least one level" in capsys.readouterr().err


def test_convolve_csv_deterministic(capsys):
    argv = [
        "convolve",
        "--law",
        "bernoulli",
        "--rho-t",
        "2",
        "--xmin",
        "-2.5",
        "--xmax",
        "2.5",
        "--points",
        "21",
        "--eps",
        "1e-2",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "x,density,residual,iterations"
    assert len(lines) == 22


def test_convolve_out_file_summary(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code = main(
        [
            "convolve",
            "--law",
            "semicircle",
            "--rho-t",
            "2",
            "--xmin",
            "-3.2",
            "--xmax",
            "3.2",
            "--points",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["points"] == 9
    assert summary["converged"] == 9
    assert summary["out"] == str(out)
    assert out.read_text().startswith("x,density,residual,iterations\n")


def test_props_runs_are_byte_identical(capsys):
    assert main(["props", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["props", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    header, *rows = first.rstrip("\n").split("\n")
    assert header == "check,samples,worst,tol,status"
    assert rows and all(r.endswith(",pass") for r in rows)


def test_counterexample_reproduces(capsys):
    code = main(["counterexample", "--samples", "10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix_convexity"]["reproduced"]
    assert payload["bounded_tilde"]["reproduced"]
    assert payload["bounded_tilde"]["ball_tilde_at_r"] > 10.0


def test_missing_input_file_is_exit_3(ball_files, capsys):
    code = main(
        [
            "delta",
            "--domain",
            ball_files["domain"],
            "--a",
            "/nonexistent/a.json",
            "--c",
            ball_files["c"],
            "--b",
            ball_files["b"],
        ]
    )
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_missing_required_flag_is_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["delta"])
    assert exc.value.code == 3


def test_unknown_choice_is_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convolve", "--law", "poisson", "--rho-t", "2", "--xmin", "0", "--xmax", "1"])
    assert exc.value.code == 3


def test_convolve_without_rho_is_exit_3(capsys):
    code = main(["convolve", "--law", "bernoulli", "--xmin", "0", "--xmax", "1"])
    assert code == 3
    assert "provide --rho or --rho-t" in capsys.readouterr().err


def test_point_outside_domain_is_exit_3(tmp_path, ball_files, capsys):
    far = _dump(tmp_path, "far.json", point_to_json(point([[1.5]])))
    code = main(
        [
            "delta",
            "--domain",
            ball_files["domain"],
            "--a",
            far,
            "--c",
            ball_files["c"],
            "--b",
            ball_files["b"],
        ]
    )
    assert code == 3
