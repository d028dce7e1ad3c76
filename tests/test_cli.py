import json
import math

import numpy as np
import pytest

from ncmetric.cli import main
from ncmetric.domains import NormBound, SpectralDisk, ball_domain, domain_to_json
from ncmetric.matcore import mat_to_json
from ncmetric.ncfunc import MoebiusBall, Polynomial, func_to_json
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


def _contract_argv(tmp_path, func, dom, out):
    f = _dump(tmp_path, "f.json", func_to_json(func))
    d = _dump(tmp_path, "dom.json", domain_to_json(dom))
    return ["contract", "--function", f, "--src", d, "--dst", d, "--samples", "6",
            "--levels", "1,2,3", "--seed", "11", "--out", str(out)]


def test_contract_frozen_outputs(tmp_path, capsys):
    # levels 1, 2, 3 interleave: three shape groups of two samples, each stacked
    out = tmp_path / "moebius.csv"
    argv = _contract_argv(tmp_path, MoebiusBall(0.3 - 0.2j), ball_domain(), out)
    assert main(argv + ["--equality"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "ok": true,\n  "samples": 6,\n  "violations": [],\n'
        '  "worst_abs_gap": 7.771561172376096e-16,\n'
        '  "worst_excess": 7.771561172376096e-16\n}\n'
    )
    assert out.read_text() == (
        "lhs,rhs\n"
        "0.4144454846328354,0.4144454846328353\n"
        "0.48858560653795186,0.4885856065379518\n"
        "0.9134884369706396,0.91348843697064\n"
        "0.3092647401134443,0.30926474011344435\n"
        "0.9104437677297483,0.9104437677297489\n"
        "0.9154597906640891,0.9154597906640883\n"
    )
    # the spectral disk takes the ray search on both sides
    out = tmp_path / "halve.csv"
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    assert main(_contract_argv(tmp_path, Polynomial((0.0, 0.5)), disk, out)) == 0
    assert capsys.readouterr().out == (
        '{\n  "ok": true,\n  "samples": 6,\n  "violations": [],\n'
        '  "worst_excess": -0.13337213392371589\n}\n'
    )
    assert out.read_text() == (
        "lhs,rhs\n"
        "0.15740413829635302,0.3420195992224584\n"
        "0.20377380784007537,0.4370876938201608\n"
        "0.42381193733319966,0.8518792182128674\n"
        "0.11105801330735969,0.2444301472310756\n"
        "0.41865371363073967,0.858075864447895\n"
        "0.4537895278943639,0.9084939544262773\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["contract", "--samples", "0"], "--samples"),
        (["contract", "--samples", "-3"], "--samples"),
        (["convolve", "--law", "bernoulli", "--rho-t", "2", "--points", "0"], "--points"),
        (["convolve", "--law", "bernoulli", "--rho-t", "2", "--max-iter", "0"], "--max-iter"),
        (["counterexample", "--samples", "0"], "--samples"),
    ],
)
def test_count_below_one_is_exit_3(tmp_path, ball_files, capsys, argv, flag):
    out = tmp_path / "out.csv"
    if argv[0] == "contract":
        f = _dump(tmp_path, "f.json", func_to_json(Polynomial((0.0, 0.5))))
        dom = ball_files["domain"]
        argv = argv + ["--function", f, "--src", dom, "--dst", dom]
    elif argv[0] == "convolve":
        argv = argv + ["--xmin", "-1", "--xmax", "1"]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


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
