import gc
import hashlib
import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmetric.cli
import ncmetric.domains
import ncmetric.metric
from ncmetric import props
from ncmetric.cli import main
from ncmetric.domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    EvaluationFailure,
    HalfPlaneKernel,
    KernelDomain,
    NilpotentCone,
    NormBound,
    PointOutsideDomain,
    SpectralDisk,
    ball_domain,
    halfplane_domain,
)
from ncmetric.freeprob import MaxIterExceeded, NotInHalfPlane, RangeViolation, SingularResolvent
from ncmetric.matcore import (
    FactorizationFailure,
    InputError,
    NcmetricError,
    NonHermitianInput,
    NotPositiveDefinite,
    NumericalFailure,
    SingularMatrix,
    mat_to_json,
    to_json,
)
from ncmetric.metric import RAY_TOL, NestingViolation, PathBlocked
from ncmetric.ncfunc import CayleyLike, DomainViolation, MoebiusBall, Polynomial, SeriesNotConverged
from ncmetric.ncpoint import BaseDimMismatch, DimMismatch, NcDirection, NcPoint, NotUnitary, direction, point
from ncmetric.sampling import SamplingFailure

import oracles


EPS = np.finfo(float).eps


def _near_ray_values(new, old, terms=1):
    # old values were sums of `terms` ray-search midpoints below 1, each
    # within RAY_TOL / 2 of the exact delta its bracket holds
    for x, y in zip(new, old, strict=True):
        assert abs(x - y) <= terms * RAY_TOL / 2


def _near_eigh_rows(new, old):
    # old CSV rows were frozen while the delta formulas whitened with an
    # eigendecomposition (psd_inv_sqrt), not a Cholesky factor; each value
    # is the same number up to a few eps of roundoff
    for x, y in zip(new, old, strict=True):
        assert list(map(float, x.split(","))) == pytest.approx(list(map(float, y.split(","))), rel=8 * EPS, abs=0.0)


def _dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def ball_files(tmp_path):
    return {
        "domain": _dump(tmp_path, "ball.json", to_json(ball_domain())),
        "a": _dump(tmp_path, "a.json", to_json(point([[0.0]]))),
        "c": _dump(tmp_path, "c.json", to_json(point([[0.5]]))),
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


def test_delta_checks_each_endpoint_once(ball_files, monkeypatch, capsys):
    # the ray row checks a and c; the closed-form and kernel rows reuse that check
    checked = []
    real = ncmetric.metric.require_inside

    def counted(domain, a, *args, **kwargs):
        checked.append(args[-1] if args else kwargs.get("name"))
        return real(domain, a, *args, **kwargs)

    monkeypatch.setattr(ncmetric.metric, "require_inside", counted)
    argv = ["delta"] + [x for k in ("domain", "a", "c", "b") for x in (f"--{k}", ball_files[k])]
    assert main(argv) == 0
    assert [r["method"] for r in json.loads(capsys.readouterr().out)["results"]] == ["ray", "closed_ball", "kernel"]
    assert checked == ["a", "c"]


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


def test_distance_spectral_disk_frozen(tmp_path, capsys):
    # a level-2 pair: delta on the disk is the ball's at its norm cap
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    a = point([[0.1 + 0.05j, 0.3], [0.0, -0.2]])
    c = point([[-0.15, 0.1j], [0.25, 0.2 + 0.1j]])
    out = tmp_path / "distance.json"
    argv = ["distance", "--domain", _dump(tmp_path, "disk.json", to_json(disk)),
            "--a", _dump(tmp_path, "a.json", to_json(a)),
            "--c", _dump(tmp_path, "c.json", to_json(c)),
            "--refine", "2", "--quad-points", "32", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    payload = json.loads(printed)
    dt, du = payload["dtilde_upper"], payload["d_upper"]
    assert dt["value"] == 0.6571378798107129
    assert dt["stage_values"] == [0.7030587008464345, 0.6670212980252466, 0.6604791938752242, 0.6571378798107129]
    assert dt["diagnostics"] == [] and len(dt["division"]) == 6
    assert du["value"] == 0.6552347021387588
    assert du["quad_estimate"] == 7.587832074307244e-05
    assert du["points_used"] == 32
    # the values frozen while delta whitened with an eigendecomposition, not
    # a Cholesky factor: sums of deltas, each moved by a few eps at most
    eigh_stages = [0.7030587008464348, 0.667021298025247, 0.6604791938752244, 0.657137879810713]
    assert dt["stage_values"] == pytest.approx(eigh_stages, rel=8 * EPS, abs=0.0)
    assert du["quad_estimate"] == pytest.approx(7.587832074318346e-05, rel=0.0, abs=8 * EPS * du["value"])
    # the values the ray search froze, with 1, 2, 3 and 5 pairs per stage
    ray_stages = [0.703058569217232, 0.6670212403848435, 0.6604787658851825, 0.6571373195474552]
    for terms, new, old in zip((1, 2, 3, 5), dt["stage_values"], ray_stages):
        _near_ray_values([new], [old], terms)
    _near_ray_values([du["value"]], [0.6552346388282818])
    _near_ray_values([du["quad_estimate"]], [7.576873709147502e-05], terms=2)


@pytest.mark.parametrize("quad", ["0", "-2"])
def test_distance_without_quadrature_nodes_is_exit_3(ball_files, capsys, quad):
    argv = ["distance", "--domain", ball_files["domain"], "--a", ball_files["a"],
            "--c", ball_files["c"], "--quad-points", quad]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "--quad-points must be at least 1" in captured.err
    assert captured.out == ""


def test_contract_exit_codes(tmp_path, ball_files, capsys):
    half = _dump(tmp_path, "half.json", to_json(Polynomial((0.0, 0.5))))
    double = _dump(tmp_path, "double.json", to_json(Polynomial((0.0, 2.0))))
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
    f = _dump(tmp_path, "f.json", to_json(func))
    d = _dump(tmp_path, "dom.json", to_json(dom))
    return ["contract", "--function", f, "--src", d, "--dst", d, "--samples", "6",
            "--levels", "1,2,3", "--seed", "11", "--out", str(out)]


def test_contract_frozen_outputs(tmp_path, capsys):
    # levels 1, 2, 3 interleave: three shape groups of two samples, each stacked
    out = tmp_path / "moebius.csv"
    argv = _contract_argv(tmp_path, MoebiusBall(0.3 - 0.2j), ball_domain(), out)
    assert main(argv + ["--equality"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "ok": true,\n  "samples": 6,\n  "violations": [],\n'
        '  "worst_abs_gap": 4.440892098500626e-16,\n'
        '  "worst_excess": 4.440892098500626e-16\n}\n'
    )
    rows = [
        "0.4144454846328354,0.4144454846328353",
        "0.4885856065379518,0.4885856065379517",
        "0.9134884369706394,0.9134884369706392",
        "0.3092647401134443,0.30926474011344435",
        "0.9104437677297483,0.9104437677297487",
        "0.9154597906640892,0.9154597906640888",
    ]
    assert out.read_text() == "lhs,rhs\n" + "".join(row + "\n" for row in rows)
    # the values frozen while delta whitened with an eigendecomposition, not
    # a Cholesky factor, when worst_abs_gap read 7.771561172376096e-16
    eigh_rows = [
        "0.4144454846328354,0.4144454846328353",
        "0.48858560653795186,0.4885856065379518",
        "0.9134884369706396,0.91348843697064",
        "0.3092647401134443,0.30926474011344435",
        "0.9104437677297483,0.9104437677297489",
        "0.9154597906640891,0.9154597906640883",
    ]
    _near_eigh_rows(rows, eigh_rows)
    # the spectral disk takes its exact delta on both sides
    out = tmp_path / "halve.csv"
    disk = SpectralDisk(0.0, 0.5, NormBound("constant", 1.0))
    assert main(_contract_argv(tmp_path, Polynomial((0.0, 0.5)), disk, out)) == 0
    assert capsys.readouterr().out == (
        '{\n  "ok": true,\n  "samples": 6,\n  "violations": [],\n'
        '  "worst_excess": -0.1333718119560046\n}\n'
    )
    rows = [
        "0.15740433245191662,0.3420191568735881",
        "0.20377353332158704,0.4370875839876311",
        "0.423811815954206,0.85187923727925",
        "0.11105797554405833,0.24442978750006292",
        "0.41865376165570517,0.8580757807033615",
        "0.45378955847018754,0.9084943339307212",
    ]
    assert out.read_text() == "lhs,rhs\n" + "".join(row + "\n" for row in rows)
    eigh_rows = [
        "0.15740433245191662,0.3420191568735881",
        "0.20377353332158699,0.437087583987631",
        "0.42381181595420614,0.8518792372792501",
        "0.11105797554405833,0.24442978750006292",
        "0.41865376165570506,0.8580757807033615",
        "0.4537895584701875,0.9084943339307212",
    ]
    _near_eigh_rows(rows, eigh_rows)
    # the values the ray search froze; worst_excess is a difference of two
    ray_rows = [
        "0.15740413829635302,0.3420195992224584",
        "0.20377380784007537,0.4370876938201608",
        "0.42381193733319966,0.8518792182128674",
        "0.11105801330735969,0.2444301472310756",
        "0.41865371363073967,0.858075864447895",
        "0.4537895278943639,0.9084939544262773",
    ]
    for new, old in zip(rows, ray_rows, strict=True):
        _near_ray_values(map(float, new.split(",")), map(float, old.split(",")))
    _near_ray_values([-0.1333718119560046], [-0.13337213392371589], terms=2)


# (function, domain, equality) of each source kind; the domain is source and target
CONTRACT_KINDS = {
    "ball": (MoebiusBall(0.3 - 0.2j), ball_domain(), True),
    "composed_ball": (Polynomial((0.0, 0.5)), KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0)))), False),
    "half_plane": (CayleyLike(1.5, 0.3), halfplane_domain(), True),
    "composed_half_plane": (
        Polynomial((0.0, 1.0)), KernelDomain(ComposedHalfPlaneKernel(Polynomial((-5j, 1.0)))), True,
    ),
    "spectral_disk": (Polynomial((0.0, 0.5)), SpectralDisk(0.0, 0.5, NormBound("constant", 1.0)), False),
}

# sha256 of (stdout, --out CSV) at 20 samples over levels 1, 2, 3 and seed 5,
# frozen while contract still drew and tested one candidate at a time (the
# ball's CSV re-pinned when 1x1 inverses became reciprocals: one lhs moved
# from 1.2560984884201705 to 1.2560984884201707, and its stdout is unchanged;
# all five when delta whitened with a Cholesky factor, not an eigendecomposition:
# 117 of 200 CSV values moved, each by at most 1.4e-15 relative, worst_excess
# and worst_abs_gap by at most 6.7e-16, and every text and status is unchanged)
CONTRACT_DIGESTS = {
    "ball": ("427fc7f2c0952268de64a05662242ac0a614e2922a2979e71438c010d17b1f05",
             "2d3c7ed649b53d3415cefaa3ffe354e157a7d01be3cc7bc7b4c9b902d5d27e84"),
    "composed_ball": ("e63772c04edc9574200f0050caf84cf98b87836f8e2aac4e8d4cae86739803a6",
                      "f847a1680301bb30d118a04f3ca04dae91c351d96fb3f5fc37077c6d6c6eca82"),
    "half_plane": ("0a66a4ecaaf1be6c553e29c4feaf258526830f629fe833a20ea6eb8a2354e2ed",
                   "3ab70ef54f744b56b881f1f924809532ec45b9b452d638e60293eea670168e03"),
    "composed_half_plane": ("9c792e266eb8d89a7b4c69040b82c69392427c2393a40d12fabd7d7b125bbb49",
                            "687b60c930083d36b60f865a25e875ec26599208fbec4f6c7e545a09b8844e9f"),
    "spectral_disk": ("85404bc610e93836edbf5a2b5e44a2af31ded8bd745882b82482563c5c33dbbf",
                      "32e054ffa11a4c3ffe74d88717f1c289893f2323639c8d77d64799a5b00514e3"),
}


def _kind_argv(tmp_path, kind):
    func, dom, equality = CONTRACT_KINDS[kind]
    f = _dump(tmp_path, "f.json", to_json(func))
    d = _dump(tmp_path, "dom.json", to_json(dom))
    argv = ["contract", "--function", f, "--src", d, "--dst", d, "--samples", "20",
            "--levels", "1,2,3", "--seed", "5", "--out", str(tmp_path / f"{kind}.csv")]
    return argv + ["--equality"] * equality


@pytest.mark.parametrize("kind", sorted(CONTRACT_KINDS))
def test_contract_outputs_frozen_for_each_source_kind(tmp_path, capsys, kind):
    assert main(_kind_argv(tmp_path, kind)) == 0
    stdout = capsys.readouterr().out.encode()
    csv = (tmp_path / f"{kind}.csv").read_bytes()
    assert (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(csv).hexdigest()) == CONTRACT_DIGESTS[kind]


def test_contract_tests_its_candidates_with_one_contains_per_level(tmp_path, capsys, monkeypatch):
    # the sampler looks contains up in domains when it runs; the calls
    # made before check_contraction starts are the sampler's
    shapes, sampled = [], []
    real_contains, real_check = ncmetric.domains.contains, ncmetric.cli.check_contraction

    def counted(domain, a, *args):
        shapes.append(a.mat.shape)
        return real_contains(domain, a, *args)

    def check(*args, **kwargs):
        sampled.extend(shapes)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(ncmetric.domains, "contains", counted)
    monkeypatch.setattr(ncmetric.cli, "check_contraction", check)
    assert main(_kind_argv(tmp_path, "ball")) == 0
    # two points per sample and two ball candidates per point, all inside in round 1:
    # levels 1 and 2 hold seven samples each, level 3 six
    assert sampled == [(28, 1, 1), (28, 2, 2), (24, 3, 3)]


def _delta_point(kind, rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind in ("half_plane", "composed_half_plane"):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        shift = 5.0 if kind == "composed_half_plane" else 0.0  # g(z) = z - 5i needs Im a > 5
        return (g + g.conj().T) / 2 + 1j * (w @ w.conj().T / n + (0.4 + shift) * np.eye(n))
    if kind == "nilpotent_cone":
        return np.triu(g, 1)
    if kind == "spectral_disk":
        g = g + g.conj().T
    fill = {"ball": 0.7, "composed_ball": 0.35, "spectral_disk": 0.45}[kind]
    return g * (fill * rng.uniform(0.15, 1.0) / np.linalg.norm(g, 2))


# the domain of each kind the delta digests cover
DELTA_KINDS = {
    "ball": ball_domain(),
    "half_plane": halfplane_domain(),
    "composed_ball": KernelDomain(ComposedBallKernel(Polynomial((0.0, 2.0)))),
    "composed_half_plane": KernelDomain(ComposedHalfPlaneKernel(Polynomial((-5j, 1.0)))),
    "spectral_disk": SpectralDisk(0.0, 0.5, NormBound("constant", 1.0)),
    "nilpotent_cone": NilpotentCone(),
}

# sha256 of the stdout and of the --out CSV of `delta`, each concatenated
# over level pairs (1, 1), (1, 2), (2, 2), base dimensions 1 and 2 and
# --tol 1e-6, 1e-12 and 1e-16; frozen while the ray search still made
# one membership test per call (the four kernel kinds and the notes re-pinned
# when delta whitened with a Cholesky factor, not an eigendecomposition: only
# closed and kernel values moved, 174 of the 943 CSV numbers, each by at most 1.1e-15
# relative, and every ray bracket, iteration count and note is unchanged)
DELTA_DIGESTS = {
    "ball": ("7218aa405a811601f0f35236d4bf7960e1df785a2014bc49d64b2a822fe3b270",
             "0bc5415db1c5f1a2fb096030171a6fb19467956c339c06a3b9e97178c845c709"),
    "composed_ball": ("ed0bfc69ec0ce1739b815888df075f0261e0b0db212ef083f85e9c5e275db056",
                      "7919734667eb107abdd88f475b671e575a8986df0b8262a861aeec0abb6ae4eb"),
    "composed_half_plane": ("2ec10cd9f3831c6f30adb2210913460a6e87275b440e603ecec0e53dbd19c5e0",
                            "0f61a08d4d9bdaa82297b6a4a98ae3d01463656979a580b076b02a79b682f683"),
    "half_plane": ("38d434ab45066a8e4180d0e5b8d4ea31fdfc10e158bf40f06b5490ba4e07d066",
                   "4d8c78040819e6b5d92c60282fa3f8c94b53fe7bdf862c358e2ab5413e97e7a8"),
    "nilpotent_cone": ("8cfb2afa14426c20fd8615fbd2aa3a24a7bea17446bfeaf080580a85ddd92d79",
                       "e005a829bcf9990c60ae08f97d27bb7b07040806d7dd2c7fb55c892e2355be86"),
    "spectral_disk": ("660b2183c5d48e7aa3174a1b645bd614cebf4d76c6017577886c096f1d2155d6",
                      "ef905103041d6234c3bd7aeacb6a52fc231dafc8f4d48f6cbe69d449a619479b"),
    "notes": ("f90b2665ac39bb56e6cdd7a095d74fed6a92120e317078540160d9fd4d6a8820",
              "53e8c75cd86ba163ef0cc45530b05dfe9f9197098c6d22291c2703b6d75b08a5"),
}


def _delta_outputs(tmp_path, capsys, domain, triples, tols):
    """The stdout of `delta` on each triple at each tolerance, and its --out CSVs concatenated."""
    dom = _dump(tmp_path, "dom.json", to_json(domain))
    out = tmp_path / "delta.csv"
    stdouts, csv = [], b""
    for a, c, b in triples:
        files = [x for name, obj in (("a", a), ("c", c), ("b", b))
                 for x in (f"--{name}", _dump(tmp_path, f"{name}.json", to_json(obj)))]
        for tol in tols:
            assert main(["delta", "--domain", dom, *files, "--tol", tol, "--out", str(out)]) == 0
            stdouts.append(capsys.readouterr().out)
            csv += out.read_bytes()
    return stdouts, csv


def _digests(stdouts, csv):
    return hashlib.sha256("".join(stdouts).encode()).hexdigest(), hashlib.sha256(csv).hexdigest()


@pytest.mark.parametrize("kind", sorted(DELTA_KINDS))
def test_delta_outputs_frozen_for_each_domain_kind(tmp_path, capsys, kind):
    rng = np.random.default_rng([19, sorted(DELTA_KINDS).index(kind)])
    triples = []
    for la, lc in ((1, 1), (1, 2), (2, 2)):
        for base in (1, 2):
            na, nc = la * base, lc * base
            b = rng.standard_normal((na, nc)) + 1j * rng.standard_normal((na, nc))
            b *= rng.uniform(0.2, 1.0) / np.linalg.norm(b, 2)
            triples.append((NcPoint(base, la, _delta_point(kind, rng, na)),
                            NcPoint(base, lc, _delta_point(kind, rng, nc)), NcDirection(base, la, lc, b)))
    outputs = _delta_outputs(tmp_path, capsys, DELTA_KINDS[kind], triples, ("1e-6", "1e-12", "1e-16"))
    assert _digests(*outputs) == DELTA_DIGESTS[kind]


def test_delta_outputs_frozen_for_each_ray_note(tmp_path, capsys):
    # on the ball: no direction; one so short the ray stays inside past
    # the growth cap; one so long it leaves before the shrink floor
    a, c = point([[0.3, 0.1j], [0.0, -0.2]]), point([[0.1, 0.0], [0.2, 0.4j]])
    b = np.array([[0.6, 0.2j], [-0.3, 0.5]])
    triples = [(a, c, direction(scale * b)) for scale in (0.0, 1e-10, 1e14)]
    stdouts, csv = _delta_outputs(tmp_path, capsys, ball_domain(), triples, ("1e-6",))
    notes = [json.loads(text)["results"][0].get("note") for text in stdouts]
    assert notes == ["zero direction", "zero within search cap", "no exit above shrink floor"]
    assert _digests(stdouts, csv) == DELTA_DIGESTS["notes"]


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
        f = _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5))))
        dom = ball_files["domain"]
        argv = argv + ["--function", f, "--src", dom, "--dst", dom]
    elif argv[0] == "convolve":
        argv = argv + ["--xmin", "-1", "--xmax", "1"]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


class _Reached(Exception):
    """The command got past its input checks to the work they guard."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("levels, got", [("0", 0), ("1,0", 0), ("-1", -1)])
def test_a_level_below_one_is_exit_3_naming_levels(monkeypatch, tmp_path, ball_files, capsys, levels, got):
    monkeypatch.setattr(ncmetric.cli, "sample_triples", _reached)
    f = _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5))))
    dom = ball_files["domain"]
    argv = ["contract", "--function", f, "--src", dom, "--dst", dom, "--samples", "2"]
    assert main(argv + ["--levels", levels]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: --levels must be at least 1, got {got}\n" and captured.out == ""
    with pytest.raises(_Reached):
        main(argv + ["--levels", "1,2"])


@pytest.mark.parametrize(
    "command, flag, limit",
    [
        ("distance", "--refine", ncmetric.cli.MAX_REFINE),
        ("distance", "--quad-points", ncmetric.cli.MAX_STACK_POINTS),
        ("convolve", "--points", ncmetric.cli.MAX_STACK_POINTS),
        ("contract", "--samples", ncmetric.cli.MAX_STACK_POINTS),
        ("counterexample", "--samples", ncmetric.cli.MAX_STACK_POINTS),
    ],
)
def test_a_stack_over_its_limit_is_exit_3_before_it_is_built(
    monkeypatch, tmp_path, ball_files, capsys, command, flag, limit
):
    # rng_stream starts the sampling of contract and counterexample
    for name in ("dtilde_upper", "d_upper", "density_grid", "rng_stream"):
        monkeypatch.setattr(ncmetric.cli, name, _reached)
    dom = ball_files["domain"]
    argv = {
        "distance": ["distance", "--domain", dom, "--a", ball_files["a"], "--c", ball_files["c"]],
        "convolve": ["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-1", "--xmax", "1"],
        "contract": ["contract", "--function", _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5)))),
                     "--src", dom, "--dst", dom],
        "counterexample": ["counterexample"],
    }[command]
    assert main(argv + [flag, str(limit + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: {flag} must be at most {limit}, got {limit + 1}\n" and captured.out == ""
    with pytest.raises(_Reached):  # the limit itself is allowed
        main(argv + [flag, str(limit)])


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


_EDGE_GRID = ["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-2.4875",
              "--xmax", "2.4875", "--points", "21", "--eps", "1e-3"]


_KRAUS_X = np.array(
    [
        [0.5, 0.3 + 0.2j, 0.0, 0.1 - 0.4j],
        [0.3 - 0.2j, -0.7, 0.25, 0.0],
        [0.0, 0.25, 0.2, -0.6 + 0.1j],
        [0.1 + 0.4j, 0.0, -0.6 - 0.1j, -0.3],
    ]
)


def _kraus_args(tmp_path, v):
    """convolve's --model and --rho for _KRAUS_X over blocks (2, 2), augmented by the one Kraus map v."""
    model = _dump(tmp_path, "model.json", {"variant": "matrix_model", "x": mat_to_json(_KRAUS_X), "blocks": [2, 2]})
    rho = _dump(tmp_path, "rho.json", {"variant": "kraus_augment", "vs": [mat_to_json(v)]})
    return ["convolve", "--model", model, "--rho", rho]


def test_convolve_frozen_outputs(tmp_path, capsys):
    # rows are solved as one stack; x = +-1.99 lie just inside the edge
    assert main(_EDGE_GRID) == 0
    out = capsys.readouterr().out
    assert out == (
        "x,density,residual,iterations\n"
        "-2.4875,0.00024470536344892694,2.220446049250313e-16,5\n"
        "-2.23875,0.0006999697662206093,5.827450446472424e-14,5\n"
        "-1.9899999999999998,1.587619924646061,5.139020265297647e-11,11\n"
        "-1.74125,0.32351859749519296,3.580361673049448e-15,14\n"
        "-1.4925,0.23909104609617157,3.627721779261288e-11,14\n"
        "-1.24375,0.20323265460012516,5.551115123125783e-16,15\n"
        "-0.9950000000000001,0.1834714696329472,3.3766115072321297e-16,15\n"
        "-0.7462500000000001,0.17154360227235904,1.787596980229968e-15,15\n"
        "-0.49750000000000005,0.16431986490573272,7.61858952116235e-15,15\n"
        "-0.24875000000000025,0.16040038532550524,1.804881400830617e-14,15\n"
        "0.0,0.1591549231975312,2.353672812205332e-14,15\n"
        "0.2487499999999998,0.16040038532550524,1.8242957797873e-14,15\n"
        "0.4974999999999996,0.16431986490573272,7.709507714486274e-15,15\n"
        "0.7462499999999999,0.17154360227235904,1.4271872719387392e-15,15\n"
        "0.9949999999999997,0.1834714696329472,3.510833468576701e-16,15\n"
        "1.24375,0.20323265460012516,5.551115123125783e-16,15\n"
        "1.4924999999999997,0.23909104609617152,3.6277397342018956e-11,14\n"
        "1.74125,0.32351859749519296,3.580361673049448e-15,14\n"
        "1.9899999999999993,1.5876199246460254,5.139020265297647e-11,11\n"
        "2.2387499999999996,0.0006999697662206109,5.827447922107811e-14,5\n"
        "2.4875,0.00024470536344892694,2.220446049250313e-16,5\n"
    )
    for line in out.splitlines()[1:]:
        x, density = (float(v) for v in line.split(",")[:2])
        assert density == pytest.approx(-oracles.arcsine_G(complex(x, 1e-3)).imag / math.pi, abs=1e-8)
    out = tmp_path / "kraus.csv"
    argv = [*_kraus_args(tmp_path, np.diag([0.8, 0.8, 0.6, 0.6])), "--xmin", "-2.5", "--xmax", "2.5",
            "--points", "11", "--eps", "1e-2", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"converged": 11, "eps": 0.01, "mass": 0.9717537493310904, "out": str(out), "points": 11}
    assert out.read_text() == (
        "x,density,residual,iterations\n"
        "-2.5,0.0009658976717162007,8.894852771217907e-16,4\n"
        "-2.0,0.0024757786742132418,1.3182594094393014e-12,4\n"
        "-1.5,0.2706971931186225,3.704666423339832e-11,6\n"
        "-1.0,0.6011828819901832,7.346057244653784e-16,9\n"
        "-0.5,0.230580657469326,1.9181492553389518e-15,10\n"
        "0.0,0.21683399493200153,1.6004645656917944e-16,11\n"
        "0.5,0.29267253822811906,1.1247003100708814e-15,10\n"
        "1.0,0.31753271920670373,5.222180388738334e-16,9\n"
        "1.5,0.00911995025504365,3.142675531463723e-16,5\n"
        "2.0,0.0015614986954261298,3.872126627197854e-16,4\n"
        "2.5,0.000734674513367171,7.757919228897728e-18,4\n"
    )
    for line in out.read_text().splitlines()[1:]:
        x, density = (float(v) for v in line.split(",")[:2])
        want = oracles.matrix_model_density(_KRAUS_X, (2, 2), [1.0 + 0.8**2, 1.0 + 0.6**2], complex(x, 1e-2))
        assert density == pytest.approx(want, rel=0, abs=1e-8)


def test_consecutive_calls_behave_like_fresh_processes(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(_EDGE_GRID + ["--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    out.unlink()
    assert main(_EDGE_GRID) == 0
    assert capsys.readouterr().out.startswith("x,density,residual,iterations\n")
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(_EDGE_GRID + ["--no-such-flag"])
    assert exc.value.code == 3
    capsys.readouterr()
    assert main(_EDGE_GRID) == 0


def test_warm_convolve_leaves_no_cyclic_garbage(capsys):
    main(_EDGE_GRID)
    gc.collect()
    gc.disable()
    try:
        assert main(_EDGE_GRID) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


_PROPS_SEED_7 = (
    "check,samples,worst,tol,status\n"
    "eig_reconstruction,20,1.3565697580237572e-15,1e-10,pass\n"
    "norm_unitary_invariance,20,6.583819091601832e-16,1e-10,pass\n"
    "psd_inv_sqrt,20,5.399767553852603e-15,1e-08,pass\n"
    "direct_sum_assoc,10,0.0,0.0,pass\n"
    "amplify_product,10,1.7075780894282496e-16,1e-12,pass\n"
    "unitary_conj_spectrum,15,5.329070518200751e-15,1e-09,pass\n"
    "fdc_identity,18,1.6172686685181527e-16,1e-09,pass\n"
    "function_axioms,12,1.1419539396602546e-13,1e-08,pass\n"
    "moebius_ball_image,20,-0.04384289648921014,0.0,pass\n"
    "kernel_direct_sum_blocks,20,1.176103173279581e-16,1e-12,pass\n"
    "kernel_unitary_intertwine,20,3.473692595673946e-16,1e-10,pass\n"
    "ball_membership_norm,30,0.0,0.0,pass\n"
    "halfplane_membership,40,0.0,0.0,pass\n"
    "oracle_ball,12,3.709661378081819e-08,5e-06,pass\n"
    "oracle_halfplane,12,3.68797422600764e-08,5e-06,pass\n"
    "delta_homogeneity,20,0.0,1e-09,pass\n"
    "delta_unitary_invariance,16,5.551115123125783e-16,1e-08,pass\n"
    "delta_direct_sum_max,10,4.440892098500626e-16,1e-08,pass\n"
    "delta_amplification,16,8.881784197001252e-16,1e-08,pass\n"
    "delta_nondegeneracy,15,-0.240148794127667,0.0,pass\n"
    "tilde_matches_delta,16,8.881784197001252e-16,1e-08,pass\n"
    "ordering_chain,2,0.0,1e-09,pass\n"
    "norm_lower_bound,20,0.0,1e-09,pass\n"
    "upper_semicontinuity,5,0.00013100830733014934,0.001,pass\n"
    "boundary_blowup,7,-1.2115533573603914,0.0,pass\n"
    "spectral_disk_bounded,25,-1.034128465053408,1e-09,pass\n"
    "nesting_halves,20,-0.0040947850722865,1e-08,pass\n"
    "moebius_isometry,12,4.440892098500626e-16,1e-06,pass\n"
    "polynomial_contraction,12,-0.2102897569269361,1e-07,pass\n"
    "resolvent_negative_imag,15,-0.13644779290040385,0.0,pass\n"
    "expectation_axioms,10,1.5334541241777669e-15,1e-12,pass\n"
    "omega_direct_sum,2,2.7755575615628914e-16,1e-08,pass\n"
    "subordination_certificate,15,-0.0499548048643917,0.0,pass\n"
    "schwarz_pick_h0,14,-2.2035754337613722e-12,0.0,pass\n"
    "imh_decay,8,-0.0006863095266754762,0.0,pass\n"
    "gauge_matches_delta,15,1.3322676295501878e-15,1e-10,pass\n"
    "fixed_point_range,3,-9.93021050720921e-10,0.0,pass\n"
)
# the worst of each row that moved when delta whitened with a Cholesky factor,
# not an eigendecomposition: an error or a difference of values near 1
_PROPS_SEED_7_EIGH = {
    "oracle_ball": 3.709661333672898e-08,
    "oracle_halfplane": 3.6879742287831974e-08,
    "delta_unitary_invariance": 9.992007221626409e-16,
    "delta_direct_sum_max": 2.220446049250313e-16,
    "delta_nondegeneracy": -0.24014879412766715,
    "tilde_matches_delta": 1.4432899320127035e-15,
    "upper_semicontinuity": 0.0001310083073299273,
    "nesting_halves": -0.004094785072284363,
    "gauge_matches_delta": 3.1086244689504383e-15,
}


def test_props_runs_are_byte_identical(capsys):
    assert main(["props", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["props", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    # stacked checks must reproduce the sample-by-sample values to the bit
    assert first == _PROPS_SEED_7
    # the ray search froze worst = delta~ - 4/3 at -1.0341283021448275
    _near_ray_values([-1.034128465053408 + 4.0 / 3.0], [-1.0341283021448275 + 4.0 / 3.0])
    header, *rows = first.rstrip("\n").split("\n")
    assert header == "check,samples,worst,tol,status"
    assert rows and all(r.endswith(",pass") for r in rows)
    worst = {name: float(w) for name, _, w, *_ in (r.split(",") for r in rows)}
    for name, old in _PROPS_SEED_7_EIGH.items():
        assert abs(worst[name] - old) <= 16 * EPS


def test_counterexample_reproduces(tmp_path, capsys):
    out = tmp_path / "counterexample.json"
    code = main(["counterexample", "--samples", "10", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    payload = json.loads(printed)
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


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-5e-1"])
@pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--atom"])
def test_a_negative_number_in_scientific_notation_is_a_flag_value(flag, value):
    # argparse's own rule took "-1e-3" for a flag, so "--xmin -1e-3" had no value
    argv = ["convolve", "--law", "point_mass", "--rho-t", "2", "--xmin", "-30", "--xmax", "30"]
    args = ncmetric.cli.build_parser().parse_args(argv + [flag, value])
    assert getattr(args, flag[2:]) == float(value)


def test_negative_flag_values_give_what_their_equals_form_gives(capsys):
    flags = {"--xmin": "-2.5E+1", "--xmax": "-1e-3", "--atom": "-5e-1"}
    argv = ["convolve", "--law", "point_mass", "--rho-t", "2", "--points", "3"]
    assert main(argv + [x for flag, value in flags.items() for x in (flag, value)]) == 0
    spaced = capsys.readouterr()
    assert main(argv + [f"{flag}={value}" for flag, value in flags.items()]) == 0
    assert capsys.readouterr() == spaced and spaced.out.count("\n") == 4


@pytest.mark.parametrize("value", ["-inf", "-nan"])
@pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--atom"])
def test_a_negative_non_number_is_still_no_flag_value(capsys, flag, value):
    argv = ["convolve", "--law", "point_mass", "--rho-t", "2", "--xmin", "-1", "--xmax", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument {flag}: expected one argument\n")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "law, field, value, message",
    [
        ("bernoulli", "variance", 5.0, "variance applies to the semicircle law only, got 5.0 for bernoulli"),
        ("arcsine", "atom", 3.0, "atom applies to the point_mass law only, got (3+0j) for arcsine"),
        ("semicircle", "atom", 3.0, "atom applies to the point_mass law only, got (3+0j) for semicircle"),
    ],
)
def test_a_law_parameter_the_law_ignores_is_exit_3(tmp_path, capsys, law, field, value, message):
    # such a flag used to be dropped, printing the rows of the law's default
    argv = ["convolve", "--rho-t", "2", "--xmin", "-0.5", "--xmax", "0.5", "--points", "3", "--eps", "1e-2"]
    record = {"variant": "scalar_law", "law": law, field: value if field == "variance" else [value, 0.0]}
    for model in (["--law", law, f"--{field}", str(value)], ["--model", _dump(tmp_path, "law.json", record)]):
        assert main(argv + model) == 3
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("eps", ["1e-10", "1e-11"])
def test_an_eps_within_the_half_plane_margin_is_exit_3_naming_eps(capsys, eps):
    # such an eps used to reach the solver, which named its internal point b
    argv = ["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-1", "--xmax", "1", "--points", "3"]
    assert main(argv + ["--eps", eps]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: eps must exceed the half-plane margin 1e-10, got {float(eps)}\n"
    assert captured.out == ""
    assert main(argv + ["--eps", "2e-10"]) == 0
    assert capsys.readouterr().out.startswith("x,density,residual,iterations\n-1.0,")


def test_convolve_without_rho_is_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convolve", "--law", "bernoulli", "--xmin", "0", "--xmax", "1"])
    assert exc.value.code == 3
    assert capsys.readouterr().err.endswith("error: one of the arguments --rho-t --rho is required\n")


@pytest.mark.parametrize(
    "case, flags",
    [
        ("domain_and_kernel", ("--domain", "--kernel")),
        ("model_and_law", ("--model", "--law")),
        ("model_and_variance", ("--model", "--variance")),
        ("model_and_atom", ("--model", "--atom")),
        ("rho_and_rho_t", ("--rho", "--rho-t")),
    ],
)
def test_conflicting_input_flags_are_exit_3_naming_both(tmp_path, ball_files, capsys, case, flags):
    # one flag of each pair used to be dropped, and the command exited 0 on the other
    kernel = _dump(tmp_path, "half_plane.json", to_json(HalfPlaneKernel()))
    rho = _dump(tmp_path, "rho.json", {"variant": "scalar_power", "t": 2.0})
    model = _kraus_args(tmp_path, np.eye(2))[2]
    grid = ["--xmin", "-0.5", "--xmax", "0.5", "--points", "3", "--eps", "1e-2"]
    argv = {
        "domain_and_kernel": ["delta", "--domain", ball_files["domain"], "--kernel", kernel,
                              "--a", ball_files["a"], "--c", ball_files["c"], "--b", ball_files["b"]],
        "model_and_law": ["convolve", "--model", model, "--law", "bernoulli", "--rho", rho] + grid,
        "model_and_variance": ["convolve", "--model", model, "--variance", "4", "--rho", rho] + grid,
        "model_and_atom": ["convolve", "--model", model, "--atom", "1", "--rho", rho] + grid,
        "rho_and_rho_t": ["convolve", "--law", "semicircle", "--rho", rho, "--rho-t", "5"] + grid,
    }[case]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    message = captured.err.splitlines()[-1]
    assert all(re.search(rf"{flag}\b(?!-)", message) for flag in flags), message


def test_point_outside_domain_is_exit_3(tmp_path, ball_files, capsys):
    far = _dump(tmp_path, "far.json", to_json(point([[1.5]])))
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["delta"], "--tol"),
        (["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-1", "--xmax", "1"], "--tol"),
        (["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-1", "--xmax", "1"], "--eps"),
    ],
)
def test_tolerance_that_cannot_work_is_exit_3(tmp_path, ball_files, capsys, argv, flag, value):
    out = tmp_path / "out.csv"
    if argv[0] == "delta":
        argv = argv + [x for k in ("domain", "a", "c", "b") for x in (f"--{k}", ball_files[k])]
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"{flag} must be positive and finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, named",
    [
        ([math.inf, 0.0], "inf"),
        ([0.0, math.nan], "nan"),
        (["0.5", 0.0], "'0.5'"),
        ([0.5, True], "True"),
        ([10**400, 0.0], "an integer of 1329 bits"),
    ],
)
def test_a_matrix_entry_that_is_not_a_finite_number_is_exit_3(tmp_path, ball_files, capsys, entry, named):
    # an infinite direction on the spectral disk used to print "value": Infinity and exit 0
    disk = _dump(tmp_path, "disk.json", to_json(SpectralDisk(0.0, 1.0, NormBound("constant", 2.0))))
    b = _dump(tmp_path, "bad_b.json", {"rows": 1, "cols": 1, "data": [[entry]]})
    out = tmp_path / "out.csv"
    argv = ["delta", "--domain", disk, "--a", ball_files["a"], "--c", ball_files["c"], "--b", b]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and f"got {named}\n" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_a_range_that_would_give_wrong_output_is_exit_3(tmp_path, ball_files, capsys):
    out = tmp_path / "grid.csv"
    argv = ["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "1", "--xmax", "-1", "--points", "5"]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "input error: xmin 1.0 exceeds xmax -1.0" in captured.err and captured.out == ""
    assert not out.exists()

    argv = ["distance", "--domain", ball_files["domain"], "--a", ball_files["a"], "--c", ball_files["c"]]
    assert main(argv + ["--refine", "-3"]) == 3
    captured = capsys.readouterr()
    assert "input error: refinement_budget must be at least 0, got -3" in captured.err and captured.out == ""
    assert main(argv + ["--refine", "0", "--quad-points", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["dtilde_upper"]["stage_values"]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rho-t", "nan", "t must be finite, got nan"),
        ("--rho-t", "inf", "t must be finite, got inf"),
        ("--xmin", "nan", "xmin must be finite, got nan"),
        ("--xmax", "nan", "xmax must be finite, got nan"),
        ("--xmin", "-inf", "xmin must be finite, got -inf"),
        ("--variance", "nan", "variance must be finite, got nan"),
        ("--atom", "inf", "atom must be finite, got (inf+0j)"),
    ],
)
def test_a_non_finite_number_flag_is_exit_3_naming_its_field(tmp_path, capsys, flag, value, message):
    # NaN passes every range comparison and an infinity overflows later,
    # so each is rejected where it enters, before any work
    args = {"--law": "semicircle", "--rho-t": "2", "--xmin": "-1", "--xmax": "1", "--points": "5"}
    args[flag] = value
    out = tmp_path / "grid.csv"
    argv = ["convolve", *(f"{k}={v}" for k, v in args.items()), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf", "-inf"])
def test_a_margin_that_is_not_finite_and_nonnegative_is_exit_3(tmp_path, capsys, value):
    # a negative margin widens the domain the ray search tests, so the
    # routes disagree: ray 0.8219764 against closed_ball 1.0101010
    files = {k: _dump(tmp_path, f"{k}.json", to_json(point([[0.1]]))) for k in ("a", "c")}
    files["b"] = _dump(tmp_path, "b.json", mat_to_json(np.array([[1.0]])))
    files["kernel"] = _dump(tmp_path, "k.json", to_json(BallKernel()))
    argv = ["delta", *(x for k, path in files.items() for x in (f"--{k}", path))]
    assert main(argv + [f"--margin={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: --margin must be finite and at least 0, got {float(value)}\n"
    assert captured.out == ""
    assert main(argv + ["--margin=0"]) == 0
    values = [r["value"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert values == pytest.approx([1.0 / 0.99] * 3, rel=1e-6)


@pytest.mark.parametrize(
    "flag, message",
    [(f"--tol={v}", f"--tol must be finite and at least 0, got {float(v)}") for v in ("nan", "inf", "-inf", "-1")]
    + [(f"--base-dim={v}", f"--base-dim must be at least 1, got {v}") for v in ("0", "-1")],
)
def test_a_contract_flag_out_of_its_range_is_exit_3(tmp_path, ball_files, capsys, flag, message):
    # --tol nan failed and inf passed every map, and --tol 0 stays valid;
    # --base-dim -1 failed inside numpy without naming the flag
    out = tmp_path / "out.csv"
    dom = ball_files["domain"]
    f = _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5))))
    argv = ["contract", "--function", f, "--src", dom, "--dst", dom, "--samples", "3", "--out", str(out)]
    assert main(argv + [flag]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == "" and not out.exists()
    assert main(argv + ["--tol=0"]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [["props"], ["counterexample", "--samples", "2"], ["contract"]])
def test_a_seed_outside_the_generator_range_is_exit_3(tmp_path, ball_files, capsys, argv, seed):
    if argv[0] == "contract":
        f = _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5))))
        argv = argv + ["--function", f, "--src", ball_files["domain"], "--dst", ball_files["domain"]]
    assert main(argv + ["--seed", seed]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: seed must be in [0, 2^64), got {seed}\n"
    assert captured.out == ""


def test_a_solve_that_leaves_the_half_plane_is_exit_4(capsys):
    # valid input: at t = 1e300 the roundoff in Im h(b) takes the first
    # Picard update far below the real axis
    argv = ["convolve", "--law", "bernoulli", "--rho-t", "1e300", "--xmin", "0", "--xmax", "1", "--points", "2"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "numerical failure: an iterate left the half-plane: "
        "lambda_min(Im w) / max(1, ||Im w||) = -1.000e+00, not above 1e-10\n"
    )


def test_a_grid_that_does_not_converge_prints_its_rows_and_is_exit_4(capsys):
    # valid input: at t = 1e150 the iterates stay in the half-plane, but
    # roundoff at the scale of (t - 1) h keeps both rows from converging
    argv = ["convolve", "--law", "bernoulli", "--rho-t", "1e150", "--xmin", "0", "--xmax", "1", "--points", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    assert captured.err == "" and header == "x,density,residual,iterations"
    assert [row.split(",")[0] for row in rows] == ["0.0", "1.0"]
    assert all(row.endswith(",200") and float(row.split(",")[2]) > 1e-9 for row in rows)


@pytest.mark.parametrize("scale", [1e80, 1e100, 1e140, 1e150, 1e160])
def test_a_kraus_map_that_overflows_the_solve_is_exit_4_in_one_line(tmp_path, capsys, scale):
    # valid input; rho - Id weighs each block by |v|^2 = scale^2, which is
    # 1e160, 1e200, 1e280, 1e300 or overflows to inf; the solve fails as a
    # numerical failure, where numpy's eigvalsh once failed on it as an input
    # error (exit 3) after two warnings. Below the overflow, F - w cancels at
    # the scale of |v|^2 h, so roundoff alone steers each row's iterates, and
    # the first row in grid order to fail names the check it failed
    argv = _kraus_args(tmp_path, scale * np.eye(4)) + ["--xmin", "-1", "--xmax", "1", "--points", "3", "--eps", "1e-2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    if scale == 1e160:
        # the Picard update is not finite, and the Jacobian's inverse meets it
        assert captured.err == "numerical failure: inverse failure: Array must not contain infs or NaNs\n"
    elif scale == 1e100:
        # row x = -1 runs out of budget; row x = 0 keeps an iterate that
        # overflowed, and its Im is named, as a ratio of the half-plane rule
        # would drop the NaN and read as passing
        assert captured.err == "numerical failure: an iterate left the half-plane: Im w is not finite\n"
    elif scale in (1e140, 1e150):
        # row x = -1 keeps an iterate whose Im is finite but numerically singular next to its norm
        assert captured.err.startswith("numerical failure: an iterate left the half-plane: lambda_min(Im w) / ")
    else:
        # row x = -1's F - w leaves Im h below zero
        assert captured.err.startswith("numerical failure: Im h dropped below zero beyond roundoff; ")
    # a printed ratio of the half-plane rule is one that fails it
    for ratio in re.findall(r"= (\S+), not above 1e-10", captured.err):
        assert not float(ratio) > 1e-10


# the exit code of every error class the package defines
EXIT_CODES = {
    NonHermitianInput: 3,
    NotUnitary: 3,
    BaseDimMismatch: 3,
    DimMismatch: 3,
    PointOutsideDomain: 3,
    DomainViolation: 3,
    NotInHalfPlane: 3,
    NestingViolation: 3,
    SingularMatrix: 4,
    NotPositiveDefinite: 4,
    FactorizationFailure: 4,
    SeriesNotConverged: 4,
    EvaluationFailure: 4,
    SingularResolvent: 4,
    MaxIterExceeded: 4,
    RangeViolation: 4,
    PathBlocked: 4,
    SamplingFailure: 4,
}


def test_every_error_exits_with_the_code_of_its_one_base(monkeypatch, capsys):
    defined, todo = set(), [NcmetricError]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("ncmetric.") and cls not in defined:
                defined.add(cls)
                todo.append(cls)
    assert defined - {InputError, NumericalFailure} == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert issubclass(cls, InputError) != issubclass(cls, NumericalFailure), cls

        def fail(seed, cls=cls):
            raise cls("planted")

        monkeypatch.setattr(props, "run_suite", fail)
        assert main(["props"]) == code, cls
        captured = capsys.readouterr()
        prefix = "input error" if code == 3 else "numerical failure"
        assert captured.err == f"{prefix}: planted\n" and captured.out == "", cls


@st.composite
def _convolve_argv(draw, tmp):
    """convolve's argv: a law or a model file, a rho-t or a rho file, and the grid flags. One input, or
    none, is spoiled: mistyped, non-finite, of the wrong shape or over the wrong blocks. The Kraus
    maps reach 1e80-1e160, which is valid input that the solve may fail on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spoiled = draw(st.sampled_from(
        [None, None, None, "law", "model", "x", "blocks", "rho", "v", "t", "--xmin", "--xmax", "--points", "--eps",
         "--max-iter", "--tol"]
    ))

    def pick(name, valid, invalid):
        return draw(st.sampled_from(invalid if name == spoiled else valid))

    def matrix(name, n, scale=1.0, block_scalar=None):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2 if block_scalar is None else np.diag(np.repeat(rng.uniform(0.1, 1.0, len(block_scalar)), block_scalar))
        obj = mat_to_json(scale * m)
        spoil = pick(name, [None], ["nan", "string", "rows", "bits", "shape", "asymmetric"])
        if spoil == "nan":
            obj["data"][0][0][0] = math.nan
        elif spoil == "string":
            obj["data"][0][0][1] = "1"
        elif spoil == "rows":
            obj["rows"] += 1
        elif spoil == "bits":
            obj["data"][0][0][0] = 10**400
        elif spoil == "shape":
            obj = mat_to_json(np.ones((n + 1, n)))
        elif spoil == "asymmetric":
            obj["data"][0][-1] = [5.0, 1.0]
        return obj

    def dump(name, obj):
        path = tmp / f"{name}-{draw(st.integers(0, 10**9))}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    argv, blocks = ["convolve"], [1]
    if draw(st.booleans()):
        kind = pick("law", ["bernoulli", "semicircle", "arcsine", "point_mass"], ["cauchy", ""])
        argv += ["--law", kind]
        if kind == "semicircle" or spoiled == "law":
            argv += ["--variance", pick("law", ["1", "0.5", "2"], ["0", "nan", "inf", "1e400", "abc"])]
        if kind == "point_mass" or spoiled == "law":
            argv += ["--atom", pick("law", ["0", "0.3", "-1"], ["nan", "-inf", "x"])]
    else:
        blocks = pick("blocks", [[2, 2], [1, 3], [4]], [[2, 1], [0, 4], [2.0, 2], ["2", 2], [], 4, [-1, 5]])
        model = {"variant": "matrix_model", "x": matrix("x", 4), "blocks": blocks}
        argv += ["--model", dump("model", model) if spoiled != "model" else str(tmp / "missing.json")]
    if draw(st.booleans()):
        argv += ["--rho-t", pick("t", ["1", "2", "1.5"], ["0.5", "nan", "inf", "-1", "abc", "1e400"])]
    else:
        scale = draw(st.sampled_from([1.0, 0.7, 1e80, 1e120, 1e160]))
        sizes = blocks if isinstance(blocks, list) and all(type(k) is int and k > 0 for k in blocks) else [4]
        vs = [matrix("v", sum(sizes), scale, block_scalar=sizes)]
        rho = {"variant": "kraus_augment", "vs": pick("rho", [vs], [[], [mat_to_json(np.ones((4, 4)))], "v"])}
        if draw(st.booleans()):
            rho = {"variant": "scalar_power", "t": pick("rho", [2.0, 1.0, 3.5], [0.5, math.inf, math.nan, "2", 10**400])}
        argv += ["--rho", dump("rho", rho)]
    for flag, valid, invalid in (
        ("--xmin", ["-1", "-2.5", "-1.99"], ["nan", "inf", "abc", "3"]),
        ("--xmax", ["1", "2.5", "1.99"], ["-inf", "1e400", "x", "-3"]),
        ("--points", ["1", "3", "5"], ["0", "-2", "2.5", "x", "100000"]),
        ("--eps", ["1e-2", "1e-3", "0.5"], ["0", "nan", "1e-12", "-1"]),
        ("--max-iter", ["5", "30", "12"], ["0", "x", "-3"]),
        ("--tol", ["1e-9", "1e-6"], ["0", "nan", "-1e-9"]),
    ):
        if flag in ("--xmin", "--xmax", "--points") or draw(st.booleans()):
            argv += [flag, pick(flag, valid, invalid)]
    if draw(st.booleans()):
        argv += ["--out", str(tmp / "grid.csv")]
    return argv


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite JSON number {name}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_convolve_input_contract(tmp_path_factory, data):
    # exit 0, 3 or 4 and never a traceback; an input error prints nothing on
    # stdout; any other output is strict JSON or a CSV of finite numbers (a
    # solve that fails numerically prints none); no Python warning is raised
    argv = data.draw(_convolve_argv(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 3, 4), (argv, stderr)
    assert "Traceback" not in stderr
    assert [str(w.message) for w in caught] == [], argv
    if code == 3:
        assert stdout == "", argv
    elif stdout.startswith("{"):
        _strict_json(stdout)
    else:
        lines = stdout.splitlines()
        assert lines[:1] in ([], ["x,density,residual,iterations"]), argv
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(",")), (argv, stdout)


def test_a_partly_unconverged_grid_warns_on_stderr(capsys):
    # rows x = -0.995, 0 and 0.995 run out of budget; the CSV and the exit code
    # stay as they are, and one stderr line counts them and names the first
    argv = ["convolve", "--law", "bernoulli", "--rho-t", "2", "--xmin", "-1.99", "--xmax", "1.99",
            "--points", "5", "--eps", "1e-3", "--max-iter", "12"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 3 of 5 rows did not converge in 12 iterations (first at x = -0.995)\n"
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [int(r[3]) for r in rows] == [11, 12, 12, 12, 11]
    assert [float(r[2]) > 1e-9 for r in rows] == [False, True, True, True, False]
    # a grid whose rows all converge warns of nothing
    assert main(argv[:-2]) == 0
    assert capsys.readouterr().err == ""
