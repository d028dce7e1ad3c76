"""Seeded, stratified inputs for the two workloads, and the per-op checks.

A workload is a list of rounds. A round is the smallest op mix whose
shares are fixed: every round of a workload holds the same op classes
(law or domain, grid size, eps, level, base dimension, refinement) in
the same order, and the seed only changes the continuous data inside
each class (powers, matrices, points, map parameters, sampler seeds).
Runs measure whole rounds, so a new seed changes the inputs but not
what is measured.

Every input is written as JSON into the run's work directory during
set-up; the program receives only those files and argv. The JSON is
written here by hand in the wire format of SCHEMAS.md, so the inputs
do not depend on the package's own codec.

Each op carries what its check needs. The checks compare the printed
numbers with the independent references in tests/oracles.py.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# density grid sizes and smoothing; much smaller than the README's
# 501-point grid so that a run holds well over 100 ops
DENSITY_SIZES = (21, 41, 81)
DENSITY_EPS = (1e-3, 3e-3, 1e-2)
DENSITY_MAX_ITER = 200  # the CLI default; rows at this count are unconverged
# x = +-1.99 is a grid point of linspace(-h, h, n) whenever n - 1 is a
# multiple of 10
EDGE_HALF_WIDTH = 2.4875
# The known edge defect: just inside the edge of the law's support the
# subordination solver can reach the iteration cap and report a wrong
# density. x = +-1.99 on the bernoulli edge grids misses by 1.19; on a
# semicircle grid with a point within 0.013 of 2 sqrt(t) at eps 1e-3 the
# capped rows miss by up to 0.03. Capped rows were seen up to 0.029
# inside the edge, at eps 1e-3 to 1e-2.
EDGE_BAND = 0.05
DENSITY_TOL = 1e-6

DISTANCE_TOL = 1e-4  # acceptance criterion 06
DELTA_TOL = 1e-9
CONTRACT_TOL = 1e-8

BALL = {"variant": "kernel_domain", "kernel": {"variant": "ball"}}
HALF_PLANE = {"variant": "kernel_domain", "kernel": {"variant": "half_plane"}}
TWO_Z = {"variant": "polynomial", "coeffs": [[0.0, 0.0], [2.0, 0.0]]}
COMPOSED_BALL = {"variant": "kernel_domain", "kernel": {"variant": "composed_ball", "g": TWO_Z}}
SPECTRAL_DISK = {
    "variant": "spectral_disk",
    "center": [0.0, 0.0],
    "radius": 0.5,
    "norm_bound": {"rule": "constant", "value": 1.0},
}
DOMAINS = {
    "ball": BALL,
    "half_plane": HALF_PLANE,
    "composed_ball": COMPOSED_BALL,
    "spectral_disk": SPECTRAL_DISK,
}


@dataclass
class Op:
    """One CLI command: argv for ncmetric.cli.main plus what its check needs."""

    kind: str
    argv: list
    ref: dict = field(default_factory=dict)
    out: str | None = None


@dataclass
class Verdict:
    """Outcome of checking one op's output.

    checked counts values compared with a reference, missed those
    outside tolerance; flagged counts the misses that are the known edge
    defect (see check_convolve), capped the checked rows at the
    iteration cap. errors lists broken hard invariants and every other
    miss.
    """

    checked: int = 0
    missed: int = 0
    flagged: int = 0
    capped: int = 0
    errors: list = field(default_factory=list)


# ------------------------------------------------------------ generation


def _cmat(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def _herm(rng, n):
    g = _cmat(rng, n, n)
    return (g + g.conj().T) / 2.0


def _scaled(m, norm):
    return m * (norm / max(1e-12, float(np.linalg.norm(m, 2))))


def _mat_json(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def _point_json(m, base):
    return {"base_dim": base, "level": m.shape[0] // base, "mat": _mat_json(m)}


def _direction_json(m, base):
    return {
        "base_dim": base,
        "row_level": m.shape[0] // base,
        "col_level": m.shape[1] // base,
        "mat": _mat_json(m),
    }


def _c(z):
    return [float(z.real), float(z.imag)]


class _Files:
    """Writes the ops' JSON inputs under the work directory, each
    distinct input once (domains and maps recur across ops)."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.paths = {}

    def write(self, obj) -> str:
        text = json.dumps(obj)
        if text not in self.paths:
            self.count += 1
            path = self.work / f"in{self.count:05d}.json"
            path.write_text(text)
            self.paths[text] = str(path)
        return self.paths[text]

    def out_path(self) -> str:
        self.count += 1
        return str(self.work / f"out{self.count:05d}.csv")


def _convolve(law_args, window, points, eps, ref):
    argv = ["convolve", *law_args, "--xmin", repr(window[0]), "--xmax", repr(window[1]),
            "--points", str(points), "--eps", repr(eps)]
    return Op("convolve", argv, dict(ref, points=points, eps=eps))


def _scalar_grid(law, t, half, points, eps):
    return _convolve(["--law", law, "--rho-t", repr(t)], (-half, half), points, eps,
                     {"law": law, "t": t})


def _matrix_grid(rng, files, points, eps, kraus):
    x = _scaled(_herm(rng, 4), rng.uniform(0.8, 1.2))
    model = {"variant": "matrix_model", "x": _mat_json(x), "blocks": [2, 2]}
    if kraus:
        v = np.diag(np.repeat(rng.uniform(0.5, 1.0, 2), 2)).astype(complex)
        rho = {"variant": "kraus_augment", "vs": [_mat_json(v)]}
        spread = 1.0 + float(np.max(np.abs(v))) ** 2
    else:
        spread = float(rng.uniform(1.5, 3.0))
        rho = {"variant": "scalar_power", "t": spread}
    lam = np.linalg.eigvalsh(x)
    # the support of the convolved law lies in spread * [lambda_min, lambda_max]
    window = (spread * float(lam[0]) - 0.5, spread * float(lam[-1]) + 0.5)
    law_args = ["--model", files.write(model), "--rho", files.write(rho)]
    return _convolve(law_args, window, points, eps, {"law": None})


def density_round(rng, files):
    """12 grids: per size, one bernoulli edge grid at eps 1e-3 (a fixed
    quarter of the ops), one bernoulli, one semicircle and one 4x4
    matrix-model grid. Window = support +- 0.5; the edge window is
    shrunk by 0.0125 so that x = +-1.99 is a grid point."""
    ops = []
    for i, n in enumerate(DENSITY_SIZES):
        t = float(rng.uniform(1.5, 4.0))
        ops += [
            _scalar_grid("bernoulli", 2.0, EDGE_HALF_WIDTH, n, 1e-3),
            _scalar_grid("bernoulli", 2.0, 2.5, n, DENSITY_EPS[i]),
            _scalar_grid("semicircle", t, 2.0 * math.sqrt(t) + 0.5, n, DENSITY_EPS[(i + 1) % 3]),
            _matrix_grid(rng, files, n, DENSITY_EPS[(i + 2) % 3], kraus=i == 1),
        ]
    return ops


def _ball_point(rng, n, lo, hi):
    return _scaled(_cmat(rng, n, n), rng.uniform(lo, hi))


def _halfplane_pair(rng, n):
    """a = H + i, c = H + iY with Y >= 1, so d = log(lambda_max(Y)) / 2."""
    h = _herm(rng, n)
    w = _cmat(rng, n, n)
    y = np.eye(n) + _scaled(w @ w.conj().T, rng.uniform(0.5, 1.5))
    return h + 1j * np.eye(n), h + 1j * y, 0.5 * math.log(float(np.linalg.eigvalsh(y)[-1]))


def _disk_point(rng, n, lo=0.1, hi=0.4):
    return _scaled(_herm(rng, n), rng.uniform(lo, hi))


def distance_round(rng, files):
    """12 pairs: each domain at refine 2, 3, 4 with levels 3, 2, 1 (the
    finest division on the smallest point), alternating base dimension
    and quadrature size."""
    ops = []
    for d, kind in enumerate(DOMAINS):
        for r, refine in enumerate((2, 3, 4)):
            level, base = 3 - r, 1 + (r + d + 1) % 2
            quad = (128, 256)[(r + d) % 2]
            n = level * base
            ref = {"domain": kind, "quad": quad}
            if kind == "ball":
                a, c = np.zeros((n, n)), _ball_point(rng, n, 0.3, 0.7)
                ref["exact"] = math.atanh(float(np.linalg.norm(c, 2)))
            elif kind == "composed_ball":
                a, c = np.zeros((n, n)), _ball_point(rng, n, 0.15, 0.35)
                ref["exact"] = math.atanh(2.0 * float(np.linalg.norm(c, 2)))
            elif kind == "half_plane":
                a, c, ref["exact"] = _halfplane_pair(rng, n)
            else:
                # opposite signs keep ||a - c|| away from 0, where every ray
                # search of the chain starts far from its exit
                a, c = _disk_point(rng, n, 0.25, 0.4), -_disk_point(rng, n, 0.25, 0.4)
            argv = ["distance", "--domain", files.write(DOMAINS[kind]),
                    "--a", files.write(_point_json(a, base)),
                    "--c", files.write(_point_json(c, base)),
                    "--refine", str(refine), "--quad-points", str(quad)]
            ops.append(Op("distance", argv, ref))
    return ops


def _moebius(rng):
    return {"variant": "moebius_ball", "alpha": _c(rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform()))}


def _contract_specs(rng):
    """(function, source, target, equality) for the five contract cases."""
    coeffs = _cmat(rng, 1, 3)[0]
    coeffs *= rng.uniform(0.5, 0.9) / float(np.sum(np.abs(coeffs)))
    poly = {"variant": "polynomial", "coeffs": [_c(z) for z in coeffs]}
    cayley = {"variant": "cayley_like", "beta": [float(rng.uniform(0.5, 2.0)), 0.0],
              "gamma": [float(rng.uniform(-1.0, 1.0)), 0.0]}
    halve = {"variant": "polynomial", "coeffs": [[0.0, 0.0], [0.5, 0.0]]}
    return (
        (_moebius(rng), BALL, BALL, True),
        ({"variant": "composition", "parts": [_moebius(rng), poly]}, BALL, BALL, False),
        (TWO_Z, COMPOSED_BALL, BALL, True),
        (cayley, HALF_PLANE, HALF_PLANE, True),
        (halve, SPECTRAL_DISK, SPECTRAL_DISK, False),
    )


def _delta_triple(rng, kind, la, lc, base):
    na, nc = la * base, lc * base
    if kind == "ball":
        a, c = _ball_point(rng, na, 0.1, 0.7), _ball_point(rng, nc, 0.1, 0.7)
    elif kind == "composed_ball":
        a, c = _ball_point(rng, na, 0.05, 0.35), _ball_point(rng, nc, 0.05, 0.35)
    elif kind == "half_plane":
        a, c = (_halfplane_pair(rng, m)[1] for m in (na, nc))
    else:
        a, c = _disk_point(rng, na), _disk_point(rng, nc)
    return a, c, _scaled(_cmat(rng, na, nc), rng.uniform(0.2, 1.0))


CONTRACT_LEVELS = ("1,2", "2,3", "1,2,3")
# (level of a, level of c, base dimension)
DELTA_SHAPES = (
    (1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 3, 1), (3, 3, 1),
    (1, 1, 2), (2, 1, 2), (2, 2, 2),
)


def contract_round(rng, files):
    """10 contract reports (five maps x 20 and 50 samples), 36 delta
    triples (four domains x nine level/base shapes) and 1 counterexample."""
    ops = []
    for k, (func, src, dst, equality) in enumerate(_contract_specs(rng)):
        for j, samples in enumerate((20, 50)):
            out = files.out_path()
            argv = ["contract", "--function", files.write(func), "--src", files.write(src),
                    "--dst", files.write(dst), "--samples", str(samples),
                    "--levels", CONTRACT_LEVELS[(k + j) % 3],
                    "--seed", str(int(rng.integers(2**31))), "--out", out]
            if equality:
                argv.append("--equality")
            ops.append(Op("contract", argv, {"samples": samples, "equality": equality}, out))
    for kind in DOMAINS:
        for la, lc, base in DELTA_SHAPES:
            a, c, b = _delta_triple(rng, kind, la, lc, base)
            argv = ["delta", "--domain", files.write(DOMAINS[kind]),
                    "--a", files.write(_point_json(a, base)),
                    "--c", files.write(_point_json(c, base)),
                    "--b", files.write(_direction_json(b, base))]
            ops.append(Op("delta", argv, {"domain": kind, "a": a, "c": c, "b": b}))
    ops.append(Op("counterexample", ["counterexample", "--samples", "20",
                                     "--seed", str(int(rng.integers(2**31)))]))
    return ops


def _interleave(groups):
    """The ops of all groups in one list, each group spread evenly over
    it, in a fixed order."""
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for *_, op in sorted(keyed, key=lambda e: e[:2])]


def metric_round(rng, files):
    """60 ops: the 12 distance pairs, the 47 contract-round ops and one
    props suite run with a seed drawn from the workload seed.

    The 36 cheap delta ops are more than half of the round, so that
    op_s.p50 falls well inside their cluster rather than on the edge
    between two classes of close cost. Each kind of op is spread over
    the round rather than run in one block: a round takes about 15 s,
    and the 36 delta ops in a row would take 0.2 s of it, so op_s.p50
    would sample the machine's speed over a fraction of a second per
    round instead of over the whole run."""
    props = Op("props", ["props", "--seed", str(int(rng.integers(2**31)))])
    ops = distance_round(rng, files) + contract_round(rng, files) + [props]
    kinds = ("distance", "contract", "delta", "counterexample", "props")
    return _interleave([[op for op in ops if op.kind == kind] for kind in kinds])


ROUNDS = {"density": density_round, "metric": metric_round}


def generate(workload: str, seed: int, rounds: int, work: Path):
    """rounds seeded rounds of the workload."""
    files = _Files(work)
    rng = np.random.default_rng([seed, list(ROUNDS).index(workload)])
    return [ROUNDS[workload](rng, files) for _ in range(rounds)]


# ------------------------------------------------------------ checks


def _finite_numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return True


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def output_is_finite(stdout: str, out_text: str | None) -> bool:
    """False when the op printed a non-finite number (a failed op)."""
    for text in (stdout, out_text):
        if not text:
            continue
        if text.lstrip().startswith("{"):
            if not _finite_numbers(json.loads(text)):
                return False
            continue
        for row in _csv_rows(text)[1]:
            for cell in row:
                try:
                    if not math.isfinite(float(cell)):
                        return False
                except ValueError:
                    pass
    return True


def _record(v: Verdict, ok: bool, known_defect: bool, what: str):
    v.checked += 1
    if ok:
        return
    v.missed += 1
    if known_defect:
        v.flagged += 1
    else:
        v.errors.append(f"{what} misses its reference")


def _edge_defect(op, x, capped):
    """A capped row within EDGE_BAND inside the edge of the law's support.
    A miss there is the known edge defect: counted, but not an error. A
    miss anywhere else, capped or not, is an error."""
    edge = 2.0 if op.ref["law"] == "bernoulli" else 2.0 * math.sqrt(op.ref["t"])
    return capped and edge - EDGE_BAND <= abs(x) <= edge


def check_convolve(op, stdout, out_text, oracles):
    v = Verdict()
    header, rows = _csv_rows(stdout)
    if header != ["x", "density", "residual", "iterations"] or len(rows) != op.ref["points"]:
        v.errors.append(f"convolve printed {len(rows)} rows, expected {op.ref['points']}")
        return v
    law, eps = op.ref["law"], op.ref["eps"]
    for x, dens, _, iters in rows:
        x, dens, capped = float(x), float(dens), int(iters) >= DENSITY_MAX_ITER
        if law is None:
            if not (math.isfinite(dens) and dens >= 0.0):
                v.errors.append(f"matrix-model density {dens!r} at x={x!r}")
            continue
        v.capped += capped
        z = complex(x, eps)
        g = oracles.arcsine_G(z) if law == "bernoulli" else oracles.semicircle_G(z, op.ref["t"])
        _record(v, abs(dens + g.imag / math.pi) <= DENSITY_TOL, _edge_defect(op, x, capped),
                f"density at x={x!r}")
    return v


def check_distance(op, stdout, out_text, oracles):
    v = Verdict()
    out = json.loads(stdout)
    tilde, path = out["dtilde_upper"], out["d_upper"]
    if tilde["stage_values"] and tilde["value"] > min(tilde["stage_values"]):
        v.errors.append("dtilde_upper exceeds its best stage value")
    if path["points_used"] != op.ref["quad"]:
        v.errors.append(f"d_upper used {path['points_used']} points, asked {op.ref['quad']}")
    if path["value"] < 0.0:
        v.errors.append("negative d_upper")
    exact = op.ref.get("exact")
    if exact is not None:
        _record(v, abs(path["value"] - exact) <= DISTANCE_TOL, False, "d_upper")
        if op.ref["domain"] != "half_plane" and tilde["value"] < exact - 1e-9:
            v.errors.append("dtilde_upper falls below the exact distance")
    return v


def _delta_reference(op, oracles):
    a, c, b = op.ref["a"], op.ref["c"], op.ref["b"]
    kind = op.ref["domain"]
    if kind == "ball":
        return oracles.ball_delta(a, c, b)
    if kind == "half_plane":
        return oracles.halfplane_delta(a, c, b)
    if kind == "composed_ball":
        return oracles.ball_delta(2 * a, 2 * c, 2 * b)
    return None


EXPECTED_DELTA_METHODS = {
    "ball": ["ray", "closed_ball", "kernel"],
    "half_plane": ["ray", "closed_halfplane", "kernel"],
    "composed_ball": ["ray", "kernel"],
    "spectral_disk": ["ray"],
}


def check_delta(op, stdout, out_text, oracles):
    v = Verdict()
    results = json.loads(stdout)["results"]
    methods = [r["method"] for r in results]
    if methods != EXPECTED_DELTA_METHODS[op.ref["domain"]]:
        v.errors.append(f"delta routes {methods}")
        return v
    ref = _delta_reference(op, oracles)
    for r in results:
        val = r["value"]
        if r["method"] == "ray":
            lo, hi = r["bracket"]
            if not lo - 1e-9 <= val <= hi + 1e-9:
                v.errors.append("ray value outside its own bracket")
            continue
        _record(v, abs(val - ref) <= DELTA_TOL * max(1.0, ref), False, f"delta {r['method']}")
    return v


def check_contract(op, stdout, out_text, oracles):
    v = Verdict()
    report = json.loads(stdout)
    if report["violations"] or not report["ok"]:
        v.errors.append("contract report not ok")
    header, rows = _csv_rows(out_text or "")
    if header != ["lhs", "rhs"] or len(rows) != op.ref["samples"]:
        v.errors.append(f"contract wrote {len(rows)} rows, expected {op.ref['samples']}")
    for lhs, rhs in rows:
        lhs, rhs = float(lhs), float(rhs)
        _record(v, lhs <= rhs + CONTRACT_TOL, False, "Schwarz-Pick row")
        if op.ref["equality"]:
            _record(v, abs(lhs - rhs) <= CONTRACT_TOL, False, "isometry row")
    return v


def check_counterexample(op, stdout, out_text, oracles):
    v = Verdict()
    out = json.loads(stdout)
    for branch in ("matrix_convexity", "bounded_tilde"):
        _record(v, out[branch]["reproduced"] is True, False, f"counterexample {branch}")
    return v


PROPS_ROWS = 37


def check_props(op, stdout, out_text, oracles):
    v = Verdict()
    header, rows = _csv_rows(stdout)
    if header != ["check", "samples", "worst", "tol", "status"] or len(rows) != PROPS_ROWS:
        v.errors.append(f"props printed {len(rows)} rows, expected {PROPS_ROWS}")
    for row in rows:
        _record(v, row[-1] == "pass", False, f"props check {row[0]}")
    return v


CHECKS = {
    "convolve": check_convolve,
    "distance": check_distance,
    "delta": check_delta,
    "contract": check_contract,
    "counterexample": check_counterexample,
    "props": check_props,
}
