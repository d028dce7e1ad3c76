"""The registry of tagged JSON formats, and what a variant class alone can add.

NormBall below is a domain kind that the package does not know: one
class, registered here, that must work through membership, sampling,
every metric route, the distance drivers, the codec and the CLI.
"""

import hashlib
import json
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmetric
import ncmetric.domains
from ncmetric.cli import main
from ncmetric.domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    HalfPlaneKernel,
    KernelDomain,
    NilpotentCone,
    NormBound,
    SpectralDisk,
    ball_domain,
    contains,
    halfplane_domain,
    sample_triples,
)
from ncmetric.freeprob import KrausAugment, MatrixModel, ScalarLaw, ScalarPower
from ncmetric.matcore import VARIANTS, from_json, mat_to_json, operator_norm, to_json, variant
from ncmetric.metric import (
    DeltaResult,
    compare_nested,
    d_upper,
    delta_auto,
    delta_auto_tilde,
    delta_closed,
    delta_tilde,
    dtilde_upper,
)
from ncmetric.ncfunc import CayleyLike, Composition, MoebiusBall, Polynomial, ScalarCalculus
from ncmetric.ncpoint import NcDirection, NcPoint, direction, point
from ncmetric.sampling import ball_draw, rng_stream, scaled

SRC = Path(ncmetric.__file__).parent
ROOT = SRC.parents[1]

# class -> family of every class the package itself registers, the untagged records included
PACKAGE_FAMILIES = {
    cls: family
    for family, tags in VARIANTS.items()
    for cls in tags.values()
    if cls.__module__.startswith("ncmetric.")
}
# class -> family, for the tagged variants among them
PACKAGE_VARIANTS = {cls: family for cls, family in PACKAGE_FAMILIES.items() if VARIANTS[family].get(None) is not cls}

EXAMPLES = {
    BallKernel: (BallKernel(),),
    HalfPlaneKernel: (HalfPlaneKernel(),),
    ComposedBallKernel: (ComposedBallKernel(Polynomial((0.0, 2.0))),),
    ComposedHalfPlaneKernel: (ComposedHalfPlaneKernel(MoebiusBall(0.25j)),),
    KernelDomain: (ball_domain(0.5), halfplane_domain()),
    SpectralDisk: (SpectralDisk(0.3 - 0.1j, 1.5, NormBound("level", 2.0)),),
    NilpotentCone: (NilpotentCone(),),
    Polynomial: (Polynomial((1.0, 2.0j)),),
    MoebiusBall: (MoebiusBall(0.5 - 0.25j),),
    CayleyLike: (CayleyLike(1.0j, -2.0),),
    ScalarCalculus: (ScalarCalculus((1.0, 0.5), 3.0),),
    Composition: (Composition((Polynomial((0.0, 1.0)), MoebiusBall(0.1))),),
    MatrixModel: (MatrixModel(np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1)),),
    ScalarLaw: (ScalarLaw("semicircle", 2.0), ScalarLaw("point_mass", atom=1.5)),
    ScalarPower: (ScalarPower(3.0),),
    KrausAugment: (KrausAugment((np.diag([0.5, 0.5]), np.diag([0.1, 0.9]))),),
    NcPoint: (point([[0.5, 1.0j], [0.0, -0.25]]), point(np.eye(4), base_dim=2)),
    NcDirection: (NcDirection(2, 1, 2, np.arange(8.0).reshape(2, 4) * (1 - 0.5j)),),
    NormBound: (NormBound("level", 2.0), NormBound("constant")),
}


def _same(x, y) -> bool:
    # arrays do not compare with ==
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return x == y


@pytest.mark.parametrize("cls", sorted(PACKAGE_FAMILIES, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_variant_round_trips_through_json(cls):
    for obj in EXAMPLES[cls]:
        back = from_json(json.loads(json.dumps(to_json(obj))), PACKAGE_FAMILIES[cls])
        assert type(back) is cls
        assert all(_same(getattr(back, f.name), getattr(obj, f.name)) for f in fields(cls)), back


def test_tagged_json_keeps_its_wire_format():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert to_json(ScalarLaw("point_mass", atom=1.5)) == {
        "variant": "scalar_law", "law": "point_mass", "variance": 1.0, "atom": [1.5, 0.0],
    }
    assert to_json(SpectralDisk(0.3 - 0.1j, 1.5, NormBound("level", 2.0))) == {
        "variant": "spectral_disk", "center": [0.3, -0.1], "radius": 1.5,
        "norm_bound": {"rule": "level", "value": 2.0},
    }
    assert to_json(ball_domain(0.5)) == {
        "variant": "kernel_domain",
        "kernel": {"variant": "composed_ball", "g": {"variant": "polynomial", "coeffs": [[0.0, 0.0], [2.0, 0.0]]}},
    }
    assert to_json(MatrixModel(x, (1, 1))) == {"variant": "matrix_model", "x": mat_to_json(x), "blocks": [1, 1]}
    assert to_json(KrausAugment((x,))) == {"variant": "kraus_augment", "vs": [mat_to_json(x)]}
    # optional fields take their defaults
    assert from_json({"variant": "scalar_law", "law": "arcsine"}, "model") == ScalarLaw("arcsine")
    assert from_json(
        {"variant": "spectral_disk", "center": [0, 0], "radius": 1, "norm_bound": {"rule": "level"}}, "domain"
    ) == SpectralDisk(0.0, 1.0, NormBound("level", 1.0))
    # records carry no tag
    assert to_json(NormBound("level")) == {"rule": "level", "value": 1.0}
    assert to_json(point([[0.5]])) == {"base_dim": 1, "level": 1, "mat": mat_to_json(np.array([[0.5]]))}
    with pytest.raises(TypeError, match="not a registered variant or record"):
        to_json(DeltaResult(0.0, "ray", (0.0, 0.0), 0))


_DISK = {"variant": "spectral_disk", "center": [0, 0], "radius": 0.5, "norm_bound": {"rule": "constant"}}
_X = mat_to_json(np.diag([1.0, -1.0]))
# a number or integer field given a JSON value of another type, or a key
# the variant does not have: (family, object, field); "outer.inner" is
# the field inner of the record held in the field outer
MISTYPED = [
    ("model", {"variant": "matrix_model", "x": _X, "blocks": "11"}, "blocks"),
    ("model", {"variant": "scalar_law", "law": "semicircle", "quad_nodes": 256}, "quad_nodes"),
    ("model", {"variant": "scalar_law", "law": "semicircle", "variance": "4"}, "variance"),
    ("cp-map", {"variant": "scalar_power", "t": True}, "t"),
    ("domain", _DISK | {"radius": "0.5"}, "radius"),
    ("domain", _DISK | {"norm_bound": {"rule": "constant", "value": True}}, "norm_bound.value"),
    ("model", {"variant": "scalar_law", "law": "semicircle", "variance": 10**400}, "variance"),
    ("model", {"variant": "scalar_law", "law": "semicircle", "varience": 4.0}, "varience"),
]


def _mistyped_message(family, field):
    outer, _, inner = field.partition(".")
    nested = f"malformed {outer} JSON field {inner!r}: " if inner else ""
    return f"malformed {family} JSON field {outer!r}: {nested}expected"



@pytest.mark.parametrize(
    "obj, family, message",
    [
        ({"variant": "polynomial"}, "function", "function JSON missing field 'coeffs'"),
        ({"variant": "composition"}, "function", "function JSON missing field 'parts'"),
        ({"variant": "composed_ball"}, "kernel", "kernel JSON missing field 'g'"),
        ({"variant": "scalar_law"}, "model", "model JSON missing field 'law'"),
        ({"variant": "scalar_power"}, "cp-map", "cp-map JSON missing field 't'"),
        ({"variant": "spectral_disk", "center": [0, 0], "radius": 1}, "domain", "missing field 'norm_bound'"),
        ({"variant": "ball"}, "domain", "unknown domain variant 'ball'"),
        ({"variant": "scalar_power", "t": 2.0}, "model", "unknown model variant 'scalar_power'"),
        ({"variant": "kernel_domain", "kernel": {"variant": "polynomial", "coeffs": []}}, "domain",
         "unknown kernel variant 'polynomial'"),
        ({"variant": ["ball"]}, "kernel", "unknown kernel variant"),
        (["ball"], "kernel", "kernel JSON must be an object with a 'variant' tag"),
        ({"variant": "polynomial", "coeffs": 3}, "function", "malformed function JSON"),
        ({"variant": "moebius_ball", "alpha": [0.1]}, "function", "complex JSON must be a [re, im] pair"),
        ({"variant": "spectral_disk", "center": [0, 0], "radius": 1, "norm_bound": {}}, "domain",
         "malformed domain JSON"),
        ({"variant": "matrix_model", "x": {"rows": 1}, "blocks": [1]}, "model", "malformed matrix JSON"),
        ({"variant": "kraus_augment", "vs": None}, "cp-map", "malformed cp-map JSON"),
    ]
    + [(obj, family, _mistyped_message(family, key)) for family, obj, key in MISTYPED]
    + [
        (_DISK | {"norm_bound": {"rule": "level", "vaule": 2.0}}, "domain",
         "malformed norm_bound JSON field 'vaule': expected only rule, value"),
        (_DISK | {"norm_bound": [1.0]}, "domain", "norm_bound JSON must be an object"),
    ],
)
def test_malformed_json_is_a_value_error(obj, family, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(obj, family)


def _dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.mark.parametrize(
    "argv, flag, obj, family",
    [
        (["distance"], "--domain", {"variant": "ball"}, "domain"),
        (["delta", "--b", "B"], "--kernel", {"variant": "kernel_domain", "kernel": {"variant": "ball"}}, "kernel"),
        (["contract", "--src", "D", "--dst", "D"], "--function", {"variant": "ball"}, "function"),
        (["convolve", "--rho-t", "2", "--xmin", "-1", "--xmax", "1"], "--model",
         {"variant": "scalar_power", "t": 2.0}, "model"),
        (["convolve", "--law", "bernoulli", "--xmin", "-1", "--xmax", "1"], "--rho",
         {"variant": "scalar_law", "law": "bernoulli"}, "cp-map"),
    ],
)
def test_a_tag_from_another_family_is_exit_3(tmp_path, capsys, argv, flag, obj, family):
    files = {
        "B": _dump(tmp_path, "b.json", mat_to_json(np.array([[1.0]]))),
        "D": _dump(tmp_path, "d.json", to_json(ball_domain())),
    }
    argv = [files.get(x, x) for x in argv]
    if argv[0] in ("distance", "delta"):
        argv += ["--a", _dump(tmp_path, "a.json", to_json(point([[0.1]]))),
                 "--c", _dump(tmp_path, "c.json", to_json(point([[0.2]])))]
    assert main(argv + [flag, _dump(tmp_path, "obj.json", obj)]) == 3
    captured = capsys.readouterr()
    assert f"unknown {family} variant" in captured.err
    assert captured.out == ""


_FAMILY_ARGV = {
    "function": ["contract", "--src", "D", "--dst", "D", "--function"],
    "model": ["convolve", "--rho-t", "2", "--xmin", "-1", "--xmax", "1", "--points", "3", "--model"],
    "cp-map": ["convolve", "--law", "bernoulli", "--xmin", "-1", "--xmax", "1", "--points", "3", "--rho"],
    "domain": ["distance", "--a", "A", "--c", "A", "--domain"],
    "point": ["distance", "--domain", "D", "--c", "A", "--a"],
    "direction": ["delta", "--domain", "D", "--a", "A", "--c", "A", "--b"],
}
_A = to_json(point([[0.1]]))


@pytest.mark.parametrize(
    "argv, obj",
    [(_FAMILY_ARGV[family], obj) for family, obj, _ in MISTYPED]
    + [
        (["distance", "--domain", "D", "--c", "A", "--a"], _A | {"level": 1.0}),
        (["distance", "--domain", "D", "--c", "A", "--a"], _A | {"base_dim": True}),
        (["distance", "--domain", "D", "--c", "A", "--a"], _A | {"mat": _A["mat"] | {"cols": "1"}}),
        (["delta", "--kernel", "K", "--a", "A", "--c", "A", "--b"], _A["mat"] | {"rows": 1.0}),
    ],
)
def test_a_field_of_the_wrong_json_type_is_exit_3(tmp_path, capsys, argv, obj):
    files = {
        "A": _dump(tmp_path, "a.json", _A),
        "D": _dump(tmp_path, "d.json", to_json(ball_domain())),
        "K": _dump(tmp_path, "k.json", to_json(BallKernel())),
    }
    argv = [files.get(x, x) for x in argv] + [_dump(tmp_path, "obj.json", obj)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "input error: " in captured.err and "expected " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "family, obj, key",
    [
        # read as its default, this typo printed the variance-1 density and exited 0
        ("model", {"variant": "scalar_law", "law": "semicircle", "varience": 4.0}, "varience"),
        ("domain", _DISK | {"norm_bound": {"rule": "level", "vaule": 2.0}}, "vaule"),
        ("function", {"variant": "polynomial", "coeffs": [], "degree": 0}, "degree"),
        ("point", _A | {"levle": 1}, "levle"),
        ("point", _A | {"mat": _A["mat"] | {"colls": 1}}, "colls"),
        ("direction", {"base_dim": 1, "row_level": 1, "col_level": 1, "mat": _A["mat"], "variant": "x"}, "variant"),
        ("direction", _A["mat"] | {"base_dim": 1}, "base_dim"),
    ],
)
def test_an_unknown_key_is_exit_3_naming_it(tmp_path, capsys, family, obj, key):
    files = {"A": _dump(tmp_path, "a.json", _A), "D": _dump(tmp_path, "d.json", to_json(ball_domain()))}
    argv = [files.get(x, x) for x in _FAMILY_ARGV[family]]
    assert main(argv + [_dump(tmp_path, "obj.json", obj)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and f"field {key!r}: expected only " in captured.err
    assert captured.out == ""


# a number field given NaN or an infinity, which Python's JSON reader
# accepts: (family, object, the error naming the field)
NON_FINITE = [
    ("domain", _DISK | {"norm_bound": {"rule": "level", "value": float("inf")}},
     "norm_bound value must be finite, got inf"),
    ("domain", _DISK | {"radius": float("nan")}, "radius must be finite, got nan"),
    ("domain", _DISK | {"center": [float("-inf"), 0.0]}, "center must be finite, got (-inf+0j)"),
    ("model", {"variant": "scalar_law", "law": "semicircle", "variance": float("nan")},
     "variance must be finite, got nan"),
    ("model", {"variant": "scalar_law", "law": "point_mass", "atom": [0.0, float("nan")]},
     "atom must be finite, got nanj"),
    ("cp-map", {"variant": "scalar_power", "t": float("inf")}, "t must be finite, got inf"),
    ("function", {"variant": "polynomial", "coeffs": [[float("nan"), 0.0]]}, "coeffs must be finite, got (nan+0j)"),
    ("function", {"variant": "moebius_ball", "alpha": [float("inf"), 0.0]}, "alpha must be finite, got (inf+0j)"),
    ("function", {"variant": "cayley_like", "beta": [float("nan"), 0.0], "gamma": [0.0, 0.0]},
     "beta must be finite, got (nan+0j)"),
    ("function", {"variant": "cayley_like", "beta": [1.0, 0.0], "gamma": [0.0, float("-inf")]},
     "gamma must be finite, got -infj"),
    ("function", {"variant": "scalar_calculus", "coeffs": [[0.0, float("nan")]], "radius": 1.0},
     "coeffs must be finite, got nanj"),
    ("function", {"variant": "scalar_calculus", "coeffs": [[1.0, 0.0]], "radius": float("inf")},
     "radius must be finite, got inf"),
]


@pytest.mark.parametrize("family, obj, message", NON_FINITE)
def test_a_non_finite_number_field_is_exit_3_naming_its_field(tmp_path, capsys, family, obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(obj, family)
    files = {"A": _dump(tmp_path, "a.json", _A), "D": _dump(tmp_path, "d.json", to_json(ball_domain()))}
    argv = [files.get(x, x) for x in _FAMILY_ARGV[family]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [_dump(tmp_path, "obj.json", obj)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and message in captured.err
    assert captured.out == ""


def _sites(value, path=()):
    """(kind, path) of every object ("object") and number ("number") in a JSON value."""
    if isinstance(value, dict):
        yield "object", path
        for key, item in value.items():
            yield from _sites(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _sites(item, path + (k,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield "number", path


def _at(value, path):
    for step in path:
        value = value[step]
    return value


_WIRE = [(PACKAGE_FAMILIES[cls], to_json(obj)) for cls in EXAMPLES for obj in EXAMPLES[cls]]
_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), True, "0.5", 10**400]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_one_mutation_of_valid_json_is_decoded_or_named(data):
    # one extra key, dropped key or bad number in a valid object: from_json
    # returns or raises a ValueError naming the key, and never warns
    family, wire = data.draw(st.sampled_from(_WIRE))
    obj = json.loads(json.dumps(wire))
    kind, path = data.draw(st.sampled_from(list(_sites(obj))))
    target = _at(obj, path)
    mutation = "number" if kind == "number" else data.draw(st.sampled_from(["extra", "drop"]))
    if mutation == "number":
        _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from(_BAD_NUMBERS))
        # a number inside a matrix is named by the field that holds the matrix
        named = [step for step in path if isinstance(step, str)]
    elif mutation == "extra":
        named = [data.draw(st.sampled_from(["quad_nodes", "varience", "value2"]))]
        target[named[0]] = 1.0
    else:
        named = [data.draw(st.sampled_from(sorted(target)))]
        del target[named[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            from_json(obj, family)
        except ValueError as exc:
            assert any(re.search(rf"\b{re.escape(key)}\b", str(exc)) for key in named), (str(exc), path)
            return
    # what may decode: a dropped optional key
    assert mutation == "drop"


def test_every_registered_tag_is_in_schemas():
    schemas = (ROOT / "SCHEMAS.md").read_text()
    tags = [tag for tags in VARIANTS.values() for tag, cls in tags.items() if cls in PACKAGE_VARIANTS]
    assert len(tags) == len(PACKAGE_VARIANTS) == 16
    assert [tag for tag in tags if f"`{tag}`" not in schemas] == []


def test_no_module_that_routes_by_variant_asks_for_its_class():
    # the variants carry their behaviour; every module calls it and
    # never branches on a variant's class, by isinstance or by type(),
    # nor on a kernel's closed-form label; and matcore's registry is the
    # one codec, so no other module defines a *_from_json or *_to_json;
    # an error carries its exit class, so cli.py names no error class
    # but the two bases
    names = "|".join(sorted(cls.__name__ for cls in PACKAGE_VARIANTS))
    pattern = re.compile(
        rf"isinstance\([^)]*\b({names})\b|\btype\([^)]*\)\s*(is|==|!=)\s*(not\s+)?({names})\b"
        r"|\.closed\s*(==|!=)"
    )
    codec = re.compile(r"\bdef\s+\w*_(from|to)_json\b")
    errors, todo = set(), [ncmetric.NcmetricError]
    while todo:
        cls = todo.pop()
        errors.add(cls.__name__)
        todo += [sub for sub in cls.__subclasses__() if sub.__module__.startswith("ncmetric")]
    assert len(errors) > 3
    named_error = re.compile(rf"\b({'|'.join(sorted(errors - {'InputError', 'NumericalFailure'}))})\b")
    offenders = []
    modules = sorted(SRC.glob("*.py"))
    assert {"metric.py", "cli.py", "props.py", "freeprob.py", "matcore.py"} <= {path.name for path in modules}
    for path in modules:
        text = path.read_text()
        found = list(pattern.finditer(text))
        if path.name != "matcore.py":
            found += codec.finditer(text)
        if path.name == "cli.py":
            found += named_error.finditer(text)
        for m in found:
            offenders.append(f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}: {m.group(0)}")
    assert offenders == []


@variant("domain", "test_norm_ball")
@dataclass(frozen=True)
class NormBall:
    """||a|| < radius by the operator norm alone: the ball as a domain without a kernel."""

    radius: float
    kernel = None

    def _inside(self, a: NcPoint, margin: float):
        score = self.radius - margin - operator_norm(a.mat)
        return score > 0.0, score

    def _propose(self, rng, level: int, base_dim: int):
        return (scaled(ball_draw(rng, level, base_dim, radius=self.radius)).mat,)


@variant("domain", "test_unsampled_ball")
@dataclass(frozen=True)
class UnsampledBall(NormBall):
    _propose = None


def test_a_domain_kind_defined_outside_the_package_works_end_to_end(tmp_path, capsys):
    dom = NormBall(1.0)
    a = point([[0.1, 0.2j], [0.0, -0.3]])
    c = point([[0.4, 0.0], [0.1j, 0.2]])
    b = direction([[0.3, 0.1], [0.0, 0.2j]])

    assert contains(dom, a) is True and contains(dom, point(1.5 * np.eye(2))) is False
    stack = NcPoint(1, 2, np.stack([a.mat, 3.0 * a.mat, c.mat]))
    assert contains(dom, stack).tolist() == [True, False, True]

    # the ray search on it finds the ball's closed forms
    ray = delta_auto(dom, a, c, b)
    assert ray.method == "ray"
    assert ray.value == pytest.approx(delta_closed(BallKernel(), a, c, b).value, rel=1e-5)
    tilde = delta_auto_tilde(dom, a, c)
    assert tilde.method == "ray"
    assert tilde.value == pytest.approx(delta_tilde(BallKernel(), a, c).value, rel=1e-5)

    bound = dtilde_upper(dom, a, c, refinement_budget=2)
    assert bound.value == pytest.approx(dtilde_upper(ball_domain(), a, c, refinement_budget=2).value, rel=1e-5)
    path = d_upper(dom, a, c, quad_points=8)
    assert path.value == pytest.approx(d_upper(ball_domain(), a, c, quad_points=8).value, rel=1e-5)
    pairs = [(point([[0.1]]), point([[0.3]])), (point(0.2 * a.mat), point(0.3 * c.mat))]
    nested = compare_nested(NormBall(0.5), ball_domain(), 1.0, 0.5, pairs)
    assert nested["ok"], nested
    assert [inner for inner, _ in nested["rows"]] == pytest.approx(
        [delta_tilde(ball_domain(0.5).kernel, p, q).value for p, q in pairs], rel=1e-5
    )

    assert from_json(json.loads(json.dumps(to_json(dom))), "domain") == dom
    argv = ["distance", "--domain", _dump(tmp_path, "dom.json", to_json(dom)),
            "--a", _dump(tmp_path, "a.json", to_json(a)),
            "--c", _dump(tmp_path, "c.json", to_json(c)),
            "--refine", "2", "--quad-points", "8"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dtilde_upper"]["value"] == bound.value
    assert payload["d_upper"]["value"] == path.value


def test_contract_samples_a_domain_kind_by_its_own_proposals(tmp_path, capsys):
    argv = ["contract", "--function", _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5)))),
            "--dst", _dump(tmp_path, "dst.json", to_json(ball_domain())),
            "--samples", "4", "--levels", "1,2", "--src"]
    assert main(argv + [_dump(tmp_path, "src.json", to_json(NormBall(1.0)))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] == 4 and report["ok"], report
    # a kind that brings no proposals is an input error that names it
    assert main(argv + [_dump(tmp_path, "bare.json", to_json(UnsampledBall(1.0)))]) == 3
    captured = capsys.readouterr()
    assert "input error: no sampler for UnsampledBall" in captured.err and captured.out == ""


@variant("domain", "test_empty_ball")
@dataclass(frozen=True)
class EmptyBall(NormBall):
    def _inside(self, a: NcPoint, margin: float):
        return np.zeros(len(a.mat), dtype=bool), np.full(len(a.mat), np.nan)


def test_a_domain_its_proposals_never_hit_is_exit_4(tmp_path, capsys):
    argv = ["contract", "--function", _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5)))),
            "--src", _dump(tmp_path, "src.json", to_json(EmptyBall(1.0))),
            "--dst", _dump(tmp_path, "dst.json", to_json(ball_domain())), "--samples", "1", "--levels", "1"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: could not hit EmptyBall in 200 tries\n" and captured.out == ""


_DISK = {"variant": "spectral_disk", "center": [0.0, 0.0], "radius": 0.25,
         "norm_bound": {"rule": "constant", "value": 1.0}}


@pytest.mark.parametrize(
    "field, bad, message",
    [("radius", -1.0, "radius must be positive"), ("radius", 0.0, "radius must be positive"),
     ("value", 0.0, "norm_bound value must be positive"), ("value", -2.0, "norm_bound value must be positive")],
)
@pytest.mark.parametrize("side", ["--src", "--dst"])
def test_an_empty_spectral_disk_is_exit_3_naming_its_field(tmp_path, capsys, field, bad, message, side):
    # either field at or below zero leaves the disk empty, which no proposal round can mend
    disk = json.loads(json.dumps(_DISK))
    (disk if field == "radius" else disk["norm_bound"])[field] = bad
    with pytest.raises(ValueError, match=f"{message}$"):
        from_json(disk, "domain")
    src, dst = (disk, to_json(ball_domain())) if side == "--src" else (to_json(ball_domain()), disk)
    argv = ["contract", "--function", _dump(tmp_path, "f.json", to_json(Polynomial((0.0, 0.5)))),
            "--src", _dump(tmp_path, "src.json", src), "--dst", _dump(tmp_path, "dst.json", dst),
            "--samples", "1", "--levels", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.err.endswith(f"{message}\n")
    assert captured.out == ""


@variant("domain", "test_overdrawn_ball")
@dataclass(frozen=True)
class OverdrawnBall(NormBall):
    """Proposes from the unit ball: at radius 0.4 about half the candidates miss."""

    def _propose(self, rng, level: int, base_dim: int):
        return (scaled(ball_draw(rng, level, base_dim)).mat,)


def test_points_that_miss_draw_again_in_later_rounds(monkeypatch):
    sizes = []
    real = ncmetric.domains.contains

    def counted(domain, a, *args):
        sizes.append(len(a.mat))
        return real(domain, a, *args)

    monkeypatch.setattr(ncmetric.domains, "contains", counted)
    triples = sample_triples(OverdrawnBall(0.4), rng_stream(2, "redraw"), [1, 2], 6, 1)
    # one stack per level and round, holding the points still missing
    assert sizes == [6, 6, 4, 3, 4, 2, 2, 1, 1]
    assert [(a.level, c.level, b.row_level, b.col_level) for a, c, b in triples] == [(1,) * 4, (2,) * 4] * 3
    assert all(operator_norm(p.mat) < 0.4 for a, c, _ in triples for p in (a, c))
    # the triples pin the draw order of the later rounds
    digest = hashlib.sha256(b"".join(x.mat.tobytes() for t in triples for x in t)).hexdigest()
    assert digest == "2b0cbb8be59f48ef218904f929e509d5a981ba7df8f950b09f28f8b007ab2768"


def test_a_composed_half_plane_is_sampled_by_half_plane_proposals(tmp_path, capsys):
    # Im g(a) > 0 for g(z) = z - s i is Im a > s I: no ball proposal
    # reaches it, and at s = 5 only the proposals moved up the half-plane do
    for shift, levels in ((1j, "1"), (5j, "1"), (5j, "2")):
        dom = KernelDomain(ComposedHalfPlaneKernel(Polynomial((-shift, 1.0))))
        files = {name: _dump(tmp_path, f"{name}.json", to_json(obj))
                 for name, obj in (("f", Polynomial((0.0, 1.0))), ("dom", dom))}
        argv = ["contract", "--function", files["f"], "--src", files["dom"], "--dst", files["dom"],
                "--samples", "4", "--levels", levels, "--equality"]
        assert main(argv) == 0, (shift, levels)
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 4 and report["ok"], report
