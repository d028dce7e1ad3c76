import hashlib

import pytest

from ncmetric import props
from ncmetric.matcore import NcmetricError

_STACKED_ROUTES = (
    "delta_ray",
    "delta_closed",
    "delta_kernel",
    "delta_tilde",
    "delta_auto_tilde",
    "subordination_solve",
    "cauchy_G",
    "F_and_h",
    "eval_point",
    "block_upper",
    "contains",
)


def _single_points_only(route):
    # a single point is a stack of one: only stacks of more rows fail
    def wrapped(*args, **kw):
        if any(getattr(x, "mat", None) is not None and x.mat.ndim > 2 and len(x.mat) > 1 for x in args):
            raise NcmetricError("no stacks here")
        return route(*args, **kw)

    return wrapped


def test_failed_stacks_are_redone_sample_by_sample_with_the_same_report(monkeypatch):
    # with every stacked call failing, each check evaluates its samples
    # one at a time, as the suite did before it stacked them
    stacked = props.run_suite(3)
    for name in _STACKED_ROUTES:
        monkeypatch.setattr(props, name, _single_points_only(getattr(props, name)))
    assert props.run_suite(3) == stacked
    assert props.all_passed(stacked)


def test_gauge_check_redone_point_by_point_gives_the_same_report(monkeypatch):
    stacked = props.check_gauge_matches_delta(3)
    for name in ("halfplane_delta", "delta_tilde"):
        monkeypatch.setattr(props, name, _single_points_only(getattr(props, name)))
    assert props.check_gauge_matches_delta(3) == stacked
    assert stacked.passed and stacked.samples == 15


@pytest.mark.parametrize("seed", [2, 19])
def test_each_check_alone_gives_its_row_of_the_suite(seed):
    # a check's substream depends only on the seed and its name, so the
    # checks neither share draws nor depend on the order they run in
    suite = props.run_suite(seed)
    names = [r.name for r in suite]
    assert len(names) == len(set(names)) == len(props.CHECKS) == 37
    assert [check.__name__ for check in props.CHECKS] == [f"check_{name}" for name in names]
    alone = [check(seed) for check in reversed(props.CHECKS)]
    assert alone[::-1] == list(suite)


# sha256 of report_csv(run_suite(seed)): the suite's report is pinned byte
# for byte, so a change that reorders draws or evaluations shows here
# (seeds 2 and 19 re-pinned when rho - Id became per-block weights, and all
# three when the Newton Jacobian came from products of resolvent entries:
# each time only omega_direct_sum's worst moved, in its last bits; all three
# again when 1x1 inverses became reciprocals: the worst of omega_direct_sum,
# subordination_certificate, schwarz_pick_h0, imh_decay and fixed_point_range
# moved in their last digits, and every row still passes at its tolerance;
# all three when delta whitened with a Cholesky factor, not an
# eigendecomposition: the worst of 7 to 11 delta rows moved, each by at most
# 2.5e-15, the oracle rows' ~3e-8 ray-search gaps by at most 4.5e-16, and every
# row still passes at its tolerance)
_REPORT_DIGESTS = {
    2: "e3b60aff255dbf55c232c1c44135710b7a469f542574ec27454eb3e877c4acb0",
    7: "8f43e3739ff4d40f3ead301495a5d983cb44752f76623d21b3a4952843022052",
    19: "71d48196f948f2a36dc6d9f33cd19958507a5fb87a5110c2b5f90ebba6a107db",
}


@pytest.mark.parametrize("seed", sorted(_REPORT_DIGESTS))
def test_suite_report_is_frozen(seed):
    report = props.report_csv(props.run_suite(seed))
    assert hashlib.sha256(report.encode()).hexdigest() == _REPORT_DIGESTS[seed]
