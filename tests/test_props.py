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
# moved in their last digits, and every row still passes at its tolerance)
_REPORT_DIGESTS = {
    2: "f128cdd249ffa9f405e6251eaeb0712892f49a072004464cdeb2d6bd4e555c95",
    7: "96409d68d5a07b9c6ed60ddb09f795334d519b3b768b7b6f94eb0689e4c9964b",
    19: "e8742626735fa2a81905350a17f3f4d70e7256528d8e3c406db0aec8f2e7d814",
}


@pytest.mark.parametrize("seed", sorted(_REPORT_DIGESTS))
def test_suite_report_is_frozen(seed):
    report = props.report_csv(props.run_suite(seed))
    assert hashlib.sha256(report.encode()).hexdigest() == _REPORT_DIGESTS[seed]
