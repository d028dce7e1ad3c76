from ncmetric import props
from ncmetric.matcore import NcmetricError

_STACKED_ROUTES = ("delta_ray", "delta_closed", "delta_kernel", "delta_tilde", "delta_auto_tilde", "_solve_stack")


def _single_points_only(route):
    def wrapped(*args, **kw):
        if any(getattr(x, "mat", None) is not None and x.mat.ndim > 2 for x in args):
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
    for name in ("halfplane_gauge", "delta_tilde"):
        monkeypatch.setattr(props, name, _single_points_only(getattr(props, name)))
    assert props.check_gauge_matches_delta(3) == stacked
    assert stacked.passed and stacked.samples == 15
