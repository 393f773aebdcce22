"""The benchmark's tracer (perfbench/tracer.py) turns four result shapes of
nlss into per-layer counters: sphere_descent(...)[3] and damped_newton(...)[2]
are convergence flags, GroundCandidate.all_found lists the distinct critical
points, and a failed newton_refine raises.  A change of any of them would
zero a counter without any error, so each is pinned here through the
tracer's own hooks, wrapped around the real functions (nothing is installed
into the nlss modules)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from nlss import SolverOptions, SystemParams, find_critical_set, newton_refine
from nlss.fiber import fiber_chart
from nlss import _opt
from nlss.errors import NoConvergence
from nlss.scalar import pair_grounds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    if not (PERFBENCH / "tracer.py").exists():
        pytest.skip("no perfbench/tracer.py next to the tests")
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def _traced(tracer, fn, name):
    tr = tracer.Tracer()
    return tr, tr._wrap(fn, name)


def test_hooks_name_traced_functions(tracer):
    names = {name for _, name in tracer.traceable(tracer.nlss_modules()).values()}
    assert set(tracer._ON_RETURN) | set(tracer._ON_RAISE) <= names


def test_sphere_descent_flag_is_its_fourth_field(tracer):
    # Rayleigh quotient a.Da / a.a on the unit sphere: one iteration does not
    # converge, 400 do
    D = np.arange(1.0, 6.0)

    def fun(a, state):
        return float(a @ (D * a)), 2.0 * (D * a - (a @ (D * a)) * a), state

    tr, descent = _traced(tracer, _opt.sphere_descent, "opt.sphere_descent")
    a0 = np.ones(D.size)
    assert descent(fun, np.ones(D.size), a0, max_iter=1)[3] is False
    assert tr.counters["opt.sphere_descent.unconverged"] == 1
    assert descent(fun, np.ones(D.size), a0, tol=1e-6)[3] is True
    assert tr.counters["opt.sphere_descent.unconverged"] == 1


def test_damped_newton_flag_is_its_third_field(tracer):
    tr, newton = _traced(tracer, _opt.damped_newton, "opt.damped_newton")

    def res(x):
        return x**3 - 8.0

    def jac(x):
        return _opt.Band((3.0 * x**2)[None, :], 0)

    x0 = np.array([5.0, 7.0])
    assert newton(res, jac, x0, max_iter=1)[2] is False
    assert tr.counters["opt.damped_newton.unconverged"] == 1
    assert newton(res, jac, x0)[2] is True
    assert tr.counters["opt.damped_newton.unconverged"] == 1


def test_failed_newton_refine_raises(tracer, g32, s32):
    p = SystemParams(2.5, 2.5, 1.0, 1.0, 0.5)
    ch = fiber_chart(s32, p.taus, p.coupling)
    r = np.random.default_rng(0)
    u0 = np.concatenate([5.0 * r.standard_normal(32), 5.0 * r.standard_normal(32)])
    tr, refine = _traced(tracer, newton_refine, "system.newton_refine")
    with pytest.raises(NoConvergence):
        refine(g32, ch, u0, opts=SolverOptions(max_iter=1))
    assert tr.counters["system.newton_refine.failed"] == 1
    assert tr.counters["system.newton_refine.failed_s"] > 0.0


def test_critical_set_lists_its_points_in_all_found(tracer, g32, s32):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    grounds = pair_grounds(p, g32, s32)
    tr, search = _traced(tracer, find_critical_set, "system.find_critical_set")
    gc = search(p, g32, s32, grounds, SolverOptions(max_iter=20, extra_seeds=0))
    assert isinstance(gc.all_found, list) and gc.all_found
    assert tr.counters["system.critical_points.distinct"] == len(gc.all_found)
