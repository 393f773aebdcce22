import numpy as np
import pytest

from nlss import Pair, SolverOptions, SystemParams
from nlss import system as system_mod
from nlss._opt import STAGNATION_WINDOW, damped_newton
from nlss.errors import NoConvergence
from nlss.fiber import fiber_maximize, pair_chart
from nlss.functional import PairSplit
from nlss.spectral import split_space
from nlss.system import newton_refine

W = STAGNATION_WINDOW


def _counted(jac):
    calls = []

    def wrapped(*args):
        calls.append(1)
        return jac(*args)

    return wrapped, calls


def test_no_root_stops_as_stagnated():
    # x^2 + 1 has no real root: ||r|| creeps down to 1 and stays there
    jac, calls = _counted(lambda x: np.diag(2.0 * x))
    out = damped_newton(lambda x: x**2 + 1.0, jac, np.array([3.0, -2.0]), max_iter=200)
    assert not out.converged
    assert out.reason == "stagnated"
    assert out.jacobians == len(calls) <= 2 * W + 1
    assert out[2] is False and out[1] == out.rnorm


def test_damped_steps_still_converge():
    # from x0 = 3 the full Newton step of arctan overshoots to |x| > 9
    res = np.arctan
    jac, calls = _counted(lambda x: np.diag(1.0 / (1.0 + x**2)))
    x0 = np.array([3.0])
    full = x0 - res(x0) * (1.0 + x0**2)
    assert abs(res(full)[0]) > abs(res(x0)[0])
    out = damped_newton(res, jac, x0)
    assert out.converged and out.reason == "converged"
    assert out.rnorm <= 1e-10
    assert out.jacobians == len(calls) <= W


def test_random_fiber_seed_stagnates(g32, s32, monkeypatch):
    # the first random_fiber seed of find_critical_set at resonant (1, 1, 0.5)
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    split = PairSplit(split_space(s32, lam), split_space(s32, lam))
    opts = SolverOptions()
    rng = np.random.default_rng(opts.seed + 1)
    Vp = pair_chart(p, split, s32).Vp
    d = Pair.from_stack(Vp @ rng.standard_normal(Vp.shape[1]))
    seed = fiber_maximize(p, g32, split, s32, d, opts=opts.with_(restarts=4)).point

    jac, calls = _counted(system_mod._system_jac)
    monkeypatch.setattr(system_mod, "_system_jac", jac)
    with pytest.raises(NoConvergence) as info:
        newton_refine(p, g32, split, s32, seed, opts=opts)
    assert info.value.reason == "stagnated"
    assert len(calls) <= 2 * W + 1
    assert f"stagnated after {len(calls)} Jacobians" in str(info.value)
