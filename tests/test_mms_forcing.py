"""The cached manufactured forcing reproduces the closed form bit for bit.

The reference below is the forcing as it was before its x-only factors were
kept per grid and its last result memoised: every call evaluates the closed
form of ``docs/verification.md`` from the node array, one component at a
time.  Arrays are compared through int64 views so that a -0.0 or NaN
difference shows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixflow.errors import ValidationError
from mixflow.euler import EulerKernel, SchemeConfig
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D
from mixflow.lagrange import LagrangeKernel
from mixflow.mms import ManufacturedFields, default_params
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import RK2, run_loop

# ---------------------------------------------------------------------------
# reference: the closed form, evaluated from scratch on every call


def ref_forcing_eulerian(f, t, x):
    p = f.params
    ct, st = math.cos(t), math.sin(t)
    g = f.g(t)
    gbar = g.mean()
    dg = -np.array(f.c) * st

    two_pi = 2.0 * math.pi
    sin1 = np.sin(math.pi * x)
    cos1 = np.cos(math.pi * x)
    rho = f.rho_base + f.rho_amp * np.sin(two_pi * x) * ct
    drho_dt = -f.rho_amp * np.sin(two_pi * x) * st
    drho_dx = f.rho_amp * two_pi * np.cos(two_pi * x) * ct

    v = sin1 * gbar
    dv_dx = math.pi * cos1 * gbar
    s_rho = drho_dt + drho_dx * v + rho * dv_dx

    dpress_dx = p.gamma * rho ** (p.gamma - 1.0) * drho_dx
    mu_g = p.M @ g
    exch = p.A @ g - p.A.sum(axis=1) * g

    s_u = np.empty((p.N, x.size))
    for i in range(p.N):
        du_dt = sin1 * dg[i]
        conv = v * math.pi * cos1 * g[i]
        visc = -(math.pi**2) * sin1 * mu_g[i] / rho
        fric = sin1 * exch[i] / rho
        s_u[i] = du_dt + conv + p.K * dpress_dx / rho - visc - fric
    return s_rho, s_u


def ref_forcing_lagrangian(f, t, y):
    p = f.params
    d = f.domain_length
    ct, st = math.cos(t), math.sin(t)
    g = f.g(t)
    gbar = g.mean()
    dg = -np.array(f.c) * st

    s1 = math.pi / d
    s2 = 2.0 * math.pi / d
    sin1 = np.sin(s1 * y)
    cos1 = np.cos(s1 * y)
    rho = f.rho_base + f.rho_amp * np.sin(s2 * y) * ct
    drho_dt = -f.rho_amp * np.sin(s2 * y) * st
    drho_dy = f.rho_amp * s2 * np.cos(s2 * y) * ct

    dv_dy = s1 * cos1 * gbar
    s_rho = drho_dt + rho * rho * dv_dy

    dpress_dy = p.gamma * rho ** (p.gamma - 1.0) * drho_dy
    diffusion_shape = s1 * (drho_dy * cos1 - rho * s1 * sin1)
    mu_g = p.M @ g
    exch = p.A @ g - p.A.sum(axis=1) * g

    s_u = np.empty((p.N, y.size))
    for i in range(p.N):
        du_dt = sin1 * dg[i]
        visc = mu_g[i] * diffusion_shape
        fric = sin1 * exch[i] / rho
        s_u[i] = du_dt + p.K * dpress_dy - visc - fric
    return s_rho, s_u


def ref_forcing(f, t, x):
    ref = ref_forcing_eulerian if f.frame == EULERIAN else ref_forcing_lagrangian
    return ref(f, t, x)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(bits(g), bits(w))


# ---------------------------------------------------------------------------
# bit identity


@st.composite
def forcing_cases(draw):
    N = draw(st.sampled_from([2, 3]))
    frame = draw(st.sampled_from([EULERIAN, LAGRANGIAN]))
    gamma = draw(st.sampled_from([1.4, 1.5, 2.0, draw(st.floats(1.05, 3.0))]))
    M = np.diag([draw(st.floats(0.01, 0.5)) for _ in range(N)])
    a = draw(st.floats(0.01, 1.0))
    A = a * (np.ones((N, N)) - np.eye(N))
    params = make_params(N=N, K=draw(st.floats(0.2, 3.0)), gamma=gamma, M=M, A=A, T_final=2.0)
    # the Eulerian closed form lives on the unit interval
    length = 1.0 if frame == EULERIAN else draw(st.floats(0.5, 3.0))
    fields = ManufacturedFields(
        params=params,
        frame=frame,
        domain_length=length,
        c=tuple(draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))) for _ in range(N)),
        rho_amp=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
    )
    grids = [Grid1D(length, n).nodes() for n in draw(st.lists(
        st.sampled_from([8, 32, 64]), min_size=2, max_size=2))]
    times = st.one_of(st.floats(-3.0, 10.0), st.sampled_from([0.0, -0.0]))
    # (time, grid index) calls, with repeats so that the memo is hit
    calls = draw(st.lists(st.tuples(times, st.integers(0, 1)), min_size=1, max_size=12))
    calls += calls[::-1]
    return fields, grids, calls


@given(case=forcing_cases())
@settings(max_examples=80, deadline=None)
def test_forcing_bit_identical_to_closed_form(case):
    fields, grids, calls = case
    for t, k in calls:
        x = grids[k]
        assert_bit_equal(fields.forcing(t, x), ref_forcing(fields, t, x))


def test_eulerian_fields_reject_other_domains():
    with pytest.raises(ValidationError, match="unit interval"):
        ManufacturedFields(params=default_params(), frame=EULERIAN, domain_length=2.0)


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
def test_forcing_arrays_read_only(frame):
    fields = ManufacturedFields(params=default_params(), frame=frame)
    s_rho, s_u = fields.forcing(0.3, Grid1D(1.0, 16).nodes())
    for a in (s_rho, s_u):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
def test_memo_hit_and_grid_change(frame):
    fields = ManufacturedFields(params=default_params(), frame=frame, domain_length=1.0)
    x = Grid1D(1.0, 16).nodes()
    first = fields.forcing(0.3, x)
    # same values in a new array: the memo answers
    again = fields.forcing(0.3, x.copy())
    assert again[0] is first[0] and again[1] is first[1]
    assert_bit_equal(again, ref_forcing(fields, 0.3, x))
    # another grid at the same time after that hit is evaluated afresh
    y = Grid1D(1.0, 32).nodes()
    other = fields.forcing(0.3, y)
    assert other[0].shape == (33,)
    assert_bit_equal(other, ref_forcing(fields, 0.3, y))
    # the same array object with changed values is another grid
    memo = fields.forcing(0.3, x)
    x[3] += 1e-3
    changed = fields.forcing(0.3, x)
    assert changed[0] is not memo[0]
    assert_bit_equal(changed, ref_forcing(fields, 0.3, x))


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
def test_memo_tells_signed_zero_times_apart(frame):
    # with zero amplitudes every source is a zero whose sign follows that of t
    fields = ManufacturedFields(params=default_params(), frame=frame, c=(0.0, 0.0),
                                rho_amp=0.0)
    x = Grid1D(1.0, 8).nodes()
    for t in (0.0, -0.0, 0.0):
        assert_bit_equal(fields.forcing(t, x), ref_forcing(fields, t, x))


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
def test_forced_rk2_evaluates_once_per_stage_time(frame, monkeypatch):
    p = default_params()
    length = 1.0 if frame == EULERIAN else 2.0
    fields = ManufacturedFields(params=p, frame=frame, domain_length=length)
    grid = Grid1D(length, 32)
    name = "_forcing_eulerian" if frame == EULERIAN else "_forcing_lagrangian"
    evaluated, called = [], []
    original = getattr(ManufacturedFields, name)

    def counting(self, t, spatial):
        evaluated.append(t)
        return original(self, t, spatial)

    def forcing(t, x):
        called.append(t)
        return fields.forcing(t, x)

    monkeypatch.setattr(ManufacturedFields, name, counting)
    kernel_cls = EulerKernel if frame == EULERIAN else LagrangeKernel
    scheme = SchemeConfig(time_integrator=RK2)
    kern = kernel_cls(grid, p, derive_matrices(p), scheme, forcing)
    traj = run_loop(kern, fields.state(grid), 0.05, scheme, snapshot_every=10**9)
    steps = len(called) // 2
    assert steps > 10 and len(called) == 2 * steps
    assert sorted(evaluated) == sorted(set(called))
    assert len(evaluated) == steps + 1
    assert evaluated[-1] == traj.final.time
