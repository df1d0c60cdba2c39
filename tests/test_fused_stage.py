"""The stacked, workspace-based step path reproduces the unfused one bit for bit.

The reference below is the kernel and integrator code as it was before the
stages handed their checked density to the private ``_rhs`` entry and before
the integrators carried one stacked state ``Y = [q; U]`` through kernel-owned
buffers: every tendency call recomputed and re-checked the density, returned
fresh ``(dq, dU)`` arrays, the mean velocity came from ``U.mean`` and the SBP
differences from ``field.sbp_derivative``.  Arrays are compared through int64
views so that a -0.0 or NaN difference shows, and failures by exception class
and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixflow.errors import DensityFloor, NonFinite, SolverBlowup, ValidationError
from mixflow.euler import EulerKernel
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory, sbp_derivative
from mixflow.lagrange import LagrangeKernel
from mixflow.mms import ManufacturedFields
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import (
    _ARS_DELTA,
    _ARS_GAMMA,
    CENTRAL,
    RK2,
    RK4,
    SEMI_IMPLICIT,
    UPWIND,
    SchemeConfig,
    run_loop,
    step_once,
)

from conftest import assert_bit_equal, bits, stack

KERNELS = {EULERIAN: EulerKernel, LAGRANGIAN: LagrangeKernel}

# ---------------------------------------------------------------------------
# reference: the unfused code


def ref_euler_tendencies(k, t, rho, U, include_viscous):
    p = k.params
    h = k.grid.h
    if rho.min() <= k.scheme.artificial_floor:
        raise DensityFloor(f"min(rho) = {rho.min():.3e} at t = {t:.6g}")

    v = U.mean(axis=0)
    v_f = 0.5 * (v[1:] + v[:-1])
    rho_f = 0.5 * (rho[1:] + rho[:-1])
    F = v_f * rho_f
    if k.scheme.advection == UPWIND:
        F = F - 0.5 * np.abs(v_f) * (rho[1:] - rho[:-1])
    drho = np.empty_like(rho)
    drho[1:-1] = -(F[1:] - F[:-1]) / h
    drho[0] = -2.0 * F[0] / h
    drho[-1] = 2.0 * F[-1] / h

    dU = np.zeros_like(U)
    jump = U[:, 1:] - U[:, :-1]
    conv = -(F[1:] * jump[:, 1:] + F[:-1] * jump[:, :-1]) / (2 * h)

    rg = rho ** (p.gamma - 1.0)
    P = (p.gamma / (p.gamma - 1.0)) * rho_f * (rg[1:] - rg[:-1])
    grad_p = (P[1:] + P[:-1]) / (2 * h)

    rhs = conv - p.K * grad_p

    if include_viscous:
        d2u = (U[:, 2:] - 2.0 * U[:, 1:-1] + U[:, :-2]) / (h * h)
        rhs = rhs + p.M @ d2u

    fric = p.A @ U - p.A.sum(axis=1)[:, None] * U
    rhs = rhs + fric[:, 1:-1]

    if k.scheme.advection == UPWIND:
        q = (0.5 * np.abs(v_f) * rho_f) * jump
        rhs = rhs + (q[:, 1:] - q[:, :-1]) / h

    dU[:, 1:-1] = rhs / rho[1:-1]

    if k.forcing is not None:
        s_rho, s_u = k.forcing(t, k.nodes)
        drho = drho + s_rho
        dU[:, 1:-1] = dU[:, 1:-1] + s_u[:, 1:-1]
    return drho, dU


def ref_euler_stable_dt(k, rho, U, explicit_viscosity=True):
    p = k.params
    h = k.grid.h
    rho_min = rho.min()
    if rho_min <= k.scheme.artificial_floor:
        raise DensityFloor(f"min(rho) = {rho_min:.3e} in stable_dt")
    c = np.sqrt(p.K * p.gamma * rho ** (p.gamma - 1.0))
    speed = np.abs(U.mean(axis=0)) + c
    dt = h / speed.max()
    if explicit_viscosity:
        dt = min(dt, h * h * rho_min / (2.0 * k.derived.lam_max))
    return float(dt)


def ref_density_view(q):
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / q


def ref_lagrange_tendencies(k, t, tau, U, include_viscous):
    p = k.params
    g = k.grid
    rho = ref_density_view(tau)
    if not np.all(np.isfinite(rho)) or rho.min() <= k.scheme.artificial_floor:
        raise DensityFloor(f"density below floor at t = {t:.6g}")

    v = U.mean(axis=0)
    dtau = sbp_derivative(v, g)

    dU = np.zeros_like(U)
    grad_p = sbp_derivative(rho**p.gamma, g)
    row_sum = p.A.sum(axis=1)
    rhs = -p.K * grad_p[1:-1] + (p.A @ U - row_sum[:, None] * U)[:, 1:-1] / rho[1:-1]

    if include_viscous:
        h = g.h
        rho_hat = 2.0 * rho[1:] * rho[:-1] / (rho[1:] + rho[:-1])
        flux = rho_hat * (U[:, 1:] - U[:, :-1])
        rhs = rhs + p.M @ ((flux[:, 1:] - flux[:, :-1]) / (h * h))

    dU[:, 1:-1] = rhs
    if k.forcing is not None:
        s_rho, s_u = k.forcing(t, k.nodes)
        dtau = dtau - s_rho * tau * tau
        dU[:, 1:-1] = dU[:, 1:-1] + s_u[:, 1:-1]
    return dtau, dU


def ref_lagrange_stable_dt(k, q, U, explicit_viscosity=True):
    p = k.params
    h = k.grid.h
    rho = ref_density_view(q)
    if not np.all(np.isfinite(rho)) or rho.min() <= k.scheme.artificial_floor:
        raise DensityFloor("density below floor in stable_dt")
    c = np.sqrt(p.K * p.gamma * rho ** (p.gamma - 1.0))
    dt = h / (rho * c).max()
    if explicit_viscosity:
        dt = min(dt, h * h / (2.0 * k.derived.lam_max * rho.max()))
    return float(dt)


REF_TENDENCIES = {EULERIAN: ref_euler_tendencies, LAGRANGIAN: ref_lagrange_tendencies}
REF_STABLE_DT = {EULERIAN: ref_euler_stable_dt, LAGRANGIAN: ref_lagrange_stable_dt}
REF_DENSITY = {EULERIAN: lambda q: q, LAGRANGIAN: ref_density_view}


def ref_check_stage(frame, q, U, floor, where):
    rho = REF_DENSITY[frame](q)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(U))):
        raise NonFinite(f"non-finite values in {where}")
    m = rho.min()
    if m <= floor:
        raise DensityFloor(f"min(rho) = {m:.3e} <= floor {floor:.1e} in {where}")
    return rho


def ref_step_once(k, t, q, U, dt, scheme, tend):
    """The unfused step; ``tend(t, q, U, include_viscous)`` is the reference
    kernel, density check included."""
    floor = scheme.artificial_floor
    frame = k.frame

    def f(t, q, U):
        return tend(t, q, U, True)

    if scheme.time_integrator == RK2:
        k1r, k1u = f(t, q, U)
        r1 = q + dt * k1r
        u1 = U + dt * k1u
        ref_check_stage(frame, r1, u1, floor, "RK2 stage")
        k2r, k2u = f(t + dt, r1, u1)
        q_n = q + 0.5 * dt * (k1r + k2r)
        U_n = U + 0.5 * dt * (k1u + k2u)
    elif scheme.time_integrator == RK4:
        k1r, k1u = f(t, q, U)
        r, u = q + 0.5 * dt * k1r, U + 0.5 * dt * k1u
        ref_check_stage(frame, r, u, floor, "RK4 stage")
        k2r, k2u = f(t + 0.5 * dt, r, u)
        r, u = q + 0.5 * dt * k2r, U + 0.5 * dt * k2u
        ref_check_stage(frame, r, u, floor, "RK4 stage")
        k3r, k3u = f(t + 0.5 * dt, r, u)
        r, u = q + dt * k3r, U + dt * k3u
        ref_check_stage(frame, r, u, floor, "RK4 stage")
        k4r, k4u = f(t + dt, r, u)
        q_n = q + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        U_n = U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    else:
        g, d = _ARS_GAMMA, _ARS_DELTA
        k1r, k1u = tend(t, q, U, False)
        q2 = q + g * dt * k1r
        rho2 = ref_check_stage(frame, q2, U, floor, "IMEX stage")
        b2 = U + g * dt * k1u
        U2 = k.viscous_solve(rho2, b2, g * dt)
        k2i = (U2 - b2) / (g * dt)
        k2r, k2u = tend(t + g * dt, q2, U2, False)
        q_n = q + dt * (d * k1r + (1.0 - d) * k2r)
        rho_n = ref_check_stage(frame, q_n, U2, floor, "IMEX stage")
        b3 = U + dt * (d * k1u + (1.0 - d) * k2u + (1.0 - g) * k2i)
        U_n = k.viscous_solve(rho_n, b3, g * dt)

    U_n[:, 0] = 0.0
    U_n[:, -1] = 0.0
    ref_check_stage(frame, q_n, U_n, floor, "step result")
    return q_n, U_n


def ref_run_loop(k, initial, t_end, scheme, tend):
    """The unfused run loop, recording every step."""
    states = []

    def record(t, q, U):
        states.append(State(time=t, frame=k.frame, grid=k.grid,
                            rho=np.array(REF_DENSITY[k.frame](q)), U=U.copy()))

    t = float(initial.time)
    q = k.to_evolved(np.array(initial.rho, dtype=float))
    U = np.array(initial.U, dtype=float)
    record(t, q, U)
    explicit_visc = scheme.time_integrator != SEMI_IMPLICIT
    try:
        while t < t_end - 1e-13 * max(t_end, 1.0):
            dt = REF_STABLE_DT[k.frame](k, q, U, explicit_visc) * scheme.cfl
            dt = min(dt, t_end - t)
            q, U = ref_step_once(k, t, q, U, dt, scheme, tend)
            t += dt
            record(t, q, U)
    except SolverBlowup as exc:
        exc.trajectory = Trajectory.stack(states)
        raise
    return Trajectory.stack(states)


# ---------------------------------------------------------------------------
# comparison helpers


def assert_same_records(got, want):
    """Equal record times and bit-equal recorded fields."""
    assert got.times.tolist() == want.times.tolist()
    assert_bit_equal([got.rho, got.U], [want.rho, want.U])


def outcome(fn, *args):
    """``("ok", result)`` or ``("raise", class, message)``."""
    try:
        return ("ok", fn(*args))
    except (SolverBlowup, ValidationError) as exc:
        return ("raise", type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:]
    else:
        assert_bit_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# random kernels and fields


@st.composite
def kernel_cases(draw):
    N = draw(st.sampled_from([2, 3]))
    frame = draw(st.sampled_from([EULERIAN, LAGRANGIAN]))
    advection = draw(st.sampled_from([UPWIND, CENTRAL]))
    forced = draw(st.booleans())
    R = draw(arrays(float, (N, N), elements=st.floats(-1.0, 1.0)))
    M = R @ R.T + 0.05 * np.eye(N)
    M = 0.5 * (M + M.T)
    a = draw(arrays(float, (N, N), elements=st.floats(0.01, 2.0)))
    A = 0.5 * (a + a.T)
    K = draw(st.floats(0.2, 3.0))
    gamma = draw(st.sampled_from([1.4, 5.0 / 3.0, 2.0, 1.5, draw(st.floats(1.05, 3.0))]))
    params = make_params(N=N, K=K, gamma=gamma, M=M, A=A, T_final=2.0)
    n_cells = draw(st.integers(8, 40))
    length = 1.0 if frame == EULERIAN else draw(st.floats(0.5, 3.0))
    grid = Grid1D(domain_length=length, n_cells=n_cells)
    rho = draw(arrays(float, n_cells + 1, elements=st.floats(0.2, 5.0)))
    U = draw(arrays(float, (N, n_cells + 1), elements=st.floats(-2.0, 2.0)))
    U[:, 0] = 0.0
    U[:, -1] = 0.0
    forcing = None
    if forced:
        c = tuple(draw(st.floats(-0.3, 0.3)) for _ in range(N))
        forcing = ManufacturedFields(params=params, frame=frame, domain_length=length, c=c).forcing
    t = draw(st.floats(0.0, 1.0))
    dt_frac = draw(st.floats(0.01, 1.0))
    return dict(frame=frame, advection=advection, params=params, derived=derive_matrices(params),
                grid=grid, rho=rho, U=U, forcing=forcing, t=t, dt_frac=dt_frac)


def make_kernel(case, integrator=RK2, floor=1e-12):
    scheme = SchemeConfig(time_integrator=integrator, advection=case["advection"],
                          artificial_floor=floor)
    kern = KERNELS[case["frame"]](case["grid"], case["params"], case["derived"], scheme,
                                  case["forcing"])
    return kern, scheme


def ref_tend(kern):
    ref = REF_TENDENCIES[kern.frame]
    return lambda t, q, U, visc: ref(kern, t, q, U, visc)


# ---------------------------------------------------------------------------
# bit identity


@given(case=kernel_cases())
@settings(max_examples=60, deadline=None)
def test_public_kernel_entries_bit_identical(case):
    kern, _ = make_kernel(case)
    ref = REF_TENDENCIES[kern.frame]
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    assert_bit_equal(kern.tendencies(t, q, U), ref(kern, t, q, U, True))
    assert_bit_equal(kern.explicit_tendencies(t, q, U), ref(kern, t, q, U, False))
    for explicit in (True, False):
        got = kern.stable_dt(q, U, explicit)
        want = REF_STABLE_DT[kern.frame](kern, q, U, explicit)
        assert type(got) is float
        assert_bit_equal([np.array(got)], [np.array(want)])


@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
@given(case=kernel_cases())
@settings(max_examples=40, deadline=None)
def test_step_once_bit_identical(integrator, case):
    kern, scheme = make_kernel(case, integrator)
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    explicit = integrator != SEMI_IMPLICIT
    dt = case["dt_frac"] * kern.stable_dt(q, U, explicit)
    want = outcome(ref_step_once, kern, t, q, U, dt, scheme, ref_tend(kern))

    # standalone: the step checks the density of q itself
    got = outcome(step_once, kern, t, stack(q, U), dt)
    if got[0] == "ok":
        Y_n, rho_n = got[1]
        assert_bit_equal([rho_n], [kern.density_view(Y_n[0])])
        got = ("ok", (Y_n[0], Y_n[1:]))
    assert_same_outcome(got, want)

    # run-loop hand-off: checked density and stable_dt's shared values
    rho = kern._density(q, "in stable_dt")
    _, shared = kern._stable_dt(rho, U, explicit)
    got = outcome(step_once, kern, t, stack(q, U), dt, rho, shared)
    if got[0] == "ok":
        got = ("ok", (got[1][0][0], got[1][0][1:]))
    assert_same_outcome(got, want)


@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
@given(case=kernel_cases())
@settings(max_examples=15, deadline=None)
def test_run_loop_bit_identical(integrator, case):
    kern, scheme = make_kernel(case, integrator)
    state = State(time=case["t"], frame=case["frame"], grid=case["grid"], rho=case["rho"],
                  U=case["U"])
    q = kern.to_evolved(case["rho"])
    t_end = case["t"] + 4.5 * scheme.cfl * kern.stable_dt(q, case["U"], integrator != SEMI_IMPLICIT)
    want = outcome(ref_run_loop, kern, state, t_end, scheme, ref_tend(kern))
    got = outcome(run_loop, kern, state, t_end, 1)
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1:] == want[1:]
        return
    assert_same_records(got[1], want[1])


# ---------------------------------------------------------------------------
# fault paths: same exception class and message as the unfused code


def smooth_case(frame, N=2):
    params = make_params(N=N, K=1.0, gamma=1.4, M=[[0.12, 0.03], [0.03, 0.1]],
                         A=[[0.0, 0.4], [0.4, 0.0]], T_final=2.0)
    length = 1.0 if frame == EULERIAN else 1.1
    grid = Grid1D(domain_length=length, n_cells=32)
    x = grid.nodes() / length
    rho = 1.0 + 0.3 * np.exp(-(((x - 0.4) / 0.15) ** 2))
    U = np.array([0.12 * np.sin(np.pi * x), -0.08 * np.sin(np.pi * x)])
    U[:, [0, -1]] = 0.0
    return dict(frame=frame, advection=UPWIND, params=params, derived=derive_matrices(params),
                grid=grid, rho=rho, U=U, forcing=None, t=0.25, dt_frac=0.5)


def poison(fn, call, field, value):
    """Wrap a tendency function so that its ``call``-th result (counted from
    1) carries ``value`` at an interior node of q or of the second velocity;
    the result is a ``(dq, dU)`` pair from the reference, the stacked ``out``
    buffer from a kernel's ``_rhs``."""
    count = [0]

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        count[0] += 1
        if count[0] == call:
            dq, dU = result if isinstance(result, tuple) else (result[0], result[1:])
            if field == "q":
                dq[5] = value
            else:
                dU[1, 5] = value
        return result

    return wrapped


def poison_solve(solve, call, value):
    """Wrap a viscous solve so that its ``call``-th result carries ``value``
    at an interior node of the second velocity."""
    count = [0]

    def wrapped(*args):
        U = solve(*args)
        count[0] += 1
        if count[0] == call:
            U[1, 5] = value
        return U

    return wrapped


# each poisoned tendency call feeds one stage check, or in IMEX the right-hand
# side of a solve; the last explicit one feeds only the step result; -1e12 in
# q drives the density below the floor
CALLS_PER_STEP = {RK2: 2, RK4: 4, SEMI_IMPLICIT: 2}
STAGE_CALLS = [(i, c) for i, n in CALLS_PER_STEP.items() for c in range(1, n + 1)]
BAD = [("q", np.nan), ("q", np.inf), ("q", -np.inf), ("q", -1e12),
       ("U", np.nan), ("U", np.inf), ("U", -np.inf)]


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("integrator,call", STAGE_CALLS)
@pytest.mark.parametrize("field,value", BAD)
def test_stage_fault_same_as_unfused(frame, integrator, call, field, value):
    case = smooth_case(frame)
    kern, scheme = make_kernel(case, integrator)
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    dt = 0.5 * kern.stable_dt(q, U, True)
    want = outcome(ref_step_once, kern, t, q, U, dt, scheme,
                   poison(ref_tend(kern), call, field, value))
    assert want[0] == "raise"
    kern._rhs = poison(kern._rhs, call, field, value)
    got = outcome(step_once, kern, t, stack(q, U), dt)
    assert got == want


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("integrator,call", STAGE_CALLS)
@pytest.mark.parametrize("field,value", BAD)
def test_run_loop_fault_keeps_trajectory(frame, integrator, call, field, value):
    # the poisoned call is in the third step, after two recorded steps
    case = smooth_case(frame)
    kern, scheme = make_kernel(case, integrator)
    state = State(time=0.0, frame=frame, grid=case["grid"], rho=case["rho"], U=case["U"])
    call += 2 * CALLS_PER_STEP[integrator]
    with pytest.raises(SolverBlowup) as want:
        ref_run_loop(kern, state, 1.0, scheme, poison(ref_tend(kern), call, field, value))
    kern._rhs = poison(kern._rhs, call, field, value)
    with pytest.raises(SolverBlowup) as got:
        run_loop(kern, state, 1.0, 1)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    got, want = got.value.trajectory, want.value.trajectory
    assert len(got) == len(want) == 3
    assert_same_records(got, want)


# an infinite first solve reaches the second stage's tendencies, whose
# arithmetic on it warns before the stage check raises
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("call", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_imex_solve_fault_same_as_unfused(frame, call, value):
    # the second solve feeds only the step result, which checks U_n without
    # re-checking the density of q_n
    case = smooth_case(frame)
    kern, scheme = make_kernel(case, SEMI_IMPLICIT)
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    dt = 0.5 * kern.stable_dt(q, U, False)
    solve = kern.viscous_solve
    kern.viscous_solve = poison_solve(solve, call, value)
    want = outcome(ref_step_once, kern, t, q, U, dt, scheme, ref_tend(kern))
    assert want[0] == "raise"
    kern.viscous_solve = poison_solve(solve, call, value)
    assert outcome(step_once, kern, t, stack(q, U), dt) == want

    state = State(time=0.0, frame=frame, grid=case["grid"], rho=case["rho"], U=U)
    kern.viscous_solve = poison_solve(solve, call + 2 * 2, value)  # third step, two solves each
    with pytest.raises(SolverBlowup) as info:
        run_loop(kern, state, 1.0, 1)
    assert (type(info.value), str(info.value)) == want[1:]
    assert len(info.value.trajectory) == 3


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
def test_entry_density_at_floor_same_as_unfused(frame, integrator):
    case = smooth_case(frame)
    probe, _ = make_kernel(case)
    floor = float(probe.density_view(probe.to_evolved(case["rho"])).min())
    kern, scheme = make_kernel(case, integrator, floor=floor)
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    want = outcome(ref_step_once, kern, t, q, U, 1e-4, scheme, ref_tend(kern))
    assert want[0] == "raise" and want[1] is DensityFloor
    assert outcome(step_once, kern, t, stack(q, U), 1e-4) == want

    # in the run loop the first stable-step estimate reports it
    state = State(time=0.0, frame=frame, grid=case["grid"], rho=case["rho"], U=U)
    want = outcome(REF_STABLE_DT[frame], kern, q, U, integrator != SEMI_IMPLICIT)
    with pytest.raises(DensityFloor) as info:
        run_loop(kern, state, 1.0)
    assert ("raise", DensityFloor, str(info.value)) == want
    assert len(info.value.trajectory) == 1


# ---------------------------------------------------------------------------
# workspace isolation: each kernel owns its buffers, results outlive them


def march(kern, scheme, state, steps):
    """Yield ``(t, Y)`` after each of ``steps`` steps, as ``run_loop`` takes them."""
    Y = stack(kern.to_evolved(np.array(state.rho)), state.U)
    rho = kern._density(Y[0], "in stable_dt")
    t = state.time
    explicit = scheme.time_integrator != SEMI_IMPLICIT
    for _ in range(steps):
        dt, shared = kern._stable_dt(rho, Y[1:], explicit)
        Y, rho = step_once(kern, t, Y, dt * scheme.cfl, rho, shared)
        t += dt * scheme.cfl
        yield t, Y


def fresh_state(case):
    return State(time=case["t"], frame=case["frame"], grid=case["grid"], rho=case["rho"],
                 U=case["U"])


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
def test_interleaved_kernels_equal_solo_runs(frame, integrator):
    cases = []
    for n_cells in (24, 40):
        case = smooth_case(frame)
        x = np.linspace(0.0, 1.0, n_cells + 1)
        case.update(grid=Grid1D(case["grid"].domain_length, n_cells),
                    rho=1.0 + 0.3 * np.exp(-(((x - 0.4) / 0.15) ** 2)),
                    U=np.array([0.12 * np.sin(np.pi * x), -0.08 * np.sin(np.pi * x)]))
        case["U"][:, [0, -1]] = 0.0
        cases.append(case)
    solo = []
    for case in cases:
        kern, scheme = make_kernel(case, integrator)
        solo.append([(t, Y.copy()) for t, Y in march(kern, scheme, fresh_state(case), 6)])
    kernels = [make_kernel(case, integrator) for case in cases]
    together = zip(*(march(k, s, fresh_state(c), 6) for (k, s), c in zip(kernels, cases)))
    for step, results in enumerate(together):
        for (t, Y), want in zip(results, solo):
            assert t == want[step][0]
            assert_bit_equal([Y], [want[step][1]])


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
def test_rk4_keeps_four_derivatives_alive(frame):
    case = smooth_case(frame)
    kern, scheme = make_kernel(case, RK4)
    q = kern.to_evolved(case["rho"])
    U, t = case["U"], case["t"]
    dt = 0.5 * kern.stable_dt(q, U, True)
    outs, rhs = [], kern._rhs

    def recording(t, Y, rho, include_viscous, out, shared=None):
        outs.append(out)
        return rhs(t, Y, rho, include_viscous, out, shared)

    kern._rhs = recording
    Y_n, _ = step_once(kern, t, stack(q, U), dt)
    assert len(outs) == 4
    assert not any(np.shares_memory(a, b) for i, a in enumerate(outs) for b in outs[i + 1:])
    assert not any(np.shares_memory(a, Y_n) for a in outs)
    want = ref_step_once(kern, t, q, U, dt, scheme, ref_tend(kern))
    assert_bit_equal([Y_n[0], Y_n[1:]], want)


def assert_states_unchanged(traj, copies):
    assert_bit_equal([traj.rho, traj.U], copies)


@pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
def test_recorded_states_are_copies(frame, integrator):
    case = smooth_case(frame)
    kern, scheme = make_kernel(case, integrator)
    state = State(time=0.0, frame=frame, grid=case["grid"], rho=case["rho"], U=case["U"])
    traj = run_loop(kern, state, 4.5 * scheme.cfl * kern.stable_dt(
        kern.to_evolved(case["rho"]), case["U"], integrator != SEMI_IMPLICIT), 1)
    assert len(traj) >= 5
    buffers = (*kern._states, *kern._derivs)
    assert not any(np.shares_memory(a, b) for a in (traj.rho, traj.U) for b in buffers)
    copies = [traj.rho.copy(), traj.U.copy()]
    for _ in march(kern, scheme, traj.final, 5):  # the same kernel steps on
        pass
    assert_states_unchanged(traj, copies)

    # a blow-up's partial trajectory, then more steps on the same kernel
    rhs = kern._rhs
    kern._rhs = poison(rhs, 2 * CALLS_PER_STEP[integrator] + 1, "q", np.nan)
    with pytest.raises(SolverBlowup) as info:
        run_loop(kern, state, 1.0, 1)
    partial = info.value.trajectory
    assert len(partial) == 3
    copies = [partial.rho.copy(), partial.U.copy()]
    kern._rhs = rhs
    for _ in march(kern, scheme, state, 5):
        pass
    assert_states_unchanged(partial, copies)
