import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import mixflow.data
from mixflow.config import parse_config_file
from mixflow.euler import EulerKernel
from mixflow.field import EULERIAN, Grid1D, State, integrate
from mixflow.lagrange import LagrangeKernel
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import SchemeConfig

#: the directory of the shipped INI files
DATA = Path(mixflow.data.__file__).parent
#: the shipped scenarios, one INI file each in DATA
CORPUS = ("rest", "equal_velocity", "shear", "gaussian_bump", "near_vacuum", "random_smooth")


def scenario_config(name):
    """The parsed shipped INI file ``mixflow/data/<name>.ini``."""
    return parse_config_file(str(DATA / f"{name}.ini"))


@pytest.fixture
def params2():
    return make_params(
        N=2, K=1.0, gamma=1.4,
        M=[[0.12, 0.03], [0.03, 0.1]],
        A=[[0.0, 0.4], [0.4, 0.0]],
        T_final=2.0,
    )


@pytest.fixture
def derived2(params2):
    return derive_matrices(params2)


@pytest.fixture
def grid64():
    return Grid1D(domain_length=1.0, n_cells=64)


def smooth_state(grid, n_comp=2, rho_amp=0.3, u_amp=0.12):
    """Generic smooth Eulerian test state with active shear."""
    x = grid.nodes()
    rho = 1.0 + rho_amp * np.exp(-(((x - 0.4) / 0.15) ** 2))
    U = np.zeros((n_comp, x.size))
    for i in range(n_comp):
        sign = 1.0 if i % 2 == 0 else -0.7
        U[i] = sign * u_amp * np.sin(np.pi * x) + 0.25 * u_amp * np.sin(2 * np.pi * x) / (i + 1)
    U[:, 0] = 0.0
    U[:, -1] = 0.0
    return State(time=0.0, frame=EULERIAN, grid=grid, rho=rho, U=U)


@pytest.fixture
def shear_state(grid64):
    return smooth_state(grid64)


@pytest.fixture
def upwind_scheme():
    return SchemeConfig()


@pytest.fixture
def central_scheme():
    return SchemeConfig(advection="central-2")


def friction_power(state, params):
    """-sum_ij A[i,j] int (u_j - u_i) u_i dx (dy/rho in mass coordinates), the
    power of the friction force; equals ``friction_dissipation`` exactly."""
    row = params.A.sum(axis=1)
    exch = params.A @ state.U - row[:, None] * state.U
    wgt = 1.0 if state.frame == EULERIAN else 1.0 / state.rho
    return -integrate((exch * state.U).sum(axis=0) * wgt, state.grid)


def records(traj):
    """The recorded states of ``traj`` in time order, one per row of its stack."""
    return [traj.state(k) for k in range(len(traj))]


def stack(q, U):
    """The integrators' state layout: q in row 0, one velocity per row below."""
    return np.concatenate([np.asarray(q, dtype=float)[None], np.asarray(U, dtype=float)])


def euler_tendencies(state, params, derived, scheme=None):
    """(drho/dt, dU/dt) of an Eulerian state through the kernel."""
    kern = EulerKernel(state.grid, params, derived, scheme or SchemeConfig())
    return kern.tendencies(state.time, np.asarray(state.rho), np.asarray(state.U))


def lagrange_tendencies(state, params, derived, scheme=None):
    """(drho/dt, dU/dt) of a mass-coordinate state; the kernel evolves 1/rho."""
    kern = LagrangeKernel(state.grid, params, derived, scheme or SchemeConfig())
    rho = np.asarray(state.rho)
    dtau, dU = kern.tendencies(state.time, 1.0 / rho, np.asarray(state.U))
    return -(rho * rho) * dtau, dU


def redigest(sub):
    """Give the manifest of the trajectory directory ``sub`` the sha256 of
    its ``states.npy`` and of its final snapshot as they are now: of the
    store's checks, only those of the files' contents can then refuse them."""
    mpath = os.path.join(sub, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    for key, name in ("states_sha256", "states.npy"), ("snapshot_sha256", manifest["snapshots"][0]):
        with open(os.path.join(sub, name), "rb") as fh:
            manifest[key] = hashlib.sha256(fh.read()).hexdigest()
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)


def rewrite_states(sub, change):
    """Store ``change(states)`` as the records of the trajectory directory
    ``sub``, where ``states`` is its ``states.npy`` array, writable, with
    the new file's sha256 in the manifest (:func:`redigest`)."""
    path = os.path.join(sub, "states.npy")
    np.save(path, change(np.load(path)))
    redigest(sub)


@pytest.fixture(scope="session")
def stored_two_frames(tmp_path_factory):
    """The stored two-frame run the store rows of ``tests/cli_cases.py`` copy."""
    import cli_cases

    return cli_cases.stored_run(str(tmp_path_factory.mktemp("cases")), cli_cases.in_process)


def run_row(row, tmp, pristine):
    """Run the row ``row`` of ``tests/cli_cases.py`` in-process in the empty
    directory ``tmp``; its store rows copy ``pristine``."""
    import cli_cases

    case = next(case for case in cli_cases.ROWS if case.id == row)
    assert cli_cases.faults(case, str(tmp), cli_cases.in_process, pristine) == [], row


def row_test(*rows, cases=None):
    """A test that runs rows of ``tests/cli_cases.py`` with :func:`run_row`:
    the ``rows`` in turn, or one case per item of ``cases``, a ``{case id:
    row id}`` dict or a list of row ids that are their own case ids.  It is
    a staticmethod, so that a class may hold it too."""
    if cases is None:
        def test(tmp_path, stored_two_frames):
            for k, row in enumerate(rows):
                (tmp_path / str(k)).mkdir()
                run_row(row, tmp_path / str(k), stored_two_frames)
        return staticmethod(test)
    cases = cases if isinstance(cases, dict) else {row: row for row in cases}

    @pytest.mark.parametrize("row", cases.values(), ids=cases)
    def test(row, tmp_path, stored_two_frames):
        run_row(row, tmp_path, stored_two_frames)
    return staticmethod(test)
