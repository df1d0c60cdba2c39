import configparser
import json
import os
import shutil
from dataclasses import MISSING, fields

import numpy as np
import pytest

from mixflow.config import (
    Descriptor,
    RunConfig,
    advection,
    integrator,
    make_initial,
    parse_config,
    parse_rho_spec,
    parse_velocity_spec,
)
from mixflow import io, runner
from mixflow.cli import cli_main
from mixflow.errors import NonPositiveDensity, ParseError, ValidationError
from mixflow.estimates import KNOWN_AUDITS
from mixflow.field import EULERIAN, Grid1D
from mixflow.model import derive_matrices
from mixflow.timestepping import SchemeConfig

from conftest import CORPUS, DATA, scenario_config
from test_io_cli import SMALL_CONFIG


# INI rendering of a parsed config, for the round-trip test

def _render_rho_spec(spec: Descriptor) -> str:
    kv = dict(spec.args)
    if spec.kind == "constant":
        return f"constant:value={kv['value']!r}"
    if spec.kind == "affine":
        return f"affine:base={kv['base']!r},slope={kv['slope']!r}"
    if spec.kind == "gaussian":
        return (
            f"gaussian:base={kv['base']!r},amp={kv['amp']!r},"
            f"center={kv['center']!r},width={kv['width']!r}"
        )
    if spec.kind == "table":
        return f"table:file={kv['file']},column={kv['column']}"
    raise ValueError(f"unknown rho spec {spec.kind!r}")


def _render_velocity_spec(spec: Descriptor) -> str:
    if spec.kind == "zero":
        return "zero"
    kv = dict(spec.args)
    if spec.kind == "table":
        return f"table:file={kv['file']},column={kv['column']}"
    return " + ".join(f"sine:k={k},amp={amp!r}" for k, amp in kv["modes"])


def serialize_config(rc: RunConfig) -> str:
    """Render a RunConfig back to INI text; parse(serialize(rc)) == rc."""
    p = rc.params
    lines = [
        "[params]",
        f"n_components = {p.N}",
        f"pressure_coeff = {p.K!r}",
        f"gamma = {p.gamma!r}",
        f"viscosity = {json.dumps(p.M.tolist())}",
        f"friction = {json.dumps(p.A.tolist())}",
        f"t_final = {p.T_final!r}",
        "",
        "[scheme]",
        f"integrator = {rc.scheme.time_integrator}",
        f"advection = {rc.scheme.advection}",
        f"cfl = {rc.scheme.cfl!r}",
        f"density_floor = {rc.scheme.artificial_floor!r}",
        f"n_cells = {rc.n_cells}",
        f"t_end = {rc.t_end!r}",
        f"frame = {rc.frame}",
        "",
        "[initial]",
        f"rho = {_render_rho_spec(rc.initial.rho)}",
    ]
    for i, spec in enumerate(rc.initial.u, start=1):
        lines.append(f"u{i} = {_render_velocity_spec(spec)}")
    lines += [
        "",
        "[output]",
        f"out_dir = {rc.out_dir}",
        f"snapshot_every = {rc.snapshot_every}",
        f"audits = {','.join(rc.audit_set)}",
        "",
    ]
    return "\n".join(lines)


MINIMAL = """
[params]
n_components = 2
pressure_coeff = 1.0
gamma = 1.4
viscosity = [[1.0, 0.0], [0.0, 1.0]]
friction = [[0.0, 1.0], [1.0, 0.0]]
t_final = 2.0

[initial]
rho = constant:value=1.0
u1 = zero
u2 = zero
"""


class TestParse:
    def test_minimal_fills_defaults(self):
        rc = parse_config(MINIMAL)
        assert rc.params.N == 2
        assert rc.n_cells == 256
        assert rc.frame == EULERIAN
        assert rc.scheme.time_integrator == "explicit-RK2"
        assert rc.audit_set == tuple(sorted(rc.audit_set, key=rc.audit_set.index))
        # every absent [scheme] and [output] key keeps its dataclass default
        assert rc.scheme == SchemeConfig()
        defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
        assert set(defaults) == {"n_cells", "frame", "snapshot_every", "audit_set", "out_dir"}
        assert {name: getattr(rc, name) for name in defaults} == defaults
        assert rc.t_end == rc.params.T_final

    def test_bad_gamma_named(self):
        text = MINIMAL.replace("gamma = 1.4", "gamma = 0.9")
        with pytest.raises(Exception) as exc_info:
            parse_config(text)
        assert "gamma" in str(exc_info.value)

    def test_matrix_row_length_rejected(self):
        text = MINIMAL.replace("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]")
        from mixflow.errors import BadDimension

        with pytest.raises(BadDimension):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + "\n[output]\nbanana = 1\n")

    @pytest.mark.parametrize("key", ["u01", "u3", "u0"])
    def test_unknown_initial_key_rejected(self, key):
        # u01 is not u1, though int("01") == 1
        with pytest.raises(ParseError, match=f"unknown key '{key}' in \\[initial\\]"):
            parse_config(MINIMAL + f"{key} = zero\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + "\n[extra]\nx = 1\n")

    def test_missing_velocity_rejected(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL.replace("u2 = zero\n", ""))

    def test_t_end_capped_by_horizon(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "\n[scheme]\nt_end = 3.0\n")

    @pytest.mark.parametrize("key, value, resolve, field", [
        ("integrator", "RK4", integrator, "time_integrator"),
        ("integrator", "explicit-rk4", integrator, "time_integrator"),
        ("advection", "central", advection, "advection"),
        ("advection", "first-order-upwind", advection, "advection"),
    ])
    def test_ini_keys_resolve_through_the_name_table(self, key, value, resolve, field):
        rc = parse_config(MINIMAL + f"\n[scheme]\n{key} = {value}\n")
        assert getattr(rc.scheme, field) == resolve(value)

    @pytest.mark.parametrize("key, resolve", [("integrator", integrator),
                                              ("advection", advection)])
    def test_unknown_name_same_error_from_ini_and_table(self, key, resolve):
        with pytest.raises(ParseError) as from_ini:
            parse_config(MINIMAL + f"\n[scheme]\n{key} = bogus\n")
        with pytest.raises(ParseError) as from_table:
            resolve("bogus")
        assert str(from_ini.value) == str(from_table.value) == f"unknown {key} 'bogus'"

    def test_round_trip(self):
        rc = parse_config(MINIMAL + "\n[scheme]\nintegrator = semi-implicit\ncfl = 0.3\n")
        text = serialize_config(rc)
        rc2 = parse_config(text, base_dir=rc.initial.base_dir)
        assert rc2 == rc
        assert serialize_config(rc2) == text


class TestDescriptors:
    def test_rho_kinds(self):
        assert parse_rho_spec("constant:value=2.0").kind == "constant"
        assert parse_rho_spec("affine:base=1.0,slope=0.5").kind == "affine"
        spec = parse_rho_spec("gaussian:base=1.0,amp=0.4,center=0.5,width=0.1")
        assert dict(spec.args)["width"] == 0.1

    def test_rho_missing_arg(self):
        with pytest.raises(ParseError):
            parse_rho_spec("gaussian:base=1.0")

    def test_velocity_kinds(self):
        assert parse_velocity_spec("zero").kind == "zero"
        v = parse_velocity_spec("sine:k=1,amp=0.1 + sine:k=2,amp=-0.05")
        assert dict(v.args)["modes"] == ((1, 0.1), (2, -0.05))

    def test_velocity_unknown(self):
        with pytest.raises(ParseError):
            parse_velocity_spec("vortex:k=1")


class TestMakeInitial:
    def test_rest(self):
        g = Grid1D(1.0, 16)
        rc = parse_config(MINIMAL)
        s = make_initial(rc.initial, g)
        assert np.all(s.rho == 1.0)
        assert np.all(s.U == 0.0)
        assert s.frame == EULERIAN

    def test_sine_boundary_exact_zero(self):
        g = Grid1D(1.0, 16)
        text = MINIMAL.replace("u1 = zero", "u1 = sine:k=1,amp=0.1")
        s = make_initial(parse_config(text).initial, g)
        assert s.U[0, 0] == 0.0 and s.U[0, -1] == 0.0
        assert s.U[0, 8] == pytest.approx(0.1, abs=1e-12)

    def test_affine_and_gaussian_sampling(self):
        g = Grid1D(1.0, 32)
        text = MINIMAL.replace("rho = constant:value=1.0", "rho = affine:base=1.0,slope=0.5")
        s = make_initial(parse_config(text).initial, g)
        assert np.allclose(s.rho, 1.0 + 0.5 * g.nodes(), atol=1e-15)

    def test_nonpositive_density_rejected(self):
        g = Grid1D(1.0, 16)
        text = MINIMAL.replace("rho = constant:value=1.0", "rho = affine:base=0.5,slope=-1.0")
        with pytest.raises(NonPositiveDensity):
            make_initial(parse_config(text).initial, g)

    def test_table_round_trip(self, tmp_path):
        # a snapshot written by the io module reads back as initial data
        from mixflow import io
        from mixflow.field import State

        g = Grid1D(1.0, 24)
        x = g.nodes()
        u = 0.07 * np.sin(np.pi * x)
        u[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=g, rho=1.0 + 0.1 * x, U=np.array([u, -u]))
        path = tmp_path / "init.csv"
        io.write_snapshot(str(path), s)

        text = MINIMAL.replace("rho = constant:value=1.0", "rho = table:file=init.csv,column=rho")
        text = text.replace("u1 = zero", "u1 = table:file=init.csv,column=u1")
        text = text.replace("u2 = zero", "u2 = table:file=init.csv,column=u2")
        rc = parse_config(text, base_dir=str(tmp_path))
        s2 = make_initial(rc.initial, g)
        assert np.allclose(s2.rho, s.rho, atol=1e-15)
        assert np.allclose(s2.U, s.U, atol=1e-15)


class TestScenarios:
    @pytest.mark.parametrize("name", CORPUS)
    def test_ini_and_manifest_name_the_same_params(self, name):
        # a shipped INI file's [params] keys are the keys a manifest stores,
        # and the manifest's parameters read back equal
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(DATA / f"{name}.ini")
        params = scenario_config(name).params
        stored = io.params_to_dict(params)
        assert sorted(cp["params"]) == sorted(stored)
        assert io.params_from_dict(json.loads(json.dumps(stored))) == params

    def test_corpus_parses(self):
        for name in CORPUS:
            rc = scenario_config(name)
            assert rc.n_cells == 256
            assert rc.t_end == 1.0
            assert rc.scheme.time_integrator == "explicit-RK2"
            assert rc.frame == "both"

    def test_corpus_initial_data_sampled(self):
        for name in CORPUS:
            rc = scenario_config(name)
            s = make_initial(rc.initial, Grid1D(1.0, 64))
            assert s.rho.min() > 0.0

    def test_near_vacuum_floor(self):
        rc = scenario_config("near_vacuum")
        s = make_initial(rc.initial, Grid1D(1.0, 256))
        assert s.rho.min() == pytest.approx(0.05, abs=1e-3)


# descriptors that ran, or were misread, instead of being rejected
MALFORMED = {
    "misspelt-gaussian-argument": ("rho", "gaussian:base=1.0,amp=0.3,center=0.4,width=0.15,wdith=9"),
    "unknown-sine-argument": ("u1", "sine:k=1,amp=0.1,phase=3"),
    "table-prefix": ("u1", "tablex:file=a,column=b"),
    "repeated-argument": ("rho", "constant:value=1,value=2"),
    "zero-gaussian-width": ("rho", "gaussian:base=1.0,amp=0.3,center=0.4,width=0"),
}


@pytest.mark.parametrize("key, spec", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_descriptor_exits_2_with_one_line(tmp_path, capsys, key, spec):
    shipped = {"rho": "gaussian:base=1.0,amp=0.3,center=0.4,width=0.15", "u1": "sine:k=1,amp=0.1"}
    cfg = tmp_path / "case.ini"
    cfg.write_text(SMALL_CONFIG.replace(f"{key} = {shipped[key]}", f"{key} = {spec}"))
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: [initial] {key}: "), err


_RHO = "rho = gaussian:base=1.0,amp=0.3,center=0.4,width=0.15"
_U1 = "u1 = sine:k=1,amp=0.1"
_VISCOSITY = "viscosity = [[0.1, 0.02], [0.02, 0.1]]"


@pytest.mark.parametrize("line, edited, reason", [
    (_RHO, "rho = constant:value=nan", "[initial] rho: value must be finite, got nan"),
    (_RHO, "rho = gaussian:base=1.0,amp=0.3,center=0.4,width=inf",
     "[initial] rho: width must be finite, got inf"),
    (_RHO, "rho = affine:base=1.0,slope=-inf", "[initial] rho: slope must be finite, got -inf"),
    (_U1, "u1 = sine:k=1,amp=inf", "[initial] u1: amp must be finite, got inf"),
    (_U1, "u1 = sine:k=1,amp=-inf", "[initial] u1: amp must be finite, got -inf"),
    (_U1, "u1 = sine:k=1,amp=0.1 + sine:k=2,amp=nan", "[initial] u1: amp must be finite, got nan"),
    ("t_final = 2.0", "t_final = inf", "T_final must be finite, got inf"),
    ("pressure_coeff = 1.0", "pressure_coeff = inf", "K must be finite, got inf"),
    ("gamma = 1.4", "gamma = inf", "gamma must be finite, got inf"),
    (_VISCOSITY, "viscosity = [[Infinity, 0.02], [0.02, 0.1]]",
     "viscosity matrix M has a non-finite entry"),
    (_VISCOSITY, "viscosity = [[0.1, NaN], [NaN, 0.1]]",
     "viscosity matrix M has a non-finite entry"),
    ("friction = [[0.0, 0.4], [0.4, 0.0]]", "friction = [[0.0, Infinity], [Infinity, 0.0]]",
     "friction matrix A has a non-finite entry"),
    ("advection = upwind", "advection = upwind\ndensity_floor = inf",
     "artificial_floor must be finite and > 0, got inf"),
    (_VISCOSITY, f"viscosity = [[1{'0' * 400}, 0.02], [0.02, 0.1]]",
     "[params] viscosity: expected JSON row lists (int too large to convert to float)"),
    ("snapshot_every = 10", "snapshot_every = 0", "snapshot_every must be >= 1"),
], ids=["rho-nan", "gaussian-width-inf", "affine-slope-minus-inf", "sine-amp-inf",
        "sine-amp-minus-inf", "second-mode-amp-nan", "t-final-inf", "pressure-coeff-inf",
        "gamma-inf", "viscosity-inf", "viscosity-nan", "friction-inf", "density-floor-inf",
        "viscosity-beyond-float", "snapshot-every-zero"])
def test_non_finite_descriptor_number_exits_2_before_any_output(tmp_path, capsys, line, edited,
                                                                reason):
    """Every non-finite [initial], [params] or [scheme] number, and every
    out-of-range one, ends the run with one line before the output
    directory is made."""
    cfg = tmp_path / "case.ini"
    assert line in SMALL_CONFIG
    cfg.write_text(SMALL_CONFIG.replace(line, edited))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize("header", ["[DEFAULT]\ncfl = 0.3\n", "[DEFAULT]\n"],
                         ids=["with-key", "empty"])
def test_default_section_is_an_unknown_section(tmp_path, capsys, header):
    """configparser's [DEFAULT] is not a mixflow section: it is rejected like
    any other unknown one, not spread into [params] and the rest."""
    cfg = tmp_path / "shear.ini"
    shipped = os.path.join(os.path.dirname(io.__file__), "data", "shear.ini")
    cfg.write_text(header + open(shipped).read())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: unknown section [DEFAULT]"]
    assert not out.exists()


def test_manifest_with_infinite_t_final_exits_2(tmp_path, capsys):
    cfg = tmp_path / "case.ini"
    cfg.write_text(SMALL_CONFIG)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out), "--frame",
                     "eulerian", "--t-end", "0.02"]) == 0
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"t_final": 2.0', '"t_final": Infinity'))
    capsys.readouterr()
    assert cli_main(["check", "--traj", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("T_final must be finite, got inf"), err


def _nan_rho_cell(lines):
    cells = lines[5].split(",")
    cells[1] = "nan"
    return [*lines[:5], ",".join(cells), *lines[6:]]


@pytest.mark.parametrize("edit, reason", [
    (lambda lines: lines[:1], "random_smooth_init.csv: no data rows"),
    (lambda lines: lines[:2], "needs 2 or more rows of finite x_or_y and rho"),
    (_nan_rho_cell, "needs 2 or more rows of finite x_or_y and rho"),
], ids=["header-only", "one-data-row", "nan-cell"])
def test_malformed_table_exits_2_with_one_line(tmp_path, capsys, edit, reason):
    data = os.path.join(os.path.dirname(io.__file__), "data")
    shutil.copy(os.path.join(data, "random_smooth.ini"), tmp_path)
    lines = open(os.path.join(data, "random_smooth_init.csv")).read().splitlines()
    (tmp_path / "random_smooth_init.csv").write_text("\n".join(edit(lines)) + "\n")
    argv = ["run", "--config", str(tmp_path / "random_smooth.ini"), "--out-dir",
            str(tmp_path / "out")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and reason in err, err


def _run_overflowing_table(tmp_path, rows):
    """Exit code of a random_smooth run whose table has the data ``rows``, and its table."""
    data = os.path.join(os.path.dirname(io.__file__), "data")
    shutil.copy(os.path.join(data, "random_smooth.ini"), tmp_path)
    table = tmp_path / "random_smooth_init.csv"
    table.write_text("x_or_y,rho,u1,u2,u3\n" + rows)
    return cli_main(["run", "--config", str(tmp_path / "random_smooth.ini"), "--n-cells", "16",
                     "--out-dir", str(tmp_path / "out")]), table


def test_table_whose_slopes_overflow_exits_2_with_one_line(tmp_path, capsys):
    # finite rows whose secant 1e300 / 1e-300 overflows: the interpolated
    # column is not finite, and the table is refused by file and column
    code, table = _run_overflowing_table(
        tmp_path, "0.0,1.0,0,0,0\n1e-300,1e300,0,0,0\n1.0,1.0,0,0,0\n")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: table {table} column 'rho' interpolates to non-finite values"]


def test_table_velocity_whose_slopes_overflow_exits_2_with_one_line(tmp_path, capsys):
    code, table = _run_overflowing_table(
        tmp_path, "0.0,1.0,0,0,0\n1e-300,1.0,1e300,0,0\n1.0,1.0,0,0,0\n")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: table {table} column 'u1' interpolates to non-finite values"]


@pytest.mark.parametrize("t_end", ["1e-14", "1e-13", "0"])
def test_horizon_that_takes_no_step_exits_2_before_any_output(tmp_path, capsys, t_end):
    # run_loop stops END_SLACK short of t_end, so below it a run records t = 0 alone
    out = tmp_path / "out"
    assert cli_main(["run", "--config", os.path.join(DATA, "shear.ini"), "--t-end", t_end,
                     "--n-cells", "16", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: t_end must lie in (1e-13, T_final = 2.0], got {float(t_end)}"]
    assert not out.exists()


def test_shortest_accepted_horizon_takes_a_step():
    rc = parse_config(MINIMAL + "\n[scheme]\nt_end = 2e-13\n")
    grid = Grid1D(domain_length=1.0, n_cells=8)
    traj = runner.integrate(make_initial(rc.initial, grid), rc.params,
                            derive_matrices(rc.params), rc.scheme, rc.t_end)
    assert list(traj.times) == [0.0, 2e-13]


def test_unknown_audit_fails_before_any_load(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "case.ini"
    cfg.write_text(SMALL_CONFIG)
    out = str(tmp_path / "out")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", out]) == 0
    capsys.readouterr()
    loads = []

    def load(*args, **kwargs):
        loads.append(args)
        raise AssertionError("a trajectory was loaded")

    monkeypatch.setattr(io, "load_trajectory", load)
    assert cli_main(["check", "--traj", out, "--audits", "gronwall,bogus"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: unknown audit 'bogus'; known: {KNOWN_AUDITS}"]
    assert loads == []
