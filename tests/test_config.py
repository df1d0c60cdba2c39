import configparser
import json
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
from mixflow.errors import ParseError, ValidationError
from mixflow.field import EULERIAN, Grid1D
from mixflow.model import derive_matrices
from mixflow.timestepping import SchemeConfig

from conftest import CORPUS, DATA, row_test, scenario_config


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
        with pytest.raises(ValidationError, match=r"M must be 2x2, got shape \(2, 3\)"):
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
        with pytest.raises(ValidationError, match="initial density must be positive, min = -0.5"):
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

    def test_table_named_four_times_is_read_once_per_call(self, monkeypatch):
        rc = scenario_config("random_smooth")
        reads = []
        monkeypatch.setattr("mixflow.config.read_csv",
                            lambda path: reads.append(path) or io.read_csv(path))
        want = make_initial(rc.initial, Grid1D(1.0, 64))
        assert len(reads) == 1
        again = make_initial(rc.initial, Grid1D(1.0, 64))  # no cache across calls
        assert len(reads) == 2
        for a, b in ((want.rho, again.rho), (want.U, again.U)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_near_vacuum_floor(self):
        rc = scenario_config("near_vacuum")
        s = make_initial(rc.initial, Grid1D(1.0, 256))
        assert s.rho.min() == pytest.approx(0.05, abs=1e-3)


# tests folded into rows of tests/cli_cases.py, under their own case ids
test_malformed_descriptor_exits_2_with_one_line = row_test(cases=[
    "misspelt-gaussian-argument", "unknown-sine-argument", "table-prefix", "repeated-argument",
    "zero-gaussian-width"])
test_non_finite_descriptor_number_exits_2_before_any_output = row_test(cases={
    **{case: case for case in (
        "rho-nan", "gaussian-width-inf", "affine-slope-minus-inf", "sine-amp-minus-inf",
        "second-mode-amp-nan", "pressure-coeff-inf", "gamma-inf", "viscosity-inf", "viscosity-nan",
        "friction-inf", "density-floor-inf", "snapshot-every-zero")},
    "sine-amp-inf": "non-finite-amplitude", "t-final-inf": "infinite-t-final",
    "viscosity-beyond-float": "matrix-entry-beyond-float"})
test_default_section_is_an_unknown_section = row_test(cases={
    "with-key": "default-section-with-key", "empty": "unknown-section"})
test_manifest_with_infinite_t_final_exits_2 = row_test("manifest-infinite-t-final")
test_malformed_table_exits_2_with_one_line = row_test(cases={
    "header-only": "header-only-table", "one-data-row": "one-row-table",
    "nan-cell": "nan-table-cell"})
test_table_whose_slopes_overflow_exits_2_with_one_line = row_test("table-rho-slope-overflow")
test_table_velocity_whose_slopes_overflow_exits_2_with_one_line = row_test("table-slope-overflow")
test_horizon_that_takes_no_step_exits_2_before_any_output = row_test(cases={
    "1e-14": "run-horizon-too-short", "1e-13": "run-horizon-1e-13", "0": "run-horizon-zero"})
test_unknown_audit_fails_before_any_load = row_test("unknown-audit")


def test_shortest_accepted_horizon_takes_a_step():
    rc = parse_config(MINIMAL + "\n[scheme]\nt_end = 2e-13\n")
    grid = Grid1D(domain_length=1.0, n_cells=8)
    traj = runner.integrate(make_initial(rc.initial, grid), rc.params,
                            derive_matrices(rc.params), rc.scheme, rc.t_end)
    assert list(traj.times) == [0.0, 2e-13]
