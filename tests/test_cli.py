"""End-to-end CLI behavior: configs, overrides, reports, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliation_lab import cli, flow
from foliation_lab.cli import DEFAULT_CONFIG, SUITES, load_config, main, run_suite
from foliation_lab.flow import FlowModel

FAST_CFG = {"k_values": [2], "grid": {"x_step": 0.01, "t_step": 0.05}, "seed": 7}


def write_cfg(tmp_path, extra=None):
    cfg = json.loads(json.dumps(FAST_CFG))
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["grid.t_step=0.01", "seed=99", "k_values=[1,2]"])
    assert cfg["grid"]["t_step"] == 0.01
    assert cfg["grid"]["x_step"] == DEFAULT_CONFIG["grid"]["x_step"]
    assert cfg["seed"] == 99
    assert cfg["k_values"] == [1, 2]
    with pytest.raises(ValueError):
        load_config(None, ["bogus"])
    for key in ("bogus", "grid.x_stp", "grid.t_radius"):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            load_config(None, [f"{key}=1"])
    path = write_cfg(tmp_path)
    cfg2 = load_config(path, [])
    assert cfg2["seed"] == 7


def test_invalid_config_values(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"x_step": -1}}))
    with pytest.raises(ValueError):
        load_config(str(path), [])


def test_missing_config_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "never.json")
    code = main(["classify", "--config", str(tmp_path / "nope.json"), "--out", out])
    assert code == 2
    assert not os.path.exists(out)
    assert "not found" in capsys.readouterr().err


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    # a directory; a permission-denied file is the same OSError branch
    out = str(tmp_path / "never.json")
    code = main(["classify", "--config", str(tmp_path), "--out", out])
    assert code == 2
    assert not os.path.exists(out)
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["reports", "missing/r.json", "r" * 300 + ".json"])
def test_unwritable_report_path_is_usage_error(tmp_path, capsys, out, monkeypatch):
    # a directory, a path whose parent does not exist, or a file name too
    # long for the file system: refused before any check runs, with no temp
    # file left behind
    (tmp_path / "reports").mkdir()
    monkeypatch.setitem(SUITES, "classify", lambda cfg: pytest.fail("a check ran"))
    code = main(["classify", "--out", str(tmp_path / out)])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp.*"))
    assert not (tmp_path / "missing").exists()


def test_failed_atomic_write_removes_its_temp_file(tmp_path):
    (tmp_path / "reports").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._write_atomic(str(tmp_path / "reports"), "{}")
    assert not list(tmp_path.glob("*.tmp.*"))


@pytest.mark.parametrize(
    "override",
    [
        "k_values=[2.5]",
        "trials=abc",
        "k_values=[]",
        # over the run-size budget, checked before any grid is allocated:
        # over only through the k = 1 widening of the x-window (k_values is
        # [1, 2, 3]), only through adjoint_involution's fixed x-grid, and far
        # over (an x-grid count that overflows to inf)
        "grid.x_step=4e-5",
        "grid.t_step=5e-4",
        "grid.x_step=5e-324",
        # too coarse to build a suite grid: one t point, one x point, and
        # fewer x points than taylor_map's 11-point stencil at order 3
        "grid.t_step=1",
        "grid.x_step=2",
        "grid.x_step=0.5",
        # the knobs that are module constants now, even at their old
        # defaults (grid.t_radius=3 made three groupoid checks raise)
        "trials=1001",
        "trials=10",
        "max_jet_order=4",
        "grid.x_radius=0.65",
        "grid.t_radius=3",
        'tolerances={"quadrature": 1e-6}',
        'tolerances={"winding_residual": 0.05}',
    ],
)
def test_non_integer_config_is_bad_config(tmp_path, capsys, override):
    # a fractional k would hang verify-flow inside the ODE solver
    out = str(tmp_path / "never.json")
    code = main(["verify-flow", "--override", override, "--out", out])
    assert code == 2
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert "error: bad config" in err
    assert override.split("=")[0] in err


@pytest.mark.parametrize(
    "override",
    [
        "grid.x_step=abc",
        "max_jet_order=abc",
        "max_jet_order=-1",
        "seed=abc",
        "grid=3",
        # unknown keys, at any depth, used to be ignored
        "bogus=1",
        "grid.x_stp=0.001",
        "tolerances.foo=1",
        # a key below a non-object, like these, used to end in a TypeError
        "seed.x=1",
        "grid.t_step.x=1",
        "k_values.x=1",
    ],
)
def test_mistyped_config_is_bad_config(tmp_path, capsys, override):
    # each of these used to escape validation and exit 0 or 1
    out = str(tmp_path / "never.json")
    code = main(["classify", "--override", override, "--out", out])
    assert code == 2
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert "error: bad config" in err
    assert override.split(".")[0].split("=")[0] in err


def _mostly(valid, other):
    """valid three draws in four, so that whole configs often load; other
    holds zero, negatives, denormals, inf, NaN, bools, strings and empty or
    non-integer lists."""
    return st.integers(0, 3).flatmap(lambda n: valid if n else other)


_NOT_NUMBERS = st.sampled_from([True, False, None, "0.02", [0.02], {"x": 1}])
_STEPS = _mostly(st.floats(5e-4, 0.2), st.one_of(st.floats(), st.integers(-2, 3), _NOT_NUMBERS))
_K_VALUES = _mostly(
    st.lists(st.integers(1, 20), min_size=1, max_size=4),
    st.one_of(
        st.lists(st.one_of(st.integers(-1, 3), st.floats(), st.booleans()), max_size=3),
        st.integers(1, 3),
        _NOT_NUMBERS,
    ),
)
_SEEDS = _mostly(st.integers(0, 2**40), st.one_of(st.integers(-3, -1), st.floats(), _NOT_NUMBERS))


@settings(max_examples=300, deadline=None)
# at the budget's edge, a 1,797 x 1,113 = 2,000,061-sample kernel that a
# count of 2 r / h + 1 points per window let through
@example(x_step=0.65 / 898, t_step=0.0009, k_values=[2], seed=0)
@given(x_step=_STEPS, t_step=_STEPS, k_values=_K_VALUES, seed=_SEEDS)
def test_config_is_rejected_or_builds_every_grid(x_step, t_step, k_values, seed):
    # a config that loads builds every suite grid, with taylor_map's 11-point
    # x-stencil, two t points and no kernel over the budget; anything else is
    # a ValueError, which the command line turns into exit 2.  No suite runs
    # and no grid is sampled, so no draw allocates anything
    values = {"grid.x_step": x_step, "grid.t_step": t_step, "k_values": k_values, "seed": seed}
    try:
        cfg = load_config(None, [f"{key}={json.dumps(value)}" for key, value in values.items()])
    except ValueError:
        return
    for k in cfg["k_values"]:
        xg, tg = cli._grids(cfg, k)
        assert xg.count >= 11 and tg.count >= 2
        assert max(xg.count, cli.INVOLUTION_X_GRID.count) * tg.count <= cli.MAX_KERNEL_SAMPLES


def test_coarsest_buildable_grid_runs_and_fails(tmp_path):
    # 11 x points at k = 2 hold taylor_map's stencil but resolve no kernel:
    # under-resolution is a measured result, not a bad config
    out = str(tmp_path / "groupoid.json")
    argv = ["verify-groupoid", "--override", "grid.x_step=0.13", "--override", "k_values=[2]", "--out", out]
    assert main(argv) == 1
    assert any(r["status"] == "fail" for r in json.loads(open(out).read())["checks"])


def test_non_object_config_file_is_bad_config(tmp_path, capsys):
    # used to end in an AttributeError traceback
    path = tmp_path / "list.json"
    path.write_text('["a"]')
    out = str(tmp_path / "never.json")
    assert main(["classify", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert "config must be an object" in capsys.readouterr().err


def test_classify_cli_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "classify.json")
    code = main(["classify", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["suite"] == "classify"
    assert report["all_passed"] is True
    for rec in report["checks"]:
        assert set(rec) >= {"name", "anchor", "status", "measured", "tolerance"}
    data = [r for r in report["checks"] if "data" in r][0]["data"]
    assert {"k": 2, "variant": "monomial", "epsilon": [-1, 1], "parity_invariant": 0} in data


def test_index_suite_record():
    cfg = load_config(None, [])
    report = run_suite("index", cfg)
    assert report["all_passed"]
    gen = [r for r in report["checks"] if r["name"] == "generator_winding_and_boundary_index"][0]
    assert gen["data"]["winding"] == 1
    assert gen["data"]["boundary_index"] == -1
    assert {"symbol_id", "winding", "boundary_index", "fredholm_min_modulus", "residual"} <= set(
        gen["data"]
    )


def test_verify_jets_order_table():
    cfg = load_config(None, ["k_values=[2]"])
    report = run_suite("verify-jets", cfg)
    byname = {r["name"]: r for r in report["checks"]}
    for q in (0, 1):
        rec = byname[f"commutator_norm_k2_order{q}"]
        assert rec["status"] == "pass" and rec["measured"] <= 1e-10
    for q in (2, 3):
        rec = byname[f"commutator_norm_k2_order{q}"]
        assert rec["status"] == "pass" and rec["measured"] >= 1e-3


def test_reports_deterministic(tmp_path):
    cfg = load_config(None, ["k_values=[2]"])
    r1 = run_suite("verify-coeff", cfg)
    r2 = run_suite("verify-coeff", cfg)
    assert r1["checks"] == r2["checks"]


def test_demo_suite_writes_only_its_report(tmp_path, monkeypatch):
    # the norm table is the steep-warp record's data, not a second file
    from foliation_lab import wiener_hopf

    monkeypatch.chdir(tmp_path)
    assert main(["demo-nonpreservation", "--out", "demo.json"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["demo.json"]
    first = json.loads((tmp_path / "demo.json").read_text())["checks"][0]
    assert first["name"] == "steep_warp_breaks_the_algebra"
    rows = first["data"]
    assert len(rows) == 21
    assert all(list(row) == ["n", "norm", "first_term_norm", "pullback_l2", "pullback_sup"] for row in rows)
    gaussian = wiener_hopf.GaussianSpec
    want = wiener_hopf.nonpreservation_demo(
        wiener_hopf.Diffeomorphism.exp_stretch(), gaussian(), gaussian(), n_max=20
    )
    assert rows == want


def test_wrapped_checks_give_the_same_demo_report(monkeypatch):
    # a wrapper of each check, as the benchmark tracer installs, hides every
    # attribute of the check; the record and its data must not depend on one
    cfg = load_config(None, [])
    plain = run_suite("demo-nonpreservation", cfg)
    build = SUITES["demo-nonpreservation"]

    def wrap(check):
        def traced():
            return check()

        return traced

    monkeypatch.setitem(SUITES, "demo-nonpreservation", lambda cfg: [wrap(c) for c in build(cfg)])
    wrapped = run_suite("demo-nonpreservation", cfg)
    assert len(wrapped["checks"][0]["data"]) == 21
    assert wrapped["checks"] == plain["checks"]


def test_failing_check_still_writes_report(tmp_path, monkeypatch):
    # sabotage one suite entry to verify the exit path
    from foliation_lab import cli as cli_mod

    def broken_suite(cfg):
        return [
            lambda: cli_mod._record("always_fails", "plumbing", 1.0, 0.5),
            lambda: cli_mod._record("always_passes", "plumbing", 0.0, 0.5),
        ]

    monkeypatch.setitem(SUITES, "broken", broken_suite)
    out = str(tmp_path / "broken.json")
    code = main(["broken", "--out", out])
    assert code == 1
    report = json.loads(open(out).read())
    assert report["all_passed"] is False
    statuses = {r["name"]: r["status"] for r in report["checks"]}
    assert statuses == {"always_fails": "fail", "always_passes": "pass"}


def test_raising_check_becomes_error_record(tmp_path, capsys, monkeypatch):
    # an x-window barely wider than the kernels' x-support makes three
    # groupoid checks raise in a kernel constructor; the other five still
    # run and the report is written
    monkeypatch.setattr(cli, "X_RADIUS", 0.31)
    out = str(tmp_path / "groupoid.json")
    code = main(["verify-groupoid", "--override", "k_values=[2]", "--out", out])
    assert code == 3
    report = json.loads(open(out).read())
    assert len(report["checks"]) == 8
    errors = {r["name"]: r for r in report["checks"] if r["status"] == "error"}
    assert set(errors) == {"adjoint_antimultiplicative", "product_kernel_norm", "submultiplicativity"}
    for rec in errors.values():
        assert rec["anchor"] and rec["measured"] is None and rec["tolerance"] is None
        assert rec["error"].startswith("ValueError: ")
    assert all(r["status"] == "pass" for r in report["checks"] if r["name"] not in errors)
    assert report["all_passed"] is False
    assert "[error] submultiplicativity: ValueError: " in capsys.readouterr().out
    assert all("kernel does not vanish on the grid boundary" in rec["error"] for rec in errors.values())


def test_failed_check_outranks_error(tmp_path, monkeypatch):
    from foliation_lab import cli as cli_mod

    def raises():
        raise RuntimeError("boom")

    def mixed_suite(cfg):
        return [raises, lambda: cli_mod._record("always_fails", "plumbing", 1.0, 0.5)]

    monkeypatch.setitem(SUITES, "mixed", mixed_suite)
    out = str(tmp_path / "mixed.json")
    assert main(["mixed", "--out", out]) == 1
    first = json.loads(open(out).read())["checks"][0]
    assert first["status"] == "error" and first["error"] == "RuntimeError: boom"
    assert first["name"] == "raises"


def test_check_and_flag_record_shapes(tmp_path, monkeypatch):
    from foliation_lab import cli as cli_mod

    @cli_mod._check("largest", "plumbing", 1.0)
    def largest():
        yield from (0.5, 2.0, 1.0)

    @cli_mod._check("none", "plumbing", 1.0)
    def none():
        yield from ()

    @cli_mod._check("negative", "plumbing", 1.0)
    def negative():
        yield from (-3.0, -0.5)

    @cli_mod._check("not_a_number", "plumbing", 1.0)
    def not_a_number():
        yield from (0.5, math.nan, 0.25)

    @cli_mod._check("never_reported", "plumbing", 1.0)
    def breaks_midway():
        yield 0.5
        raise RuntimeError("midway")

    def no():
        return cli_mod._flag("no", "plumbing", False)

    def shapes_suite(cfg):
        return [largest, none, negative, not_a_number, breaks_midway, no]

    monkeypatch.setitem(SUITES, "shapes", shapes_suite)
    out = str(tmp_path / "shapes.json")
    assert main(["shapes", "--out", out]) == 1
    records = {r["name"]: r for r in json.loads(open(out).read())["checks"]}
    assert list(records) == ["largest", "none", "negative", "not_a_number", "breaks_midway", "no"]
    assert (records["largest"]["measured"], records["largest"]["status"]) == (2.0, "fail")
    assert (records["none"]["measured"], records["none"]["status"]) == (0.0, "pass")
    assert (records["negative"]["measured"], records["negative"]["status"]) == (0.0, "pass")
    assert math.isnan(records["not_a_number"]["measured"])
    assert records["not_a_number"]["status"] == "fail"
    broken = records["breaks_midway"]
    assert broken["status"] == "error" and broken["error"] == "RuntimeError: midway"
    no = records["no"]
    assert (no["measured"], no["tolerance"], no["status"]) == (1.0, 0.5, "fail")


@pytest.mark.parametrize("k", [12, 16])
def test_contact_order_fails_when_the_variants_agree(k):
    # from k = 12 the flows agree to the last bit at x = 0.05 (from k = 16
    # at x = 0.1 as well), so the Richardson ratio has nothing to measure
    cfg = load_config(None, [f"k_values=[{k}]"])
    (check,) = [c for c in SUITES["verify-flow"](cfg) if c.__name__ == "variant_agreement"]
    record = check()
    assert record["name"] == "monomial_vs_rescaled_contact_order"
    assert math.isnan(record["measured"]) and record["status"] == "fail"


def _composable_loop(model, rng, count, draw_x, rejected):
    """The one-arrow-at-a-time loop: each candidate is tested in full, y
    included, before the next is drawn; rejected counts each test's refusals."""
    done = 0
    while done < count:
        x = draw_x(rng)
        t = float(rng.uniform(-0.5, 0.5))
        s = float(rng.uniform(-0.5, 0.5))
        if not (model.in_domain(s, x) and model.in_domain(t + s, x)):
            rejected[0] += 1
            continue
        y = flow.flow_eval(model, s, x)
        if model.in_domain(t, y):
            done += 1
            yield x, t, s, y
        else:
            rejected[1] += 1


def _wide(rng):
    return float(rng.uniform(-3.0, 3.0))


class _Fenced(FlowModel):
    """A flow whose domain is also cut at |x| <= 0.3: phi_s(x) can leave it
    after x has passed, so the test on y refuses candidates too (on a flow's
    own domain it refuses none, as orbits are intervals in time)."""

    def in_domain(self, t, x):
        return super().in_domain(t, x) & (np.abs(x) <= 0.3)


@pytest.mark.parametrize(
    "model,draw_x,refusing",
    [
        (FlowModel(2), cli._near_zero, None),
        (FlowModel(2), cli._off_zero, None),
        (FlowModel(2), _wide, 0),
        (FlowModel(3), _wide, 0),
        (_Fenced(2), cli._near_zero, 1),
        (_Fenced(1, flow.COMPLETE_RESCALED), cli._off_zero, 1),
        (FlowModel(1, flow.COMPLETE_RESCALED), cli._near_zero, None),
        (FlowModel(2, flow.COMPLETE_RESCALED), cli._off_zero, None),
        (FlowModel(5, flow.COMPLETE_RESCALED), _wide, None),
    ],
)
def test_composable_batches_copy_the_one_at_a_time_loop(model, draw_x, refusing):
    # the same samples, bit for bit, and the same generator state after;
    # refusing names the test (0: on x, 1: on y) that must refuse candidates
    rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    rejected = [0, 0]
    want = np.array(list(_composable_loop(model, loop_rng, 40, draw_x, rejected))).T
    got = cli._composable(model, rng, 40, draw_x)
    assert got.shape == (4, 40)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    if refusing is not None:
        assert rejected[refusing] > 0


def test_raising_steep_warp_is_named_and_writes_no_csv(tmp_path, monkeypatch):
    from foliation_lab import wiener_hopf

    def raises(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(wiener_hopf, "nonpreservation_demo", raises)
    out = tmp_path / "demo.json"
    assert main(["demo-nonpreservation", "--out", str(out)]) == 3
    first = json.loads(out.read_text())["checks"][0]
    assert first["status"] == "error" and first["name"] == "steep_warp"
    assert first["error"] == "RuntimeError: boom"
    assert [p.name for p in tmp_path.iterdir()] == ["demo.json"]


def test_every_record_carries_anchor(tmp_path):
    cfg = load_config(
        None, ["k_values=[2]", "grid.x_step=0.01", "grid.t_step=0.05"]
    )
    for suite in ("verify-coeff", "verify-jets", "classify", "index"):
        report = run_suite(suite, cfg)
        for rec in report["checks"]:
            assert isinstance(rec["anchor"], str) and rec["anchor"]


def test_cli_import_loads_no_scipy_signal():
    # a fresh interpreter, because the FFT oracle test loads scipy.signal into this one
    code = (
        "import sys, foliation_lab.cli; "
        "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, because the oracle tests load scipy and
    # numpy.polynomial into this one; verify-flow and verify-groupoid run the
    # rescaled flow, the Taylor tables and the spline
    code = (
        "import sys, foliation_lab.cli as cli; "
        "cfg = cli.load_config(None, ['k_values=[2]']); "
        "[cli.run_suite(name, cfg) for name in ('verify-flow', 'verify-groupoid')]; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"


def _taylor_check(cfg):
    (check,) = [c for c in SUITES["verify-groupoid"](cfg) if c.__name__ == "taylor_homomorphism"]
    return check


def test_taylor_check_fails_without_the_bump_x2_term(monkeypatch):
    # the kernels sample the bump itself, the exact jets use its series; an
    # exact side that lost the x^2 term must disagree, which it would not if
    # both sides came from the sampled kernels
    series = cli._bump_series

    def without_x2(radius, order):
        b = series(radius, order)
        b[2] = 0.0
        return b

    monkeypatch.setattr(cli, "_bump_series", without_x2)
    record = _taylor_check(load_config(None, []))()
    assert record["measured"] > 1e-4 and record["status"] == "fail"


@pytest.mark.parametrize("override", ["grid.t_step=0.05"])
def test_taylor_family_fits_the_t_window(override):
    # the narrowest atoms widen at a coarse t-step, so the kernels and their
    # exact jets still vanish at the window edge and the check passes
    cfg = load_config(None, [override, "k_values=[2]"])
    xg, tg = cli._grids(cfg, 2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        f, jet = cli._jet_kernel(FlowModel(2), xg, tg, 3, rng)
        ends = tg.points[[0, -1]]
        edge = max(np.max(np.abs(c(ends))) for c in jet.coeffs)
        assert max(edge, np.max(np.abs(f.samples[:, [0, -1]]))) <= 1e-11 * f.sup_norm()
    assert _taylor_check(cfg)()["status"] == "pass"


def test_taylor_check_on_a_coarse_t_step():
    # the trapezoid rule's aliasing on the narrowest atom products (s-variance
    # v) is about 2 exp(-2 pi^2 v / t_step^2): 7.4e-4 at t_step 0.05 for the
    # default family's v = 0.001, so there the narrowest atoms widen to
    # v = 0.001 (0.05 / 0.04)^2, where it is 8.8e-6 again
    for step in (0.04, 0.05):
        assert _taylor_check(load_config(None, [f"grid.t_step={step}"]))()["status"] == "pass"
