import argparse
import csv
import hashlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.cli as cli
import bergman.domains as domains
from bergman.cli import _fmt, _load_points, main
from bergman.catalog import (ball_disk_lift_spec, ball_exp_lift_spec, chain_stage_spec,
                             closed_form_families, disk_spec, interior_pairs)
from bergman.domains import SpecError, contains, sample_interior, spec_to_dict
from bergman.kernels import Kernel, closed_form_for, egg_spec, kernel_ball
from bergman.lifting import compose_pipeline
from bergman.oracle import series_kernel


@pytest.fixture
def disk_files(tmp_path):
    spec = tmp_path / "disk.json"
    spec.write_text(json.dumps(spec_to_dict(disk_spec())))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[0.0, 0.0]]]))
    return spec, pts


@pytest.fixture
def lifted_ball_file(tmp_path):
    spec = tmp_path / "ball_disk_lift.json"
    spec.write_text(json.dumps(spec_to_dict(ball_disk_lift_spec(1, 1))))
    return spec


def test_eval_disk_origin_all_modes(disk_files, tmp_path, capsys):
    spec, pts = disk_files
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(spec), "--points", str(pts),
               "--mode", "all", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    for mode in ("closed", "lifted", "series"):
        assert float(cols[f"{mode}_re"]) == pytest.approx(1 / math.pi, rel=1e-6)
    assert cols["error"] == ""


def test_eval_closed_vs_lifted_panel(lifted_ball_file, tmp_path):
    pts = [[[0.2, 0.05], [0.1, -0.1], [0.3, 0.1]],
           [[0.1, 0.0], [0.25, 0.1], [0.2, -0.2]],
           [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
    ptsf = tmp_path / "p.json"
    ptsf.write_text(json.dumps(pts))
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(lifted_ball_file), "--points", str(ptsf),
               "--mode", "all", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    di = header.index("delta_closed_lifted")
    for line in lines[1:]:
        assert float(line.split(",")[di]) < 1e-10


def test_eval_accepts_point_pairs(disk_files, tmp_path):
    spec, _ = disk_files
    pts = tmp_path / "pairs.json"
    pts.write_text(json.dumps([{"p": [[0.3, 0.0]], "q": [[0.2, 0.1]]}]))
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(spec), "--points", str(pts),
               "--mode", "closed", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    want = 1 / (math.pi * (1 - 0.3 * complex(0.2, 0.1).conjugate()) ** 2)
    assert complex(float(cols["closed_re"]), float(cols["closed_im"])) \
        == pytest.approx(want, rel=1e-12)


def test_eval_exterior_point_exits_2(disk_files, tmp_path):
    spec, _ = disk_files
    pts = tmp_path / "ext.json"
    pts.write_text(json.dumps([[[2.0, 0.0]]]))
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(spec), "--points", str(pts),
               "--mode", "closed", "--out", str(out)])
    assert rc == 2
    assert "exterior" in out.read_text()


def test_eval_deterministic_bytes(lifted_ball_file, tmp_path):
    ptsf = tmp_path / "p.json"
    ptsf.write_text(json.dumps([[[0.2, 0.1], [0.1, 0.0], [0.2, -0.1]]]))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["eval", "--spec", str(lifted_ball_file), "--points", str(ptsf),
                   "--mode", "all", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _wire(p):
    return [[float(c.real), float(c.imag)] for c in p]


def _eval_rows(tmp_path, spec, entries, mode, *extra):
    """Run ``eval`` on a spec and a list of points-file entries; returns
    the exit code and the CSV rows as dicts."""
    specf, ptsf = tmp_path / "spec.json", tmp_path / "pts.json"
    specf.write_text(json.dumps(spec_to_dict(spec)))
    ptsf.write_text(json.dumps(entries))
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(specf), "--points", str(ptsf), "--mode", mode,
               "--out", str(out), *extra])
    return rc, list(csv.DictReader(io.StringIO(out.read_text())))


def _value(row, mode):
    return complex(float(row[f"{mode}_re"]), float(row[f"{mode}_im"]))


_PANEL_SPECS = dict({f"stage{k}": chain_stage_spec(k) for k in range(2, 7)},
                    **{name: spec for name, (spec, _) in closed_form_families().items()})


@pytest.mark.parametrize("name", sorted(_PANEL_SPECS))
def test_eval_panel_matches_one_point_kernel(tmp_path, name):
    # one kernel call over the panel; each value within round-off of the
    # kernel evaluated at its pair alone
    spec = _PANEL_SPECS[name]
    pairs = [(tuple(complex(c) for c in p), tuple(complex(c) for c in q))
             for p, q in interior_pairs(spec, 200, seed=41)]
    entries = [{"p": _wire(p), "q": _wire(q)} for p, q in pairs]
    kernels = {"lifted": compose_pipeline(spec), "closed": closed_form_for(spec)}
    for mode, K in kernels.items():
        if K is None:
            continue
        rc, rows = _eval_rows(tmp_path, spec, entries, mode)
        assert rc == 0 and len(rows) == len(pairs)
        for row, (p, q) in zip(rows, pairs):
            want = complex(K(p, q))
            assert abs(_value(row, mode) - want) <= 4e-15 * abs(want), (name, mode, row)


@pytest.mark.parametrize("spec", [chain_stage_spec(6), ball_disk_lift_spec(1, 2),
                                  ball_exp_lift_spec(1, 2, (2.0,))],
                         ids=["stage6", "ball_disk_lift_12", "ball_exp_lift_12_g2"])
def test_eval_exterior_flags_equal_contains(tmp_path, spec):
    # 10^4 rows: a box around the domain (exterior rows, U-step rows with
    # ||w|| >= 1, V-step rows whose e^{|w|^2} overflows) and pairs of rows
    # on either side of the boundary, a scale bisected to adjacent floats
    rng = np.random.default_rng(23)
    box = rng.uniform(-1.1, 1.1, size=(6000, spec.dim, 2)) @ np.array([1.0, 1j])
    box[:300, spec.v_w_indices()] *= 30.0
    ray = rng.uniform(-1.0, 1.0, size=(2000, spec.dim, 2)) @ np.array([1.0, 1j])
    lo, hi = np.zeros(len(ray)), np.full(len(ray), 2.0)
    with np.errstate(all="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            inside = contains(spec, (ray * mid[:, None]).T)
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    pts = np.concatenate([box, ray * lo[:, None], ray * hi[:, None]])
    rc, rows = _eval_rows(tmp_path, spec, [_wire(p) for p in pts], "lifted")
    assert rc == 2 and len(rows) == 10 ** 4
    with np.errstate(all="ignore"):
        want = [not contains(spec, tuple(p)) for p in pts]
    assert [row["error"] == "exterior" for row in rows] == want
    assert 0 < sum(want) < len(want)


def test_eval_mixed_file_keeps_interior_values(tmp_path):
    spec = ball_disk_lift_spec(1, 1)
    pairs = interior_pairs(spec, 30, seed=5)
    inner = [{"p": _wire(p), "q": _wire(q)} for p, q in pairs]
    rc, alone = _eval_rows(tmp_path, spec, inner, "closed")
    assert rc == 0
    # exterior rows: outside, not a number, and |c| beyond the float range
    # (Python's abs raises OverflowError there)
    outer = [[[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[1.5e308, 1.5e308], [0.0, 0.0], [0.0, 0.0]]]
    mixed = []
    for i, entry in enumerate(inner):
        mixed.append(entry)
        if i % 10 == 0:
            mixed.append({"p": entry["p"], "q": outer[i // 10]})
    rc, rows = _eval_rows(tmp_path, spec, mixed, "closed")
    assert rc == 2
    kept = [r for r in rows if not r["error"]]
    assert [r["error"] for r in rows if r["error"]] == ["exterior"] * 3
    assert all(r["closed_re"] == r["closed_im"] == "" for r in rows if r["error"])
    assert len(kept) == len(alone)
    for a, b in zip(kept, alone):
        want = _value(b, "closed")
        assert abs(_value(a, "closed") - want) <= 4e-15 * abs(want)


def test_eval_non_finite_row_flagged_alone(disk_files, tmp_path, monkeypatch, capsys):
    # a kernel that divides by zero on the row with p = 0.25: that row is
    # marked, the other rows keep their values, and numpy does not warn
    disk = kernel_ball(1)
    pole = 0.25 * (0.2 + 0.1j)  # u = p q-bar on that row, exact

    def fn(u):
        return np.where(u[0] == pole, np.divide(1.0, u[0] - pole), disk.fn(u))

    monkeypatch.setattr(cli, "closed_form_for",
                        lambda spec: Kernel(fn, domain=spec, name="poles"))
    ps = [0.1, 0.3j, 0.25, -0.2, 0.05 + 0.1j]
    entries = [{"p": _wire((p,)), "q": _wire((0.2 - 0.1j,))} for p in ps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, rows = _eval_rows(tmp_path, disk_spec(), entries, "closed")
    assert rc == 2
    assert capsys.readouterr().err == ""
    for row, p in zip(rows, ps):
        if p == 0.25:
            assert row["closed_re"] == row["closed_im"] == ""
            assert row["error"] == "NonFiniteError"
        else:
            want = complex(disk((p,), (0.2 - 0.1j,)))
            assert row["error"] == ""
            assert abs(_value(row, "closed") - want) <= 4e-15 * abs(want)


def test_eval_non_finite_row_costs_no_second_call(tmp_path, monkeypatch):
    # five rows in blocks of 3, one of them a pole: one kernel call per
    # block, the pole's block keeping its finite rows from that call
    disk = kernel_ball(1)
    pole = 0.25 * (0.2 + 0.1j)
    calls = []

    def fn(u):
        calls.append(len(u[0]))
        return np.where(u[0] == pole, np.divide(1.0, u[0] - pole), disk.fn(u))

    monkeypatch.setattr(cli, "closed_form_for",
                        lambda spec: Kernel(fn, domain=spec, name="poles"))
    monkeypatch.setattr(cli, "EVAL_BLOCK", 3)
    ps = [0.1, 0.25, -0.2, 0.3j, 0.05 + 0.1j]
    entries = [{"p": _wire((p,)), "q": _wire((0.2 - 0.1j,))} for p in ps]
    rc, rows = _eval_rows(tmp_path, disk_spec(), entries, "closed")
    assert rc == 2 and calls == [3, 2]
    assert [r["error"] for r in rows] == ["", "NonFiniteError", "", "", ""]
    for row, p in zip(rows, ps):
        if p != 0.25:
            want = complex(disk((p,), (0.2 - 0.1j,)))
            assert abs(_value(row, "closed") - want) <= 4e-15 * abs(want)


def test_eval_row_blocks_match_one_call(tmp_path, monkeypatch):
    # blocks of 3 interior rows: the exterior row (3) and the non-finite
    # row (7) fall in different blocks, and the CSV is byte for byte the
    # one-call run's
    spec = chain_stage_spec(4)
    lifted = compose_pipeline(spec)
    pairs = interior_pairs(spec, 10, seed=17)
    p7, q7 = pairs[7][0][0], pairs[7][1][0]

    def fn(u):
        # the row whose u_0 is pair 7's p_0 q-bar_0: a mask, since a panel's
        # product need not round as the scalar one does
        hit = np.abs(u[0] - p7 * q7.conjugate()) <= 1e-12 * abs(p7 * q7)
        return np.where(hit, np.divide(1.0, np.where(hit, 0.0, 1.0)), lifted.fn(u))

    monkeypatch.setattr(cli, "compose_pipeline",
                        lambda s: Kernel(fn, s, "poles"))
    entries = [{"p": _wire(p), "q": _wire(q)} for p, q in pairs]
    entries[3]["q"] = [[2.0, 0.0]] + entries[3]["q"][1:]
    runs = []
    for block in (cli.EVAL_BLOCK, 3):
        monkeypatch.setattr(cli, "EVAL_BLOCK", block)
        rc, rows = _eval_rows(tmp_path, spec, entries, "lifted")
        runs.append((rc, (tmp_path / "eval.csv").read_bytes()))
    assert [r["error"] for r in rows] == [""] * 3 + ["exterior"] + [""] * 3 \
        + ["NonFiniteError"] + [""] * 2
    assert runs[0] == runs[1]
    assert runs[0][0] == 2


def test_eval_seed_flag_removed(lifted_ball_file, tmp_path, capsys):
    # eval uses no randomness; --seed was parsed and never read
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps([[[0.1, 0.0], [0.2, 0.0], [0.1, 0.0]]]))
    argv = ["eval", "--spec", str(lifted_ball_file), "--points", str(pts)]
    assert _exit_code(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert _exit_code(argv + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--suite", "levi"], ["--tol", "1"]),
    (["sample", "--count", "3"], ["--w-radius", "3"]),
    (["boundary", "--target", "[[0,0],[1,0],[0,0]]", "--stratum", "S2", "--weight", "r"],
     ["--levels", "12"]),
], ids=["tol", "w-radius", "levels"])
def test_removed_flag_exits_2(lifted_ball_file, capsys, argv, flag):
    # settings with one value in use are constants: the suite gates and
    # PROBE_LEVELS; the exact sampler draws a V-step w untruncated
    if argv[0] != "verify":
        argv = argv + ["--spec", str(lifted_ball_file)]
    assert _exit_code(argv) == 0
    assert _exit_code(argv + flag) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_eval_all_mode_series_columns_unchanged(lifted_ball_file, tmp_path):
    # the series route stays one pair at a time: its columns are the
    # formatted values of series_kernel itself
    spec = ball_disk_lift_spec(1, 1)
    pairs = interior_pairs(spec, 8, seed=13)
    entries = [{"p": _wire(p), "q": _wire(q)} for p, q in pairs]
    rc, rows = _eval_rows(tmp_path, spec, entries, "all", "--cap", "20")
    assert rc == 0
    for row, (p, q) in zip(rows, pairs):
        sv = series_kernel(spec, tuple(complex(c) for c in p),
                           tuple(complex(c) for c in q), 20)
        v = complex(sv.value)
        assert (row["series_re"], row["series_im"], row["series_tail"]) == \
            (_fmt(v.real), _fmt(v.imag), _fmt(sv.tail_bound))


@pytest.mark.parametrize("stage, cap, digest", [
    (4, 30, "f98948c7d06553bb"), (5, 24, "c2a61fde8a5e7f50"), (6, 18, "d320eaf42453f4d9")])
def test_eval_series_output_pinned(tmp_path, capsys, stage, cap, digest):
    # default output stays byte-identical for a fixed seed, stages 4-6 at the
    # largest caps their norm tables allow
    spec = chain_stage_spec(stage)
    specf, ptsf = tmp_path / "spec.json", tmp_path / "pts.json"
    specf.write_text(json.dumps(spec_to_dict(spec)))
    ptsf.write_text(json.dumps([{"p": _wire(p), "q": _wire(q)}
                                for p, q in interior_pairs(spec, 20, seed=31)]))
    assert main(["eval", "--spec", str(specf), "--points", str(ptsf),
                 "--mode", "series", "--cap", str(cap)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _w_block_all_modes(tmp_path, w_dim, cap):
    # exact-sampler points scaled by 0.6-0.9: the box path cannot fill a
    # panel of a large w block
    spec = egg_spec(1, 2.0, w_dim)
    pts = sample_interior(spec, 20, seed=23).points
    pts = pts * np.random.default_rng(23).uniform(0.6, 0.9, (20, 1))
    entries = [{"p": _wire(p), "q": _wire(q)} for p, q in zip(pts[:10], pts[10:])]
    rc, rows = _eval_rows(tmp_path, spec, entries, "all", "--cap", str(cap))
    assert rc == 0 and len(rows) == 10
    for row in rows:
        assert row["error"] == ""
        assert float(row["delta_closed_series"]) <= 1e-3
    return rows


def test_eval_w_block_of_four_all_modes(tmp_path):
    for row in _w_block_all_modes(tmp_path, 4, 22):
        assert float(row["delta_closed_lifted"]) <= 1e-13


def test_eval_all_modes_on_a_w_block_of_six(tmp_path):
    # 10,295,472 norms in 7 coordinates at cap 30; 496 in the two series
    # variables z and <w, eta-bar>
    _w_block_all_modes(tmp_path, 6, 30)


def test_eval_all_modes_on_the_p4_egg(tmp_path):
    # the egg's base factors u^c with -1 < c < 0 once stopped the series
    # route with "tanh-sinh rule did not converge"
    spec = egg_spec(1, 4.0)
    pairs = interior_pairs(spec, 4, seed=29)
    entries = [{"p": _wire(p), "q": _wire(q)} for p, q in pairs]
    rc, rows = _eval_rows(tmp_path, spec, entries, "all", "--cap", "40")
    assert rc == 0 and len(rows) == 4
    for row in rows:
        assert row["error"] == ""
        assert float(row["delta_closed_series"]) <= 1e-3


def test_eval_closed_mode_without_closed_form_exits_2(tmp_path, capsys):
    specf, ptsf = tmp_path / "stage4.json", tmp_path / "pts.json"
    specf.write_text(json.dumps(spec_to_dict(chain_stage_spec(4))))
    ptsf.write_text(json.dumps([[[0.1, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    out = tmp_path / "eval.csv"
    rc = main(["eval", "--spec", str(specf), "--points", str(ptsf),
               "--mode", "closed", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: no hand-coded closed form matches this spec\n"
    assert not out.exists()


def test_eval_series_convergence_error_flags_its_row_only(tmp_path):
    # the shells at |z| = 0.995 decay too slowly for cap 40; the row at 0.3
    # keeps its value, 1 / (pi (1 - 0.09)^2) on the disk
    entries = [[[0.3, 0.0]], [[0.995, 0.0]]]
    rc, rows = _eval_rows(tmp_path, disk_spec(), entries, "series", "--cap", "40")
    assert rc == 2
    assert [row["error"] for row in rows] == ["", "ConvergenceError"]
    assert (rows[1]["series_re"], rows[1]["series_im"], rows[1]["series_tail"]) == ("", "", "")
    assert _value(rows[0], "series") == pytest.approx(1 / (math.pi * 0.91 ** 2), rel=1e-9)


def test_verify_dirichlet_passes(capsys):
    rc = main(["verify", "--suite", "dirichlet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "30/30 passed" in out
    assert "FAIL" not in out


def test_verify_levi_passes(capsys):
    rc = main(["verify", "--suite", "levi"])
    assert rc == 0
    assert "3/3 passed" in capsys.readouterr().out


@pytest.mark.parametrize("suite, n_cases", [("series", 8), ("reproducing", 24)])
def test_verify_oracle_suites_pass(suite, n_cases, tmp_path, capsys):
    out = tmp_path / f"{suite}.csv"
    rc = main(["verify", "--suite", suite, "--out", str(out)])
    assert rc == 0
    assert f"{suite}: {n_cases}/{n_cases} passed" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,case,measured,tolerance,status"
    assert len(lines) == 1 + n_cases
    assert all(line.startswith(f"{suite},") and line.endswith(",PASS") for line in lines[1:])


def test_verify_symmetry_passes(capsys, tmp_path):
    out = tmp_path / "sym.csv"
    rc = main(["verify", "--suite", "symmetry", "--out", str(out)])
    assert rc == 0
    assert "FAIL" not in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,case,measured,tolerance,status"
    assert all(line.endswith("PASS") for line in lines[1:])


def test_verify_worker_count_does_not_change_output(tmp_path):
    # --workers accepts only 1, kept for perfbench's argv: it must not change a byte
    outs = []
    for flag, name in ((["--workers", "1"], "w1.csv"), ([], "default.csv")):
        out = tmp_path / name
        rc = main(["verify", "--suite", "lift-equivalence", *flag, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    cases = [line.split(",")[1] for line in outs[0].decode().splitlines()[1:]]
    assert cases == ["egg", "ball_disk_lift", "ball_exp_lift",
                     "egg_inflated_w3", "ball_exp_lift_2star"]


def test_cli_option_inventory():
    # every option of every subcommand: a new flag needs an edit here
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for act in p._actions for o in act.option_strings}
           for name, p in sub.choices.items()}
    common = {"-h", "--help", "--out"}
    assert got == {
        "eval": common | {"--spec", "--points", "--mode", "--cap"},
        "verify": common | {"--suite", "--seed", "--workers"},
        "boundary": common | {"--spec", "--target", "--stratum", "--weight"},
        "sample": common | {"--spec", "--count", "--seed", "--box-radius"},
    }


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--suite", "nonsense"])
    assert e.value.code == 2


def test_verify_tightened_tolerance_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITE_BUILDERS, "dirichlet", (cli._suite_dirichlet, 1e-30))
    rc = main(["verify", "--suite", "dirichlet"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_boundary_probe_s2(lifted_ball_file, tmp_path, capsys):
    out = tmp_path / "probe.csv"
    rc = main(["boundary", "--spec", str(lifted_ball_file),
               "--target", "[[0,0],[1,0],[0,0]]",
               "--stratum", "S2", "--weight", "r", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "predicted=" in line and "converged=True" in line
    rel = float(line.split("rel=")[1].split()[0])
    assert rel < 0.01
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,kernel,weighted,extrapolated"
    assert len(lines) == 12 + 1     # one row per level of the default grid


def test_boundary_probe_v_fixture(tmp_path, capsys):
    from bergman.catalog import ball_exp_lift_spec
    spec = tmp_path / "exp_lift.json"
    spec.write_text(json.dumps(spec_to_dict(ball_exp_lift_spec(1, 1, (1.0,)))))
    rc = main(["boundary", "--spec", str(spec),
               "--target", "[[0,0],[1,0],[0,0]]",
               "--stratum", "S2", "--weight", "rho"])
    assert rc == 0
    line = capsys.readouterr().out
    pred = float(line.split("predicted=")[1].split()[0])
    assert pred == pytest.approx(2 / math.pi ** 3)
    rel = float(line.split("rel=")[1].split()[0])
    assert rel < 0.01


def test_boundary_weight_mismatch_exits_2(lifted_ball_file, capsys):
    rc = main(["boundary", "--spec", str(lifted_ball_file),
               "--target", "[[0,0],[1,0],[0,0]]",
               "--stratum", "S2", "--weight", "w"])
    assert rc == 2


def test_boundary_missing_weight_usage_error(lifted_ball_file):
    with pytest.raises(SystemExit) as e:
        main(["boundary", "--spec", str(lifted_ball_file),
              "--target", "[[0,0],[1,0],[0,0]]", "--stratum", "S2"])
    assert e.value.code == 2


def test_sample_writes_csv(disk_files, tmp_path):
    spec, _ = disk_files
    out = tmp_path / "pts.csv"
    rc = main(["sample", "--spec", str(spec), "--count", "25", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# acceptance_ratio=")
    assert lines[1] == "i,c0_re,c0_im"
    assert len(lines) == 27


@pytest.mark.parametrize("box", [[], ["--box-radius", "0.5"]], ids=["exact", "box"])
def test_sample_count_no_domain_can_fill_exits_2_at_once(disk_files, capsys, monkeypatch,
                                                         box):
    # a count above SAMPLE_MAX_DRAWS fails before any draw, not after 10^7
    # draws (or, on the exact path, on a count x dim allocation)
    def no_draws(seed):
        raise AssertionError("drew before checking the count")
    monkeypatch.setattr(domains, "_philox", no_draws)
    spec, _ = disk_files
    assert main(["sample", "--spec", str(spec), "--count", "1000000000000"] + box) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, count, box", [
    (disk_spec(), 25, None),
    (chain_stage_spec(5), 40, "0.5"),
    (ball_exp_lift_spec(1, 2, (2.0,)), 9000, None),
], ids=["disk", "stage5", "exp_lift_12_g2-two-blocks"])
def test_sample_csv_bytes_match_csv_writer(tmp_path, capsys, spec, count, box):
    specf = tmp_path / "spec.json"
    specf.write_text(json.dumps(spec_to_dict(spec)))
    out = tmp_path / "pts.csv"
    argv = ["sample", "--spec", str(specf), "--count", str(count), "--seed", "31",
            "--out", str(out)] + (["--box-radius", box] if box else [])
    assert main(argv) == 0
    res = sample_interior(spec, count, seed=31, box_radius=box and float(box))
    want = io.StringIO(newline="")
    want.write(f"# acceptance_ratio={res.acceptance_ratio:.17g} "
               f"volume_estimate={res.volume_estimate:.17g} "
               f"draws={res.draws}\n")
    w = csv.writer(want)
    w.writerow(["i"] + [f"c{j}_{part}" for j in range(spec.dim) for part in ("re", "im")])
    w.writerows([i] + [f"{x:.17g}" for c in pt for x in (c.real, c.imag)]
                for i, pt in enumerate(res.points))
    assert out.read_bytes() == want.getvalue().encode("utf-8")
    assert capsys.readouterr().out == (
        f"accepted={count} acceptance_ratio={res.acceptance_ratio:.17g} "
        f"volume_estimate={res.volume_estimate:.17g}\n")


def test_bad_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    pts = tmp_path / "p.json"
    pts.write_text("[]")
    assert main(["eval", "--spec", str(bad), "--points", str(pts)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"base": {"kind": "Polydisk", "n_star": 1,
                                            "m_passive": 0}, "weird": 1}))
    assert main(["eval", "--spec", str(unknown), "--points", str(pts)]) == 2


def test_non_finite_spec_exponent_exits_2(tmp_path, capsys):
    spec = tmp_path / "nan.json"
    spec.write_text('{"base": {"kind": "GeneralizedComplexEllipsoid", '
                    '"n_star": 1, "m_passive": 0, "exponents": [NaN]}}')
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps([[[0.1, 0.0]]]))
    assert main(["eval", "--spec", str(spec), "--points", str(pts),
                 "--mode", "series"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["series", "all"])
@pytest.mark.parametrize("weight", [1e-300, 1e200])
def test_unrepresentable_v_weight_exits_2(tmp_path, capsys, weight, mode):
    # the V-step moment c!/s^(c+1) has no float value at index (0, 1)
    spec = tmp_path / "v.json"
    spec.write_text(json.dumps({
        "base": {"kind": "GeneralizedComplexEllipsoid", "exponents": [1.0],
                 "n_star": 1, "m_passive": 0},
        "lifts": [{"kind": "V", "weights": [weight], "w_dim": 1}]}))
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]]]))
    assert main(["eval", "--spec", str(spec), "--points", str(pts), "--mode", mode]) == 2
    assert capsys.readouterr().err == "error: norm integral collapsed for index (0, 1)\n"


@pytest.mark.parametrize("spec_json, points_json", [
    (None, "[1]"),
    (None, '[{"p": 5}]'),
    ('{"base": {"kind": "Polydisk", "n_star": 1, "m_passive": 0}, '
     '"lifts": [{"kind": "U", "weights": 5, "w_dim": 1}]}', None),
    ('{"base": []}', None),
], ids=["points-scalar", "points-p-scalar", "weights-scalar", "base-list"])
def test_malformed_json_exits_2(disk_files, tmp_path, capsys, spec_json, points_json):
    spec, pts = disk_files
    if spec_json is not None:
        spec = tmp_path / "bad_spec.json"
        spec.write_text(spec_json)
    if points_json is not None:
        pts = tmp_path / "bad_points.json"
        pts.write_text(points_json)
    assert main(["eval", "--spec", str(spec), "--points", str(pts)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target, stratum, weight", [
    pytest.param("[1,2]", "S2", "r", id="[1,2]"),
    pytest.param('[[0,0],[1,0],[0,"a"]]', "S2", "r", id='[[0,0],[1,0],[0,"a"]]'),
    # w = 0 is off the |w| = 1 face that S3 and S4 paths approach
    pytest.param("[[0,0],[1,0],[0,0]]", "S3", "w", id="w-zero-S3"),
    pytest.param("[[0,0],[1,0],[0,0]]", "S4", "product", id="w-zero-S4"),
    # S2 targets lie on the boundary: not inside it, not NaN
    pytest.param("[[0,0],[0.5,0],[0.5,0]]", "S2", "r", id="interior-S2"),
    pytest.param("[[NaN,0],[0,0],[0.5,0]]", "S2", "r", id="nan-S2"),
])
def test_boundary_malformed_target_exits_2(lifted_ball_file, capsys, target, stratum,
                                           weight):
    assert main(["boundary", "--spec", str(lifted_ball_file), "--target", target,
                 "--stratum", stratum, "--weight", weight]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--spec", "{dir}", "--points", "{pts}"],
    ["eval", "--spec", "{spec}", "--points", "{dir}"],
    ["eval", "--spec", "{spec}", "--points", "{pts}", "--out", "{dir}"],
    ["sample", "--spec", "{spec}", "--count", "3", "--out", "{dir}"],
], ids=["eval-spec", "eval-points", "eval-out", "sample-out"])
def test_path_naming_a_directory_exits_2(disk_files, tmp_path, capsys, argv):
    spec, pts = disk_files
    argv = [a.format(dir=tmp_path, spec=spec, pts=pts) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv", [
    ["sample", "--count", "3", "--box-radius", "nan"],
    ["sample", "--count", "3", "--box-radius", "inf"],
    ["eval", "--cap", "-3"],
    ["eval", "--cap", "1000", "--mode", "series"],
    ["sample", "--count", "3", "--seed", "-1"],
    ["sample", "--count", "3", "--seed", str(1 << 64)],
    ["verify", "--suite", "symmetry", "--seed", "-1"],
    ["verify", "--suite", "dirichlet", "--seed", "-1"],
    ["verify", "--suite", "levi", "--seed", str(1 << 64)],
    ["verify", "--suite", "symmetry", "--workers", "4"],
], ids=["box-radius-nan", "box-radius-inf", "cap-negative", "cap-too-large",
        "sample-seed-negative", "sample-seed-too-large", "verify-seed-negative",
        "dirichlet-seed-negative", "levi-seed-too-large", "verify-workers-4"])
def test_bad_numeric_flag_exits_2(lifted_ball_file, tmp_path, capsys, argv):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps([[[0.1, 0.0], [0.2, 0.0], [0.1, 0.0]]]))
    if argv[0] == "sample":
        argv = argv + ["--spec", str(lifted_ball_file)]
    elif argv[0] == "eval":
        argv = argv + ["--spec", str(lifted_ball_file), "--points", str(pts)]
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


_json_scalars = (st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["p", "q", "x"]), inner, max_size=3),
    max_leaves=12)
_numbers = st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
_wire_points = st.lists(st.lists(_numbers, min_size=2, max_size=2)
                        | _json_values, max_size=3)
# bools, and ints that round to a float or overflow it, where a number belongs
_odd_numbers = st.booleans() | st.sampled_from(
    [2 ** 64 + 1, 2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970, 10 ** 400, -10 ** 400])
_pairs = st.lists(_numbers, min_size=2, max_size=2)
_points = st.lists(_pairs, min_size=2, max_size=2)
_near_points = st.lists(_pairs | st.lists(_numbers | _odd_numbers, min_size=2, max_size=2),
                        min_size=2, max_size=2)


def _points_files(points):
    return st.lists(points | st.fixed_dictionaries({"p": points}, optional={"q": points}),
                    max_size=4)


def _reference_points(data, dim):
    """The points-file rules one point at a time: complex(re, im) per pair,
    and the five messages in the order the per-point checks meet them."""
    if not isinstance(data, list):
        raise SpecError("points file must hold a JSON list")

    def point(value, i):
        if type(value) is list and all(
                type(c) is list and len(c) == 2
                and type(c[0]) in (int, float) and type(c[1]) in (int, float)
                for c in value):
            try:
                return [complex(re, im) for re, im in value]
            except OverflowError:
                raise SpecError(f"point {i} is out of range") from None
        raise SpecError(f"point {i} must be a list of [re, im] number pairs")

    ps, qs = [], []
    for i, entry in enumerate(data):
        if isinstance(entry, dict):
            if "p" not in entry:
                raise SpecError(f"point {i} is missing field 'p'")
            p, q = point(entry["p"], i), point(entry.get("q", entry["p"]), i)
        else:
            p = q = point(entry, i)
        if len(p) != dim or len(q) != dim:
            raise SpecError(f"point {i} has the wrong dimension")
        ps.append(p)
        qs.append(q)
    return tuple(np.array(side, dtype=complex).reshape(len(side), dim) for side in (ps, qs))


@settings(max_examples=300, deadline=None)
@given(_points_files(_points) | _points_files(_near_points)
       | st.lists(_wire_points | st.fixed_dictionaries(
           {"p": _wire_points}, optional={"q": _wire_points}) | _json_values, max_size=3)
       | _json_values)
def test_points_loader_fuzz_gives_points_or_spec_error(data):
    # the whole-list loader gives the reference's arrays bit for bit (NaN
    # and -0.0 included) or its SpecError text; the reference reads what
    # the file holds (JSON keeps no NaN payload)
    text = json.dumps(data)
    try:
        want = _reference_points(json.loads(text), 2)
    except SpecError as e:
        want = str(e)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        try:
            got = _load_points(path, 2)
        except SpecError as e:
            got = str(e)
    finally:
        os.unlink(path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_points_loader_valid_file_skips_per_point_pass(tmp_path, monkeypatch):
    # the per-point pass only names a bad point; a valid file never reaches it
    def fail(value, what):
        raise AssertionError("per-point pass ran on a valid points file")

    monkeypatch.setattr(cli, "_wire_point", fail)
    spec = chain_stage_spec(3)
    pairs = interior_pairs(spec, 512, seed=23)
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([{"p": _wire(p), "q": _wire(q)} for p, q in pairs]))
    P, Q = _load_points(path, spec.dim)
    assert P.shape == Q.shape == (512, spec.dim)
    assert P.tolist() == [list(p) for p, _ in pairs]
    assert Q.tolist() == [list(q) for _, q in pairs]


def test_eval_error_row_bytes_match_csv_writer(tmp_path, monkeypatch):
    # one row of each kind under --mode all: interior; exterior; closed
    # NonFiniteError (lifted and series skipped); series ConvergenceError
    # (closed and lifted kept, with their delta)
    spec = disk_spec()
    disk = kernel_ball(1)
    pole = 0.25 * (0.2 + 0.1j)  # u = p q-bar on that row, exact

    def fn(u):
        return np.where(u[0] == pole, np.divide(1.0, u[0] - pole), disk.fn(u))

    closed = Kernel(fn, domain=spec, name="poles")
    monkeypatch.setattr(cli, "closed_form_for", lambda s: closed)
    ps, q = [0.1 + 0.05j, 1.5, 0.25, 0.995], 0.2 - 0.1j
    entries = [{"p": _wire((ps[0],)), "q": _wire((q,))}, _wire((ps[1],)),
               {"p": _wire((ps[2],)), "q": _wire((q,))}, _wire((ps[3],))]
    rc, _ = _eval_rows(tmp_path, spec, entries, "all", "--cap", "40")
    assert rc == 2
    # the closed and lifted panels hold the rows that reach them, rows 0 and 3
    P, Q = (np.array([ps[0], ps[3]]),), (np.array([q, ps[3]]),)
    vals = {"closed": closed(P, Q).tolist(), "lifted": compose_pipeline(spec)(P, Q).tolist()}
    sv = series_kernel(spec, (ps[0],), (q,), 40)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["i", "closed_re", "closed_im", "lifted_re", "lifted_im", "series_re",
                "series_im", "series_tail", "delta_closed_lifted", "delta_closed_series",
                "error"])
    c, l, s = vals["closed"][0], vals["lifted"][0], complex(sv.value)
    w.writerow([0] + [_fmt(x) for x in (c.real, c.imag, l.real, l.imag, s.real, s.imag,
                                        sv.tail_bound, abs(l - c) / abs(c), abs(s - c) / abs(c))]
               + [""])
    w.writerow([1] + [""] * 9 + ["exterior"])
    w.writerow([2] + [""] * 9 + ["NonFiniteError"])
    c, l = vals["closed"][1], vals["lifted"][1]
    w.writerow([3] + [_fmt(x) for x in (c.real, c.imag, l.real, l.imag)] + ["", "", "",
               _fmt(abs(l - c) / abs(c)), "", "ConvergenceError"])
    assert (tmp_path / "eval.csv").read_bytes() == want.getvalue().encode("utf-8")
