import argparse
import gc
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gencusp
from gencusp.cli import main, make_parser
from gencusp.cusp_groups import BlownUpWeylPoint, build_marked_cusp
from gencusp.invariants import are_conjugate, complete_invariant
from gencusp.sampling import random_cusp
from gencusp.cli import parse_cusp_params


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _params(lam, kap, B=None, orth=False):
    out = {"n": len(lam), "lambda": lam, "kappa": kap, "orthonormalized": orth}
    if B is not None:
        out["B"] = B
    return out


def test_build_standard(tmp_path, capsys):
    src = _write(tmp_path, "p.json", _params([0.0, 0, 0], [0.0, 0.0]))
    out = str(tmp_path / "cusp.json")
    assert main(["build", src, "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["lambda"] == [0.0, 0.0, 0.0]
    assert data["rescaled"] is False


def test_build_rescales_det_two(tmp_path):
    src = _write(tmp_path, "p.json",
                 _params([0.0, 1.0, 2.0], [0.0, 0.0], B=[[2.0, 0.0], [0.0, 2.0]]))
    out = str(tmp_path / "cusp.json")
    assert main(["build", src, "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["rescaled"] is True
    assert "note" in data
    assert abs(abs(np.linalg.det(np.array(data["B"]))) - 1) < 1e-12
    assert abs(data["lambda"][2] - 4.0) < 1e-12  # lambda scaled by det^(1/(n-1)) = 2


def test_build_malformed_kappa_names_field(tmp_path, capsys):
    src = _write(tmp_path, "p.json", _params([0.0, 0, 0], [0.0, 0.0, 0.0]))
    assert main(["build", src]) == 1
    assert "kappa" in capsys.readouterr().err


@pytest.mark.parametrize("lam, kap, b, message", [
    ([0.5, 1.0], [0.5, 0.25], None, "lambda must have length n=3"),
    ([0.5, 1.0, 2.0], [0.5], None, "kappa must have length n-1=2"),
    ([0.5, 1.0, 2.0], [0.5, 0.25], [[1.0, 0.0], [0.0]], "inhomogeneous"),
    ([0.5, 1.0, 2.0], [0.5, 0.25], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "marking must be"),
], ids=["lambda-length", "kappa-length", "ragged-B", "B-shape"])
def test_cusp_file_shape_errors_are_the_librarys(tmp_path, capsys, lam, kap, b, message):
    # BlownUpWeylPoint and the marking check refuse these; the CLI names the
    # file and exits 1, a ragged B too
    params = _params(lam, kap, b)
    params["n"] = 3
    src = _write(tmp_path, "p.json", params)
    assert main(["build", src]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % src) and message in err


@pytest.mark.parametrize("key", ["3,0,0", "3", "4,-1", "3,-1", "2,0", "x,3"])
def test_recover_shape_refuses_a_bad_monomial_key(tmp_path, capsys, key):
    shape = {"q": [[1.0, 0.0], [0.0, 1.0]], "c": {"3,0": 1.0, key: 0.5}}
    src = _write(tmp_path, "shape.json", {"shape": shape})
    assert main(["recover", "shape", src]) == 1
    assert capsys.readouterr().err.startswith("error: %s: " % src)


@pytest.mark.parametrize("value", ["false", 0, 1, None, []],
                         ids=["str-false", "zero", "one", "null", "list"])
@pytest.mark.parametrize("command", ["build", "invariants", "conjugate", "mesh"])
def test_non_boolean_orthonormalized_is_validation_error(tmp_path, capsys, command, value):
    # "false" is truthy: read through bool() it built the orthonormalized cusp
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0], orth=value))
    tail = {"conjugate": [src], "mesh": ["--out", str(tmp_path / "m.csv")]}.get(command, [])
    assert main([command, src] + tail) == 1
    assert "'orthonormalized'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, False, "absent"])
def test_build_reads_orthonormalized_flag(tmp_path, value):
    params = _params([0.0, 1.0, 2.0], [0.0, 0.0], B=[[1.0, 0.5], [0.0, 1.0]], orth=value)
    if value == "absent":
        del params["orthonormalized"]
    out = str(tmp_path / "cusp.json")
    assert main(["build", _write(tmp_path, "p.json", params), "--out", out]) == 0
    assert json.loads(open(out).read())["orthonormalized"] is (value is True)


def test_build_bad_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["build", str(path)]) == 1


def test_missing_file_is_io_error(tmp_path):
    assert main(["build", str(tmp_path / "absent.json")]) == 3


def test_invariants_blocks(tmp_path):
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0]))
    out = str(tmp_path / "inv.json")
    assert main(["invariants", src, "--out", out]) == 0
    data = json.loads(open(out).read())
    assert set(data) == {"eta", "nu", "shape", "coords3d", "cross_check"}
    assert data["nu"]["type"] == 2
    assert data["nu"]["varpi"] == 0.0
    assert data["cross_check"]["cubic_routes_residual"] <= 1e-5
    w, h, r = data["coords3d"]["w"], data["coords3d"]["h"], data["coords3d"]["r"]
    assert abs(w[0]) < 1e-9 and abs(w[1] - 1) < 1e-9
    assert abs(12 * h[0] - 1) < 1e-8 and abs(12 * h[1] - 2) < 1e-8
    assert abs(12 * r[0] - 3) < 1e-8 and abs(12 * r[1] + 6) < 1e-8


def test_invariants_flags_higher_dimensions(tmp_path):
    src = _write(tmp_path, "p.json", _params([0.0, 0, 1, 2], [0.0, 0, 0]))
    out = str(tmp_path / "inv.json")
    assert main(["invariants", src, "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["coords3d"] == {"note": "n != 3"}


def test_conjugate_command(tmp_path):
    a = _write(tmp_path, "a.json", _params([0.0, 0, 1], [0.5, 0.0]))
    b = _write(tmp_path, "b.json", _params([0.0, 0, 1], [0.9, 0.0]))
    out = str(tmp_path / "res.json")
    assert main(["conjugate", a, a, "--out", out]) == 0
    assert json.loads(open(out).read())["conjugate"] is True
    assert main(["conjugate", a, b, "--out", out]) == 0
    assert json.loads(open(out).read())["conjugate"] is False


def test_recover_psi_from_invariants_file(tmp_path):
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0]))
    inv = str(tmp_path / "inv.json")
    main(["invariants", src, "--out", inv])
    out = str(tmp_path / "psi.json")
    assert main(["recover", "psi", inv, "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["type"] == 2
    from gencusp.invariants import marked_psi_normal_form

    p = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    assert np.max(np.abs(np.array(data["psi"]) - marked_psi_normal_form(p).psi)) < 1e-6


def test_recover_weights_and_shape_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    c = random_cusp(rng, 3)
    src = _write(tmp_path, "c.json", {
        "n": 3,
        "lambda": list(map(float, c.params.lam)),
        "kappa": list(map(float, c.params.kappa)),
        "B": [[float(v) for v in row] for row in np.asarray(c.marking)],
        "orthonormalized": bool(c.orthonormalized),
    })
    inv = str(tmp_path / "inv.json")
    main(["invariants", src, "--out", inv])
    for kind in ("weights", "shape"):
        out = str(tmp_path / ("rec_%s.json" % kind))
        assert main(["recover", kind, inv, "--out", out]) == 0
        rec = parse_cusp_params(json.loads(open(out).read()))
        assert are_conjugate(rec, c, tol=1e-4)


@pytest.mark.parametrize("s", [1e-10, 1e-8, 1e-6, 1e6])
def test_recover_roundtrip_at_any_scale(tmp_path, s):
    # the file rounds each array at its own size, so the relative gates of
    # the inverse maps read the rounding's 12 digits at every scale
    lam = [s * v for v in (0.5, 1.0, 1.5, 2.0)]
    b = [[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]]
    params = _params(lam, [0.5, 1 / 3, 0.25], b)
    c = parse_cusp_params(params)
    inv = str(tmp_path / "inv.json")
    assert main(["invariants", _write(tmp_path, "p.json", params), "--out", inv]) == 0
    for kind in ("psi", "weights", "shape"):
        out = str(tmp_path / ("rec_%s.json" % kind))
        assert main(["recover", kind, inv, "--out", out]) == 0
        rec = json.loads(open(out).read())
        if kind == "psi":
            assert rec["type"] == 4
        else:
            rec = parse_cusp_params(rec)
            assert rec.params.type_t == 4 and are_conjugate(rec, c)


def test_recover_unrealizable_input_is_validation_error(tmp_path, capsys):
    # dual pairings -0.9, 0, 0 are not one constant: off the weights equation
    nu = {"weights": [[-0.5, 0.9], [0.9, -0.5], [0.0, 0.0]], "beta": [[1.0, 0.0], [0.0, 1.0]]}
    src = _write(tmp_path, "nu.json", {"nu": nu})
    assert main(["recover", "weights", src]) == 1
    assert "weights equation residual" in capsys.readouterr().err
    # slice commutators give varpi < 0: off the shape cone
    shape = {"q": [[1.0, 0.0], [0.0, 1.0]], "c": {"3,0": 1.0, "2,1": 1.8, "1,2": 1.8, "0,3": 1.0}}
    src = _write(tmp_path, "shape.json", {"shape": shape})
    assert main(["recover", "shape", src]) == 1
    assert "not a cusp shape" in capsys.readouterr().err


def test_recover_numerical_failure_still_exits_2(tmp_path, monkeypatch, capsys):
    import gencusp.shape as shape_mod

    src = _write(tmp_path, "p.json", _params([0.5, 1.0, 2.0], [0.5, 0.25]))
    inv = str(tmp_path / "inv.json")
    assert main(["invariants", src, "--out", inv]) == 0
    # a genuine shape whose rebuilt cusp misses a zero tolerance
    monkeypatch.setattr(shape_mod, "SHAPE_TOL", 0.0)
    assert main(["recover", "shape", inv]) == 2
    assert "reproduces the shape only" in capsys.readouterr().err


@pytest.mark.parametrize("kind, block, key", [
    ("psi", "eta", "beta"), ("weights", "nu", "beta"), ("shape", "shape", "q"),
])
def test_recover_rejects_non_unimodular_metric(tmp_path, capsys, kind, block, key):
    # a type-3 cusp's invariants with the metric doubled: no cusp has them
    src = _write(tmp_path, "p.json", _params([0.5, 1.0, 2.0], [0.5, 0.25]))
    inv = tmp_path / "inv.json"
    assert main(["invariants", src, "--out", str(inv)]) == 0
    data = json.loads(inv.read_text())
    data[block][key] = (2.0 * np.array(data[block][key])).tolist()
    doubled = _write(tmp_path, "doubled.json", data)
    assert main(["recover", kind, doubled]) == 1
    assert "must be unimodular" in capsys.readouterr().err


def test_recover_psi_rejects_weights_without_positive_relation(tmp_path, capsys):
    eta = {"weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]],
           "beta": [[1.0, 0.0], [0.0, 1.0]]}
    assert main(["recover", "psi", _write(tmp_path, "eta.json", {"eta": eta})]) == 1
    assert "weights equation residual" in capsys.readouterr().err


@pytest.mark.parametrize("argv, obj", [
    (["recover", "psi"], [1, 2]),
    (["recover", "weights"], [1, 2]),
    (["recover", "shape"], [1, 2]),
    (["build"], 5),
    (["recover", "weights"], {"nu": 5}),
    (["recover", "psi"], {"eta": [[1.0, 0.0]]}),
    (["recover", "shape"], {"shape": "q"}),
    (["recover", "shape"], {"q": [[1.0, 0.0], [0.0, 1.0]], "c": [1.0]}),
    (["recover", "shape"], {"q": [[1.0, 0.0], [0.0, 1.0]], "c": {"3,0": [1.0]}}),
], ids=["psi-list", "weights-list", "shape-list", "build-int", "nu-int", "eta-list",
        "shape-str", "c-list", "c-entry-list"])
def test_non_object_json_is_validation_error(tmp_path, capsys, argv, obj):
    src = _write(tmp_path, "bad.json", obj)
    assert main(argv + [src]) == 1
    assert src in capsys.readouterr().err


@pytest.mark.parametrize("kind, data", [
    ("psi", {"eta": {"weights": [[1.0], [0.0], [-1.0]], "beta": [[1.0]]}}),
    ("shape", {"shape": {"q": [[1.0]], "c": {"3": 1.0}}}),
])
def test_recover_below_dimension_three_is_validation_error(tmp_path, capsys, kind, data):
    assert main(["recover", kind, _write(tmp_path, "n2.json", data)]) == 1
    assert "requires n >= 3" in capsys.readouterr().err


def test_recover_rejects_ragged_matrix(tmp_path):
    nu = {"weights": [[1.0, 0.0], [0.0]], "beta": [[1.0, 0.0], [0.0, 1.0]]}
    assert main(["recover", "weights", _write(tmp_path, "nu.json", {"nu": nu})]) == 1


# json parses NaN and Infinity; an integer past the float range is no real
# either
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400]
_NON_FINITE_IDS = ["nan", "inf", "-inf", "int-overflow"]


@pytest.mark.parametrize("value", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize("field, index", [("lambda", (1,)), ("kappa", (0,)), ("B", (0, 1))])
@pytest.mark.parametrize("command", ["build", "invariants", "conjugate", "mesh"])
def test_non_finite_cusp_field_is_validation_error(tmp_path, capsys, command, field, index,
                                                   value):
    data = _params([0.5, 1.0, 2.0], [0.5, 0.25], B=[[1.0, 0.0], [0.0, 1.0]])
    target = data[field]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    src = _write(tmp_path, "p.json", data)
    argv = {
        "build": ["build", src],
        "invariants": ["invariants", src],
        "conjugate": ["conjugate", src, src],
        "mesh": ["mesh", src, "--out", str(tmp_path / "mesh.csv")],
    }[command]
    assert main(argv) == 1
    assert "field %r must be" % field in capsys.readouterr().err


@pytest.mark.parametrize("value", _NON_FINITE, ids=_NON_FINITE_IDS)
@pytest.mark.parametrize("kind, block, key", [
    ("psi", "eta", "weights"), ("psi", "eta", "beta"),
    ("weights", "nu", "weights"), ("weights", "nu", "beta"),
    ("shape", "shape", "q"), ("shape", "shape", "c"),
])
def test_non_finite_invariant_field_is_validation_error(tmp_path, capsys, kind, block, key,
                                                        value):
    src = _write(tmp_path, "p.json", _params([0.5, 1.0, 2.0], [0.5, 0.25]))
    inv = tmp_path / "inv.json"
    assert main(["invariants", src, "--out", str(inv)]) == 0
    data = json.loads(inv.read_text())
    if key == "c":
        data[block][key]["3,0"] = value
    else:
        data[block][key][1][0] = value
    assert main(["recover", kind, _write(tmp_path, "bad.json", data)]) == 1
    assert "field %r must" % key in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_conjugate_rejects_bad_tol(tmp_path, tol):
    a = _write(tmp_path, "a.json", _params([0.0, 0, 1], [0.5, 0.0]))
    out = str(tmp_path / "res.json")
    assert main(["conjugate", a, a, "--tol=" + tol, "--out", out]) == 1
    assert main(["conjugate", a, a, "--tol", "0", "--out", out]) == 0
    assert json.loads(open(out).read())["conjugate"] is True


@pytest.mark.parametrize("command", [
    ["build", "p"], ["invariants", "p"], ["conjugate", "p", "p"], ["recover", "psi", "inv"],
    ["recover", "weights", "inv"], ["recover", "shape", "inv"], ["verify", "--samples", "1"],
    ["mesh", "p"], ["limit-demo", "--kappa", "0.5"],
])
@pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "1e-3"), ("--seed", "3")])
def test_global_flag_is_refused_by_a_command_that_does_not_read_it(
        tmp_path, capsys, command, flag, value):
    reader = {"--tol": "conjugate", "--seed": "verify"}[flag]
    p = _write(tmp_path, "p.json", _params([0.5, 1.0, 2.0], [0.5, 0.25]))
    inv = str(tmp_path / "inv.json")
    assert main(["invariants", p, "--out", inv]) == 0
    out = str(tmp_path / "out")
    argv = [{"p": p, "inv": inv}.get(a, a) for a in command] + ["--out", out]
    # after the subcommand only its reader takes the flag; before it, none
    for flags in (argv[:1] + [flag, value] + argv[1:], [flag, value] + argv):
        code = main(flags)
        if command[0] == reader and flags[0] != flag:
            assert code == 0
            os.remove(out)
            continue
        assert code == 1
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        # argparse's own refusal: the flag is unknown, or its value is read
        # as the next positional
        assert err.startswith("error: ")
        assert ("unrecognized arguments: %s" % flag in err
                or "invalid choice: %r" % value in err), err


def test_each_flag_lives_on_the_command_that_reads_it():
    parser = make_parser()
    assert sorted(parser._option_string_actions) == ["--help", "-h"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {name: sorted(p._option_string_actions) for name, p in sub.choices.items()}
    common = ["--help", "--out", "-h"]
    assert table == {
        "build": common,
        "invariants": common,
        "conjugate": sorted(common + ["--tol"]),
        "recover": common,
        "verify": sorted(common + ["--seed", "--samples", "--dims"]),
        "mesh": sorted(common + ["--grid", "--obj"]),
        "limit-demo": sorted(common + ["--kappa", "--m-max"]),
    }


@pytest.mark.parametrize("flag", [
    "--samples=0", "--samples=-3", "--dims=2", "--dims=3,4,1", "--dims=3,x", "--dims=",
])
def test_verify_rejects_bad_samples_and_dims(flag, capsys):
    assert main(["verify", flag]) == 1
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0x5", "5x1", "1x1", "-2x4"])
def test_mesh_rejects_grid_below_2x2(tmp_path, grid):
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0]))
    out = tmp_path / "mesh.csv"
    assert main(["mesh", src, "--grid=" + grid, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("lam", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]], ids=["n2", "n4"])
def test_mesh_rejects_dimension_other_than_3(tmp_path, capsys, lam):
    # out-of-range input is a validation error (exit 1), not a numerical one
    src = _write(tmp_path, "p.json", _params(lam, [0.0] * (len(lam) - 1)))
    out = tmp_path / "mesh.csv"
    assert main(["mesh", src, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "mesh export is for 3-dimensional cusps, got n = %d" % len(lam) in err
    assert not out.exists()


def test_run_battery_repeats_in_process():
    # no state leaks from one battery's cusps into the next
    from gencusp.verify import run_battery

    assert run_battery(seed=3, samples=2, dims=(3,)) == run_battery(seed=3, samples=2, dims=(3,))


def test_verify_deterministic_and_green(tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["verify", "--samples", "6", "--dims", "3,4", "--out", out1]) == 0
    assert main(["verify", "--samples", "6", "--dims", "3,4", "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    report = json.loads(b1)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert all("anchor" in c for c in report["checks"])


def test_flag_before_the_subcommand_is_refused(tmp_path, capsys):
    # the top-level parser reads no flag: --seed belongs to verify's parser
    out = str(tmp_path / "r.json")
    assert main(["--seed", "9", "verify", "--samples", "3", "--dims", "3", "--out", out]) == 1
    assert not os.path.exists(out)
    assert "error: argument command: invalid choice: '9'" in capsys.readouterr().err
    assert main(["verify", "--seed", "9", "--samples", "3", "--dims", "3", "--out", out]) == 0
    assert json.loads(open(out).read())["seed"] == 9


def test_verify_mutation_flags_varpi_check(monkeypatch):
    # a sign error planted in the varpi estimator must flip exactly the
    # varpi closed-form check
    import gencusp.invariants as inv_mod
    from gencusp.verify import CHECKS, _rng_for

    orig = inv_mod.WeightData.varpi
    monkeypatch.setattr(
        inv_mod.WeightData, "varpi",
        property(lambda self: -orig.fget(self)),
    )
    check = next(c for c in CHECKS if c["name"] == "varpi-closed-form")
    residual, _ = check["fn"](_rng_for(0, check["name"]), 10, (3, 4))
    assert residual > check["threshold"]


def test_count_check_reports_its_failure_count(monkeypatch):
    import gencusp.shape as shape_mod
    from gencusp.verify import CHECKS, _rng_for

    def fail(shape):
        raise ValueError("planted")

    monkeypatch.setattr(shape_mod, "recover_cusp_from_shape", fail)
    check = next(c for c in CHECKS if c["name"] == "shape-recovery-roundtrip")
    assert check["fn"](_rng_for(0, check["name"]), 3, (3,)) == (3.0, 3)


def test_residual_check_starts_from_zero():
    # fk-series-continuity measures delta minus its bound: negative on every
    # sample, so the combined residual is the starting 0.0
    from gencusp.verify import CHECKS, _rng_for

    check = next(c for c in CHECKS if c["name"] == "fk-series-continuity")
    assert check["fn"](_rng_for(0, check["name"]), 5, (3,)) == (0.0, 5)


def test_run_battery_reports_a_check_that_raises_and_runs_the_rest(monkeypatch):
    import gencusp.verify as verify_mod

    orig = verify_mod.varpi_closed_form
    calls = []

    def raises_at_second_sample(c):
        calls.append(c)
        if len(calls) == 2:
            raise RuntimeError("planted")
        return orig(c)

    monkeypatch.setattr(verify_mod, "varpi_closed_form", raises_at_second_sample)
    report = verify_mod.run_battery(seed=0, samples=3, dims=(3,))
    by_name = {c["name"]: c for c in report["checks"]}
    assert len(by_name) == len(verify_mod.CHECKS)
    bad = by_name.pop("varpi-closed-form")
    assert (bad["max_residual"], bad["samples"], bad["passed"]) == (9e99, 0, False)
    assert bad["note"] == "RuntimeError: planted"
    assert report["passed"] is False
    assert all(c["passed"] and "note" not in c for c in by_name.values())


def test_verify_exit_code_on_failure(monkeypatch, tmp_path):
    import gencusp.verify as verify_mod

    def broken_battery(seed=0, samples=50, dims=(3, 4, 5)):
        return {
            "seed": seed, "samples": samples, "dims": list(dims),
            "passed": False,
            "checks": [{"name": "some-check", "anchor": "a", "samples": 1,
                        "max_residual": 1.0, "threshold": 0.0,
                        "detection": False, "passed": False}],
        }

    monkeypatch.setattr(verify_mod, "run_battery", broken_battery)
    out = str(tmp_path / "r.json")
    assert main(["verify", "--samples", "1", "--out", out]) == 2


def test_mesh_command(tmp_path):
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0]))
    out = str(tmp_path / "mesh.csv")
    obj = str(tmp_path / "mesh.obj")
    assert main(["mesh", src, "--grid", "6x7", "--out", out, "--obj", obj]) == 0
    assert len(open(out).read().strip().split("\n")) == 43
    assert main(["mesh", src, "--grid", "bogus", "--out", out]) == 1


def test_limit_demo(tmp_path, capsys):
    out = str(tmp_path / "table.txt")
    assert main(["limit-demo", "--kappa", "1,1", "--m-max", "10000", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 5  # header + m in {10,100,1000,10000}
    dists = [float(l.split()[2]) for l in lines[1:]]
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    assert all(abs(r - 10) <= 1 for r in ratios)
    assert main(["limit-demo", "--kappa", "1,0"]) == 1  # kappa must be in (0,1]
    # n is len(kappa) + 1: there is no flag to repeat it
    assert main(["limit-demo", "--kappa", "1,1", "--n", "3"]) == 1
    assert "unrecognized arguments: --n" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["0,1", "1.5,1", "nan,1"])
def test_limit_demo_refuses_kappa_out_of_range(tmp_path, capsys, kappa):
    # limit_demo_rows refuses it; the CLI names the flag and writes nothing
    out = tmp_path / "table.txt"
    assert main(["limit-demo", "--kappa", kappa, "--out", str(out)]) == 1
    assert "error: --kappa: kappa entries must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_limit_demo_rejects_m_max_below_first_row(capsys):
    assert main(["limit-demo", "--kappa", "1,1", "--m-max", "9"]) == 1
    assert "m-max" in capsys.readouterr().err


def test_build_output_roundtrips_bit_exactly(tmp_path):
    rng = np.random.default_rng(3)
    c = random_cusp(rng, 4)
    src = _write(tmp_path, "raw.json", {
        "n": 4,
        "lambda": list(map(float, c.params.lam)),
        "kappa": list(map(float, c.params.kappa)),
        "B": [[float(v) for v in row] for row in np.asarray(c.marking)],
        "orthonormalized": bool(c.orthonormalized),
    })
    out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["build", src, "--out", out1]) == 0
    assert main(["build", out1, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    back = parse_cusp_params(json.loads(open(out1).read()))
    assert np.array_equal(back.params.lam, c.params.lam)
    assert np.array_equal(np.asarray(back.marking), np.asarray(c.marking))


def test_invariant_json_round12_is_diff_clean(tmp_path):
    src = _write(tmp_path, "p.json", _params([0.0, 1.0, 2.0], [0.0, 0.0]))
    out1, out2 = str(tmp_path / "i1.json"), str(tmp_path / "i2.json")
    main(["invariants", src, "--out", out1])
    main(["invariants", src, "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def _subprocess_env():
    """The environment with this checkout's gencusp first on the path."""
    src = str(Path(gencusp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _loaded_modules(argv):
    """Run ``gencusp.cli.main(argv)`` in a fresh interpreter; returns its exit
    code and the gencusp, numpy.random and scipy modules it loaded."""
    code = (
        "import json, sys\n"
        "from gencusp.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "mods = [m for m in sys.modules if m.startswith('gencusp')"
        " or m in ('numpy.random', 'scipy')]\n"
        "print(json.dumps([code, sorted(mods)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    code, mods = json.loads(out.stdout.splitlines()[-1])
    return code, set(mods)


_BASE = {"gencusp", "gencusp.cli", "gencusp.cusp_groups", "gencusp.linalg"}
_INVARIANTS = _BASE | {"gencusp.invariants"}
_SHAPE = _INVARIANTS | {"gencusp.shape"}
_DIM3 = _SHAPE | {"gencusp.dim3"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    files = {}
    for n, lam, kap in ((3, [0.5, 1.0, 2.0], [0.5, 0.25]), (4, [0.0, 1.0, 2.0, 3.0], [0.0] * 3)):
        files["p%d" % n] = _write(d, "p%d.json" % n, _params(lam, kap))
        files["inv%d" % n] = str(d / ("inv%d.json" % n))
        assert main(["invariants", files["p%d" % n], "--out", files["inv%d" % n]]) == 0
    files["out"] = str(d / "out")
    files["obj"] = str(d / "out.obj")
    return files


# each command loads only its own modules, and none loads numpy.random or
# scipy
@pytest.mark.parametrize("argv, expected", [
    ("build p3", _BASE),
    ("conjugate p3 p3", _INVARIANTS),
    ("recover psi inv3", _INVARIANTS),
    ("recover weights inv3", _INVARIANTS),
    ("recover shape inv3", _SHAPE),
    ("invariants p4", _SHAPE),
    ("invariants p3", _DIM3),
    ("mesh p3 --grid 3x3 --obj obj", _BASE | {"gencusp.dim3"}),
    ("limit-demo --kappa 1,1 --m-max 100", _INVARIANTS),
], ids=["build", "conjugate", "recover-psi", "recover-weights", "recover-shape",
        "invariants-n4", "invariants-n3", "mesh", "limit-demo"])
def test_command_loads_only_its_modules(cli_files, argv, expected):
    argv = [cli_files.get(t, t) for t in argv.split()] + ["--out", cli_files["out"]]
    assert _loaded_modules(argv) == (0, expected)


@pytest.fixture(scope="module")
def parity_files(cli_files, tmp_path_factory):
    # recover psi refuses this invariant: the type-1 cusp of lambda 2e200
    # has psi ~ 4e400, out of the float range
    d = tmp_path_factory.mktemp("parity")
    p = BlownUpWeylPoint(3, np.array([0.0, 0.0, 2e200]), np.zeros(2))
    eta = complete_invariant(build_marked_cusp(p))
    files = dict(cli_files)
    files["huge"] = _write(d, "huge.json", {"eta": {
        "weights": eta.character.weights.tolist(), "beta": eta.metric.tolist()}})
    files["new"] = str(d / "new.json")
    files["nodir"] = str(d / "missing" / "new.json")
    return files


# the process entry (cli.run) against main in process, at each exit code:
# 0 with --out and with stdout alone, 1 for a flag its command does not
# take, 2 for a numerical refusal and 3 for an --out it cannot write
@pytest.mark.parametrize("argv, exit_code", [
    ("build p3 --out new", 0),
    ("invariants p3 --out new", 0),
    ("conjugate p3 p3", 0),
    ("recover psi inv3", 0),
    ("build p3 --tol 1", 1),
    ("recover psi huge", 2),
    ("conjugate p3 p3 --out nodir", 3),
], ids=["build-out", "invariants-out", "conjugate", "recover-psi", "flag", "refusal",
        "unwritable"])
def test_process_entry_matches_main_in_process(parity_files, capsys, argv, exit_code):
    writes = argv.endswith("--out new") and exit_code == 0
    argv = [parity_files.get(t, t) for t in argv.split()]
    new = Path(parity_files["new"])
    new.unlink(missing_ok=True)
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    code = main(argv)
    # main has no process-wide effect: the freeze is run's, before exit
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    in_process = (code, *capsys.readouterr(), new.read_bytes() if new.exists() else None)
    new.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "gencusp.cli"] + argv, env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    entry = (proc.returncode, proc.stdout, proc.stderr,
             new.read_bytes() if new.exists() else None)
    assert entry == in_process
    assert code == exit_code and (entry[3] is not None) == writes


def test_package_exports_resolve_lazily_to_their_submodules():
    assert set(gencusp.__all__) <= set(dir(gencusp))
    for name in gencusp.__all__:
        module = importlib.import_module("gencusp." + gencusp._EXPORTS[name])
        assert getattr(gencusp, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        gencusp.not_an_export


def _strict_json(text):
    """json.loads refusing NaN and the infinities, which JSON does not have."""
    def refuse(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("lam, kap, code", [
    # varpi ~ (5e159)^2 is past the float range
    ([5e159, 1e160, 2e160], [0.5, 0.25], 2),
    # the dual norm (2e200)^2 is, and varpi is 0
    ([0.0, 0.0, 2e200], [0.0, 0.0], 0),
    # the dual norms ~ 1e310 are, and varpi ~ 1e200 is not
    ([1e100, 1e155, 2e155], [1e-55, 5e-56], 0),
], ids=["varpi-overflows", "type-1", "norms-overflow"])
def test_invariants_of_weights_past_1e154(tmp_path, capsys, lam, kap, code):
    # the pairings of weights past ~1e154 overflow: the payload reads varpi
    # and the largest dual norm at unit size, so it writes JSON, its cubic
    # routes agreeing, or refuses varpi by name with exit 2; a floating-point
    # warning fails the test (pyproject's filterwarnings)
    src = _write(tmp_path, "p.json", _params(lam, kap))
    out = tmp_path / "inv.json"
    assert main(["invariants", src, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numerical error: varpi is out of the float range: ")
        assert not out.exists()
        return
    assert err == ""
    data = _strict_json(out.read_text())
    assert data["cross_check"]["cubic_routes_residual"] <= 1e-5
    # varpi of the cusp scaled by 2^-600, which fits, scaled back by 2^1200
    down = _write(tmp_path, "down.json", _params([math.ldexp(v, -600) for v in lam], kap))
    assert main(["invariants", down, "--out", str(out)]) == 0
    ref = math.ldexp(_strict_json(out.read_text())["nu"]["varpi"], 1200)
    assert abs(data["nu"]["varpi"] - ref) <= 1e-11 * ref
