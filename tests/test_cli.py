import json
import math

import pytest

from coarsekit.cli import _COMMANDS, _FLAGS, _control_arg, _float_arg, _scales_arg, main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def cloud(lo, hi):
    return {"kind": "cloud", "coords": [[i] for i in range(lo, hi + 1)]}


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    report = json.loads(cap.out) if cap.out else None
    return code, report, cap.err


@pytest.fixture
def path16(tmp_path):
    return write(tmp_path, "space.json", cloud(0, 15))


@pytest.fixture
def fold5(tmp_path):
    dom = write(tmp_path, "dom.json", cloud(-5, 5))
    cod = write(tmp_path, "cod.json", cloud(0, 5))
    f = write(tmp_path, "map.json", {"assign": [abs(i) for i in range(-5, 6)]})
    return dom, cod, f


class TestSpaceCommand:
    def test_describe(self, capsys, tmp_path):
        sp = write(tmp_path, "s.json", cloud(0, 9))
        code, report, _ = run(capsys, ["space", "--space", sp])
        assert code == 0
        assert report["schema_version"] == 1
        assert report["status"] == "ok"
        assert report["result"] == {
            "n": 10,
            "diam": 9.0,
            "labels": [str(i) for i in range(10)],
        }
        assert len(report["inputs"]["space"]) == 64  # sha256 hex digest

    def test_invalid_metric_is_usage_error(self, capsys, tmp_path):
        sp = write(
            tmp_path,
            "bad.json",
            {"kind": "matrix", "labels": [0, 1, 2], "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        )
        code, report, err = run(capsys, ["space", "--space", sp])
        assert code == 2
        assert report is None
        assert "error:" in err

    def test_duplicate_labels_are_usage_error(self, capsys, tmp_path):
        sp = write(
            tmp_path,
            "dup.json",
            {"kind": "matrix", "labels": [0, 1, 0], "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        )
        code, report, err = run(capsys, ["space", "--space", sp])
        assert code == 2 and report is None
        assert "labels must be unique" in err

    @pytest.mark.parametrize("table", [None, 5])
    def test_scalar_matrix_is_usage_error(self, capsys, tmp_path, table):
        sp = write(tmp_path, "scalar.json", {"kind": "matrix", "matrix": table})
        code, report, err = run(capsys, ["space", "--space", sp])
        assert code == 2 and report is None
        assert "distance table must be square" in err

    @pytest.mark.parametrize("coords", [[], [1, 2, 3]], ids=["empty", "1-d"])
    def test_cloud_without_point_rows_is_usage_error(self, capsys, tmp_path, coords):
        sp = write(tmp_path, "cloud.json", {"kind": "cloud", "coords": coords})
        code, report, err = run(capsys, ["space", "--space", sp])
        assert code == 2 and report is None
        assert "nonempty list of points" in err

    @pytest.mark.parametrize("descriptor, message", [
        ({"kind": "graph", "edges": [], "labels": []}, "at least one vertex"),
        ({"kind": "graph", "edges": [[0, 1, math.nan], [1, 2, 1.0]]}, "edge weight must be finite"),
        ({"kind": "graph", "edges": [[0, 1, True], [1, 2, 1.0]]}, "edge weight must be a number"),
    ], ids=["no-vertices", "nan-weight", "bool-weight"])
    def test_bad_graph_is_usage_error(self, capsys, tmp_path, descriptor, message):
        sp = write(tmp_path, "graph.json", descriptor)
        code, report, err = run(capsys, ["space", "--space", sp])
        assert code == 2 and report is None
        assert message in err

    def test_missing_file(self, capsys, tmp_path):
        code, report, err = run(capsys, ["space", "--space", str(tmp_path / "nope.json")])
        assert code == 2 and report is None and "not found" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, report, err = run(capsys, ["space", "--space", str(p)])
        assert code == 2 and "malformed JSON" in err

    def test_unreadable_input_is_usage_error(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary):
            code, report, err = run(capsys, ["space", "--space", str(path)])
            assert code == 2 and report is None
            assert err.startswith("error:")

    def test_unparsable_scale_list_is_usage_error(self, capsys, path16):
        code, report, err = run(
            capsys, ["apc", "witness", "--space", path16, "--scales", "a,b", "--mesh-cap", "1"]
        )
        assert code == 2 and report is None
        assert err.startswith("error:")

    def test_unknown_command_is_usage_error(self, capsys):
        code, report, _ = run(capsys, ["frobnicate"])
        assert code == 2


def _numeric_flags():
    """(command, flag) for every float flag and scale list of every command."""
    return [(name, flag.rstrip("?")) for name, (handler, flags, _) in _COMMANDS.items()
            if handler for flag in flags.split()
            if _FLAGS[flag.rstrip("?")].get("type") in (_float_arg, _scales_arg)]


def _argv_with(command, target, value):
    """The command's required flags with placeholder values, input paths that do
    not exist, and ``value`` at ``target``."""
    placeholders = {_float_arg: "1", _scales_arg: "1", int: "1",
                    _control_arg: '{"type": "linear", "a": 1.0}'}
    argv = command.split()
    for flag in _COMMANDS[command][1].split():
        spec = _FLAGS[flag.rstrip("?")]
        if flag == target:
            argv += [flag, value]
        elif spec.get("required") and not flag.endswith("?"):
            argv += [flag, spec.get("choices", [placeholders.get(spec.get("type"), "in.json")])[0]]
    return argv


class TestNaNIsUsageError:
    @pytest.mark.parametrize("command, flag", _numeric_flags(),
                             ids=[f"{c}:{f}" for c, f in _numeric_flags()])
    def test_nan_in_numeric_flag(self, capsys, command, flag):
        # the flag parser rejects it before any input file is opened
        value = "1,nan" if _FLAGS[flag]["type"] is _scales_arg else "nan"
        code, report, err = run(capsys, _argv_with(command, flag, value))
        assert code == 2 and report is None
        assert err == "error: NaN is not a valid number: 'nan'\n"

    def test_nan_scale_no_longer_certifies(self, capsys, tmp_path, path16, fold5):
        # real inputs on which a NaN scale, once accepted, gives a certified report
        dom, cod, f = fold5
        mu = write(tmp_path, "mu.json", {"weights": [1] * 16})
        for argv in (
            ["msp", "family", "--space", path16, "--measure", mu, "--big-r", "nan", "--big-s", "3"],
            ["apc", "witness", "--space", path16, "--scales", "nan", "--mesh-cap", "1"],
            ["msp", "check", "--domain", dom, "--codomain", cod, "--map", f,
             "--big-r", "nan", "--big-s", "0", "--c", "0.25", "--big-k", "0"],
        ):
            code, report, err = run(capsys, argv)
            assert code == 2 and report is None
            assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["normalize", "push", "pull"])
    def test_nan_scale_in_witness_file(self, capsys, tmp_path, fold5, command):
        # json reads NaN, and no distance is below a NaN scale, so such a
        # witness would validate and certify
        dom, cod, f = fold5
        whole = {"sets": [list(range(11 if command == "push" else 6))]}
        witness = {"scales": [math.nan], "families": [whole]}
        if command == "normalize":
            witness["dims"] = [0]
            argv = ["apc", "normalize", "--space", cod, "--gaps", "1"]
        elif command == "push":
            argv = ["apc", "push", "--domain", dom, "--codomain", cod, "--map", f, "--n", "2",
                    "--control", '{"type": "linear", "a": 1.0}', "--target-scales", "1,2"]
        else:
            argv = ["apc", "pull", "--domain", dom, "--codomain", cod, "--map", f,
                    "--target-scales", "1", "--bound", "10"]
        w = write(tmp_path, "w.json", witness)
        code, report, err = run(capsys, argv + ["--witness", w])
        assert code == 2 and report is None
        assert err.startswith("error:") and "scales must not be NaN" in err

    @pytest.mark.parametrize("weight", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_weight_in_measure_file(self, capsys, tmp_path, path16, weight):
        mu = write(tmp_path, "mu.json", {"weights": [1] * 15 + [weight]})
        code, report, err = run(
            capsys,
            ["msp", "family", "--space", path16, "--measure", mu, "--big-r", "2", "--big-s", "3"],
        )
        assert code == 2 and report is None
        assert err.startswith("error:") and "weights must be finite" in err


class TestCoverCommands:
    @pytest.fixture
    def three_intervals(self, tmp_path):
        sp = write(tmp_path, "sp.json", cloud(0, 20))
        cov = write(
            tmp_path,
            "cov.json",
            {"sets": [list(range(0, 11)), list(range(5, 16)), list(range(10, 21))]},
        )
        return sp, cov

    def test_dim(self, capsys, three_intervals):
        sp, cov = three_intervals
        code, report, _ = run(
            capsys, ["cover", "dim", "--space", sp, "--cover", cov, "--scale", "2"]
        )
        assert code == 0
        assert report["result"]["dim"] == 2
        assert report["result"]["covers_space"] is True

    def test_disjointify(self, capsys, three_intervals):
        sp, cov = three_intervals
        code, report, _ = run(
            capsys, ["cover", "disjointify", "--space", sp, "--cover", cov, "--scale", "2"]
        )
        assert code == 0
        res = report["result"]
        assert res["colors"] == 3
        assert res["output_mesh"] <= res["input_mesh"] + 4.0

    def test_lebesgue(self, capsys, tmp_path):
        sp = write(tmp_path, "sp.json", cloud(0, 9))
        cov = write(tmp_path, "cov.json", {"sets": [list(range(0, 5)), list(range(5, 10))]})
        code, report, _ = run(capsys, ["cover", "lebesgue", "--space", sp, "--cover", cov])
        assert code == 0
        assert report["result"]["lebesgue_number"] == 1.0

    @pytest.mark.parametrize(
        "cover",
        [{"colors": [0]}, {"sets": [["a", "b"]]}, {"sets": [[0, 1.0]]}, {"sets": [[0, True]]}],
        ids=["no-sets", "string-members", "float-member", "bool-member"],
    )
    def test_malformed_cover_is_usage_error(self, capsys, tmp_path, cover):
        sp = write(tmp_path, "sp.json", cloud(0, 9))
        cov = write(tmp_path, "cov.json", cover)
        code, report, err = run(
            capsys, ["cover", "dim", "--space", sp, "--cover", cov, "--scale", "1"]
        )
        assert code == 2 and report is None
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_uncovered_point_is_violation(self, capsys, tmp_path):
        sp = write(tmp_path, "sp.json", cloud(0, 9))
        cov = write(tmp_path, "cov.json", {"sets": [list(range(0, 5))]})
        code, report, _ = run(capsys, ["cover", "lebesgue", "--space", sp, "--cover", cov])
        assert code == 1
        assert report["status"] == "violation"


class TestMapCommands:
    def test_profile(self, capsys, fold5):
        dom, cod, f = fold5
        code, report, _ = run(
            capsys,
            ["map", "profile", "--domain", dom, "--codomain", cod, "--map", f,
             "--r", "2", "--big-r", "3"],
        )
        assert code == 0
        assert report["result"]["max_components"] == 2
        assert report["result"]["max_component_diam"] == 2.0

    def test_factor(self, capsys, fold5):
        dom, cod, f = fold5
        code, report, _ = run(
            capsys,
            ["map", "factor", "--domain", dom, "--codomain", cod, "--map", f, "--big-r", "1"],
        )
        assert code == 0
        assert len(report["result"]["classes"]) == 11

    def test_control_refusal_exits_one(self, capsys, fold5):
        dom, cod, f = fold5
        code, report, _ = run(
            capsys,
            ["map", "control", "--domain", dom, "--codomain", cod, "--map", f,
             "--n", "1", "--c-cap", "5"],
        )
        assert code == 1
        assert report["status"] == "refusal"
        assert report["error"]["proved"] is True

    @pytest.mark.parametrize(
        "control", ['{"type": "linear"}', '{"type": "step", "breakpoints": [[0, "x"]]}',
                    '{"type": "linear", "a": NaN}', '{"type": "linear", "a": 1, "b": Infinity}',
                    '{"type": "step", "breakpoints": [[NaN, 1]]}',
                    '{"type": "step", "breakpoints": [[0, 1], [2, NaN]]}'],
        ids=["missing-field", "bad-value", "nan-a", "inf-b", "nan-radius", "nan-value"],
    )
    def test_malformed_control_is_usage_error(self, capsys, tmp_path, fold5, control):
        dom, cod, f = fold5
        cov = write(tmp_path, "cov.json", {"sets": [list(range(11))]})
        code, report, err = run(
            capsys,
            ["map", "push", "--domain", dom, "--codomain", cod, "--map", f, "--cover", cov,
             "--r", "1", "--n", "2", "--control", control],
        )
        assert code == 2 and report is None
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, flag",
        [(["map", "profile", "--r=-inf", "--big-r", "3"], "r"),
         (["map", "control", "--n", "1", "--c-cap=-inf"], "c_cap")],
        ids=["profile-r", "control-c-cap"],
    )
    def test_infinite_parameter_keeps_the_report_json(self, capsys, fold5, argv, flag):
        dom, cod, f = fold5
        main([*argv[:2], "--domain", dom, "--codomain", cod, "--map", f, *argv[2:]])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["parameters"][flag] == "-inf"

    def test_control_fold(self, capsys, fold5):
        dom, cod, f = fold5
        code, report, _ = run(
            capsys,
            ["map", "control", "--domain", dom, "--codomain", cod, "--map", f, "--n", "2"],
        )
        assert code == 0
        bps = report["result"]["control"]["breakpoints"]
        assert all(r == v for r, v in bps)


class TestTreeCommands:
    def tree_obj(self, scale):
        return {
            "levels": [
                {"sets": [list(range(16))]},
                {"sets": [list(range(0, 7)), list(range(9, 16)), [7, 8]]},
            ],
            "scales": [scale],
            "branching": [2],
            "splits": [[[[0, 1], [2]]]],
            "terminal_mesh": 6.0,
            "union_mode": "equal",
        }

    def test_verify_ok(self, capsys, tmp_path, path16):
        t = write(tmp_path, "t.json", self.tree_obj(2.0))
        code, report, _ = run(
            capsys, ["tree", "verify", "--space", path16, "--tree", t, "--mode", "sfdc"]
        )
        assert code == 0
        assert report["result"]["ok"] is True
        assert report["result"]["bounded_levels"] == [2]

    def test_verify_violation(self, capsys, tmp_path, path16):
        t = write(tmp_path, "t.json", self.tree_obj(4.0))
        code, report, _ = run(
            capsys, ["tree", "verify", "--space", path16, "--tree", t, "--mode", "casdim"]
        )
        assert code == 1
        assert report["status"] == "violation"
        witness = report["error"]["witness"]
        assert witness["violations"][0][2] == "subfamily_not_disjoint"

    def test_cover(self, capsys, tmp_path, path16):
        t = write(tmp_path, "t.json", self.tree_obj(2.0))
        code, report, _ = run(
            capsys, ["tree", "cover", "--space", path16, "--tree", t, "--scale", "2"]
        )
        assert code == 0
        assert report["result"]["family"]["n_colors"] == 2

    @pytest.mark.parametrize("command", [
        ["convert"], ["verify", "--mode", "casdim"], ["cover", "--scale", "2"], ["refine"]],
        ids=lambda c: c[0])
    @pytest.mark.parametrize("field, value", [
        ("scales", ["2.0"]), ("scales", [None]), ("scales", [True]),
        ("branching", [2.5]), ("splits", [[[[0, 1.0], [2]]]]),
        ("scales", [math.nan]), ("scales", [math.inf]), ("terminal_mesh", math.nan),
        ("levels", [{"sets": [list(range(15)) + [15.0]]},
                    {"sets": [list(range(0, 7)), list(range(9, 16)), [7, 8]]}])],
        ids=["string-scale", "null-scale", "bool-scale", "float-branching", "float-index",
             "nan-scale", "inf-scale", "nan-terminal-mesh", "float-member"])
    def test_malformed_tree_is_usage_error(self, capsys, tmp_path, path16, command, field, value):
        t = write(tmp_path, "t.json", {**self.tree_obj(2.0), field: value})
        code, report, err = run(
            capsys, ["tree", command[0], "--space", path16, "--tree", t, *command[1:]]
        )
        assert code == 2
        assert report is None
        assert err.startswith("error:") and "Traceback" not in err


class TestMspCommands:
    @pytest.fixture
    def fold3(self, tmp_path):
        dom = write(tmp_path, "d3.json", cloud(-3, 3))
        cod = write(tmp_path, "c3.json", cloud(0, 3))
        f = write(tmp_path, "m3.json", {"assign": [abs(i) for i in range(-3, 4)]})
        return dom, cod, f

    def test_family(self, capsys, tmp_path):
        sp = write(tmp_path, "sp.json", cloud(0, 9))
        mu = write(tmp_path, "mu.json", {"weights": [1] * 10})
        code, report, _ = run(
            capsys,
            ["msp", "family", "--space", sp, "--measure", mu, "--big-r", "2", "--big-s", "3"],
        )
        assert code == 0
        assert abs(report["result"]["mass_family"]["mass"] - 0.8) < 1e-12

    def test_check_not_achievable(self, capsys, fold3):
        dom, cod, f = fold3
        code, report, _ = run(
            capsys,
            ["msp", "check", "--domain", dom, "--codomain", cod, "--map", f,
             "--big-r", "10", "--big-s", "0", "--c", "0.9", "--big-k", "0"],
        )
        assert code == 1
        assert report["status"] == "violation"
        assert report["error"]["witness"]["worst_value"] == 0.5

    def test_check_achievable(self, capsys, fold3):
        dom, cod, f = fold3
        code, report, _ = run(
            capsys,
            ["msp", "check", "--domain", dom, "--codomain", cod, "--map", f,
             "--big-r", "10", "--big-s", "0", "--c", "0.25", "--big-k", "0"],
        )
        assert code == 0
        assert report["result"]["achievable"] is True

    @pytest.mark.parametrize("points", ["99", "-1", "0,-2"])
    def test_check_set_outside_the_codomain_is_usage_error(self, capsys, fold3, points):
        # 99 once failed with an IndexError, -1 once read point 3 and exited 0
        dom, cod, f = fold3
        code, report, err = run(
            capsys,
            ["msp", "check", "--domain", dom, "--codomain", cod, "--map", f, f"--set={points}",
             "--big-r", "10", "--big-s", "0", "--c", "0.25", "--big-k", "0"],
        )
        assert code == 2 and report is None
        assert "are not points of the owning space" in err

    def test_push(self, capsys, tmp_path):
        dom = write(tmp_path, "d9.json", cloud(-9, 9))
        cod = write(tmp_path, "c9.json", cloud(0, 9))
        f = write(tmp_path, "m9.json", {"assign": [abs(i) for i in range(-9, 10)]})
        mu = write(tmp_path, "mu9.json", {"weights": [1] * 10})
        code, report, _ = run(
            capsys,
            ["msp", "push", "--domain", dom, "--codomain", cod, "--map", f,
             "--measure", mu, "--n", "2",
             "--control", '{"type": "linear", "a": 1.0}', "--big-r", "1"],
        )
        assert code == 0
        assert report["result"]["mass_family"]["mass"] >= 0.25


class TestSuiteCommand:
    def test_alias_runs(self, capsys):
        code, report, _ = run(
            capsys, ["suite", "--name", "lemma-disjointify", "--seed", "7", "--count", "3"]
        )
        assert code == 0
        assert report["result"]["suite"] == "disjointify"
        assert report["result"]["failures"] == []

    def test_unknown_suite(self, capsys):
        code, report, err = run(capsys, ["suite", "--name", "nope", "--seed", "1"])
        assert code == 2 and report is None


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys, tmp_path, path16):
        cov = write(tmp_path, "cov.json", {"sets": [list(range(0, 9)), list(range(7, 16))]})
        argv = ["cover", "dim", "--space", path16, "--cover", cov, "--scale", "2"]
        code1, _, _ = run(capsys, argv)
        out1 = (tmp_path / "r1.json")
        out2 = (tmp_path / "r2.json")
        assert main(["--output", str(out1)] + argv) == 0
        assert main(["--output", str(out2)] + argv) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timing_goes_to_stderr_only(self, capsys, tmp_path, path16):
        cov = write(tmp_path, "cov.json", {"sets": [list(range(16))]})
        argv = ["cover", "dim", "--space", path16, "--cover", cov, "--scale", "2"]
        code, report1, err = run(capsys, ["--timing"] + argv)
        assert code == 0 and "elapsed:" in err
        code, report2, err = run(capsys, argv)
        assert err == ""
        assert report1 == report2

    def test_output_into_missing_directory_is_usage_error(self, capsys, tmp_path, path16):
        target = tmp_path / "missing" / "r.json"
        code, report, err = run(capsys, ["--output", str(target), "space", "--space", path16])
        assert code == 2 and report is None
        assert err.startswith(f"error: cannot write {target}:")
        assert "Traceback" not in err

    def test_parameters_exclude_io_flags(self, capsys, tmp_path, path16):
        cov = write(tmp_path, "cov.json", {"sets": [list(range(16))]})
        _, report, _ = run(
            capsys, ["cover", "dim", "--space", path16, "--cover", cov, "--scale", "2"]
        )
        assert "output" not in report["parameters"]
        assert "timing" not in report["parameters"]


def test_apc_pull_tie_at_the_control_value_exits_one(capsys, tmp_path):
    # E(2) = 1 on the two-point path: {0}, {1} is E(2)-disjoint, yet its
    # preimages are 1 apart, which pullback_family's re-check reports
    sp = write(tmp_path, "sp.json", cloud(0, 1))
    f = write(tmp_path, "f.json", {"assign": [0, 1]})
    w = write(tmp_path, "w.json", {"scales": [2.0], "families": [{"sets": [[0], [1]]}]})
    code, report, _ = run(
        capsys,
        ["apc", "pull", "--domain", sp, "--codomain", sp, "--map", f, "--witness", w,
         "--target-scales", "2", "--bound", "10"],
    )
    assert code == 1 and report["status"] == "violation"
    assert report["error"]["type"] == "CertificateError"
    assert "tie at the control value" in report["error"]["message"]
