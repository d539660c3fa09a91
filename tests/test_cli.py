import json

import numpy as np
import pytest

from jordanperturb.cli import canonical_json, main, matrix_to_json

from conftest import failing_zgees
from known_cases import example1_pair, theta2_zero_pair

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_PRECONDITION, EXIT_PARSE = 0, 1, 2, 3


def write_example1(path):
    doc = {"lambda0": [0.0, 0.0], "sizes": [0, 0, 0, 1], "d11": matrix_to_json(example1_pair().d11)}
    path.write_text(canonical_json(doc), encoding="utf-8")
    return path


@pytest.fixture
def example1_file(tmp_path):
    return write_example1(tmp_path / "example1.json")


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        args = ["generate", "--sizes", "1,1", "--seed", "7", "--out"]
        assert main(args + [str(f1)]) == EXIT_OK
        assert main(args + [str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_byte_identical(self, tmp_path):
        f1 = tmp_path / "a.json"
        main(["generate", "--sizes", "2,1", "--seed", "3", "--out", str(f1)])
        doc = json.loads(f1.read_text())
        assert canonical_json(doc).encode() == f1.read_bytes()

    def test_scale_zero_topology(self, tmp_path):
        f1 = tmp_path / "z.json"
        assert main(
            ["generate", "--sizes", "0,0,0,1", "--seed", "0", "--scale", "0", "--out", str(f1)]
        ) == EXIT_OK
        doc = json.loads(f1.read_text())
        assert doc["sizes"] == [0, 0, 0, 1]
        assert np.all(np.asarray(doc["d11"], dtype=float) == 0.0)

    def test_generated_analyzes_cleanly(self, tmp_path, capsys):
        f1 = tmp_path / "g.json"
        main(["generate", "--sizes", "2,1,1", "--seed", "3", "--out", str(f1)])
        capsys.readouterr()
        assert main(["analyze", str(f1)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k = 3" in out and "generic: True" in out


class TestAnalyze:
    def test_example1(self, example1_file, capsys):
        assert main(["analyze", str(example1_file), "--rho", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generic: True" in out
        assert "rho = 4" in out

    def test_zero_d11_exit_2(self, tmp_path, capsys):
        doc = {
            "lambda0": [0.0, 0.0],
            "sizes": [0, 1],
            "d11": matrix_to_json(np.zeros((2, 2))),
        }
        f = tmp_path / "zero.json"
        f.write_text(canonical_json(doc))
        assert main(["analyze", str(f)]) == EXIT_PRECONDITION

    def test_parse_error_exit_3(self, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("{not json")
        assert main(["analyze", str(f)]) == EXIT_PARSE

    def test_nan_rejected(self, tmp_path):
        f = tmp_path / "nan.json"
        f.write_text('{"lambda0": [0.0, 0.0], "sizes": [1], "d11": [[[NaN, 0.0]]]}')
        assert main(["analyze", str(f)]) == EXIT_PARSE

    def test_both_forms_rejected(self, tmp_path):
        doc = {
            "lambda0": [0.0, 0.0],
            "sizes": [1],
            "d11": [[[1.0, 0.0]]],
            "a": [[[0.0, 0.0]]],
            "d": [[[0.0, 0.0]]],
            "xi": [[[1.0, 0.0]]],
            "xi_c": [],
            "a22": [],
        }
        f = tmp_path / "both.json"
        f.write_text(json.dumps(doc))
        assert main(["analyze", str(f)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("lambda0", [True, False], "lambda0 has non-numeric entries"),
            ("sizes", [True, 1], "sizes must be a list of nonnegative integers"),
            ("d11", [[[1.0, 0.0], [0.0, 0.0]], [[True, 0.0], [0.5, 0.0]]], "d11 entry has non-numeric entries"),
        ],
        ids=["lambda0", "sizes", "d11"],
    )
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, field, value, message):
        # true and false are JSON booleans, not the numbers 1 and 0
        doc = {"lambda0": [0.0, 0.0], "sizes": [0, 1], "d11": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]]}
        doc[field] = value
        f = tmp_path / "bool.json"
        f.write_text(json.dumps(doc))
        assert main(["analyze", str(f)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_integer_beyond_double_range_exit_3(self, tmp_path, capsys):
        f = tmp_path / "big.json"
        f.write_text('{"lambda0": [1' + "0" * 400 + ', 0], "sizes": [1], "d11": [[[1.0, 0.0]]]}')
        assert main(["analyze", str(f)]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: lambda0 must be finite\n"

    def test_large_scale_rho1_exit_0(self, tmp_path, capsys):
        # at --scale 1e9 the pair is generic by the relative test of
        # check_generic, and Lambda(S_rho) is printed at every rho
        f = tmp_path / "big.json"
        assert main(["generate", "--sizes", "1,2", "--seed", "1", "--scale", "1e9", "--out", str(f)]) == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", str(f)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generic: True" in out and "singular" not in out
        assert "rho = 1: Lambda(S_rho) = [" in out and "rho = 2: Lambda(S_rho) = [" in out

    def test_empty_d11_exit_3(self, tmp_path, capsys):
        # [] is the 0x0 matrix, so a d11 of the wrong shape is a parse error
        f = tmp_path / "empty.json"
        f.write_text('{"lambda0": [0.0, 0.0], "sizes": [1], "d11": []}')
        assert main(["analyze", str(f)]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: d11 must be 1x1, got (0, 0)\n"


class TestExpand:
    def test_example1_order1_golden(self, example1_file, tmp_path):
        out = tmp_path / "exp.json"
        code = main(
            [
                "expand", str(example1_file),
                "--rho", "4", "--cluster", "idx:0", "--root", "1",
                "--order", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        h0 = np.array(doc["h0"])[:, :, 0] + 1j * np.array(doc["h0"])[:, :, 1]
        h1 = np.array(doc["h1"])[:, :, 0] + 1j * np.array(doc["h1"])[:, :, 1]
        assert np.allclose(h0.ravel(), [1, 0, 0, 0])
        assert np.allclose(h1.ravel(), [0, 1, 0, 0], atol=1e-12)
        d11 = np.array(doc["delta11"])
        assert np.allclose(d11, 0.0, atol=1e-13)
        assert "order_table" in doc and len(doc["order_table"]) == 4

    def test_order0_omits_delta11(self, example1_file, capsys):
        assert main(
            ["expand", str(example1_file), "--rho", "4", "--cluster", "idx:0", "--order", "0"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "delta11" not in doc and "h1" not in doc
        assert "h0" in doc and "omega" in doc

    def test_value_cluster_spec(self, example1_file, capsys):
        assert main(
            [
                "expand", str(example1_file),
                "--rho", "4", "--cluster", "val:1,0:0.5", "--order", "0",
            ]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert np.array(doc["q1"]).shape == (1, 1, 2)

    def test_bad_cluster_spec(self, example1_file):
        assert main(
            ["expand", str(example1_file), "--rho", "4", "--cluster", "nope"]
        ) == EXIT_PARSE

    @pytest.mark.parametrize(
        "spec",
        ["val:nan,0:1", "val:0,inf:1", "val:0,0:nan", "val:0,0:inf", "val:0,0:-1", "val:1e3,0:1"],
        ids=["re_nan", "im_inf", "radius_nan", "radius_inf", "radius_negative", "no_cluster"],
    )
    def test_value_spec_rejected_exit_3(self, tmp_path, capsys, spec):
        # a non-finite value, a negative or infinite radius, or a value near
        # no cluster is a parse error naming the spec, not an empty expansion
        f = tmp_path / "mix.json"
        assert main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)]) == EXIT_OK
        capsys.readouterr()
        for order in ("0", "1"):
            argv = ["expand", str(f), "--rho", "2", "--cluster", spec, "--order", order]
            assert main(argv) == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("parse error:") and repr(spec) in err and err.count("\n") == 1

    def test_index_names_one_cluster(self, tmp_path, capsys):
        # S_1 = diag(1e-3, 1e-3 + 5e-7) has two clusters within 1e-6 of each
        # other; idx:0 selects the first alone, a 1 x 1 Omega
        f = tmp_path / "close.json"
        doc = {"lambda0": [0.0, 0.0], "sizes": [2], "d11": matrix_to_json(np.diag([1e-3, 1e-3 + 5e-7]))}
        f.write_text(canonical_json(doc), encoding="utf-8")
        for idx, gamma in ((0, 1e-3), (1, 1e-3 + 5e-7)):
            assert main(["expand", str(f), "--rho", "1", "--cluster", f"idx:{idx}", "--order", "0"]) == EXIT_OK
            omega = np.array(json.loads(capsys.readouterr().out)["omega"])
            assert omega.shape == (1, 1, 2) and omega[0, 0, 0] == pytest.approx(gamma, rel=1e-12)

    def test_two_block_mixed_full_json(self, tmp_path):
        f = tmp_path / "mix.json"
        main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)])
        out = tmp_path / "exp.json"
        code = main(
            [
                "expand", str(f), "--rho", "2", "--cluster", "idx:0",
                "--order", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        for key in ("omega", "q1", "h0", "h1", "delta11", "y", "c_hat", "order_table"):
            assert key in doc
        assert len(doc["order_table"]) == 3  # (1,1), (2,1), (2,2)
        assert np.array(doc["h0"]).shape == (5, 1, 2)


class TestVerify:
    def test_example1_passes(self, example1_file, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        code = main(
            [
                "verify", str(example1_file), "--rho", "4",
                "--out-json", str(out_json), "--out-csv", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        reports = json.loads(out_json.read_text())
        assert reports and all(r["passed"] for r in reports)
        import csv

        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "t", "error"]
        assert len(rows) > 10
        assert all(len(row) == 3 for row in rows[1:])
        for row in rows[1:]:
            float(row[1]), float(row[2])  # numeric columns parse

    def test_schur_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a QR failure in the Schur form (zgees info > 0) is NoConvergence:
        # exit 2 with an error line, no traceback and no reports
        from jordanperturb import core_linalg as cl

        f = tmp_path / "case.json"
        main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)])
        capsys.readouterr()
        monkeypatch.setattr(cl._lapack(), "zgees", failing_zgees)
        assert main(["verify", str(f)]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == "error: Schur form did not converge (zgees info 1)\n"

    def test_negative_control_fails(self, tmp_path):
        f = tmp_path / "case.json"
        main(["generate", "--sizes", "0,2", "--seed", "2", "--out", str(f)])
        assert main(["verify", str(f), "--rho", "2", "--perturb-h1", "1e-3"]) == EXIT_VERIFY_FAIL

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_non_finite_sample_written_as_null(self, tmp_path):
        # --perturb-h1 1e300 makes the residual samples overflow (numpy warns
        # of it in the norm): both files are written and parse, with null and
        # an empty field for each non-finite error, and the run fails
        # verification (exit 1)
        f, out_json, out_csv = tmp_path / "case.json", tmp_path / "r.json", tmp_path / "s.csv"
        main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)])
        code = main(
            [
                "verify", str(f), "--rho", "2", "--perturb-h1", "1e300",
                "--out-json", str(out_json), "--out-csv", str(out_csv),
            ]
        )
        assert code == EXIT_VERIFY_FAIL
        reports = json.loads(out_json.read_text())
        bad = [r for r in reports if any(e is None for _, e in r["samples"])]
        assert bad and all(not r["passed"] and r["fitted_slope"] is None for r in bad)
        import csv

        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "t", "error"]
        assert len(rows) - 1 == sum(len(r["samples"]) for r in reports)
        for row, (rep, (t, e)) in zip(rows[1:], [(r, s) for r in reports for s in r["samples"]]):
            assert row[0] == rep["quantity"] and float(row[1]) == t
            assert row[2] == "" if e is None else float(row[2]) == e

    def test_theta2_zero_verifies(self, tmp_path, capsys):
        # at rho = 2 the coupling series of this pair has Theta_2 = 0: the
        # Riccati window is read from Theta_3 and Theta_4, and every claim at
        # both rho passes, with no traceback
        doc = {"lambda0": [0.0, 0.0], "sizes": [1, 1], "d11": matrix_to_json(theta2_zero_pair().d11)}
        f = tmp_path / "theta2.json"
        f.write_text(canonical_json(doc))
        assert main(["verify", str(f)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "riccati-delta[rho=1]" in out and "riccati-delta[rho=2]" in out and "FAIL" not in out

    def test_two_block_default_all_rhos(self, tmp_path):
        f = tmp_path / "mix.json"
        main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)])
        assert main(["verify", str(f)]) == EXIT_OK


def general_doc(d_rows=None, d_cols=None):
    """A general-form problem, sizes (1, 1) and n = 5, with D cut to its
    leading d_rows x d_cols block."""
    from jordanperturb import JordanStructure, build_nilpotent

    st = JordanStructure(0.0, (1, 1))
    rng = np.random.default_rng(5)
    m, n = st.dim, st.dim + 2
    a11 = build_nilpotent(st)
    a22 = np.diag([3.0 + 0j, -2.0 + 1j])
    t = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    import scipy.linalg as la

    a = t @ la.block_diag(a11, a22) @ t.conj().T
    d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return {
        "lambda0": [0.0, 0.0],
        "sizes": [1, 1],
        "a": matrix_to_json(a),
        "d": matrix_to_json(d[:d_rows, :d_cols]),
        "xi": matrix_to_json(t[:, :m]),
        "xi_c": matrix_to_json(t[:, m:]),
        "a22": matrix_to_json(a22),
    }


class TestGeneralFormProblem:
    def test_general_reduces_and_analyzes(self, tmp_path, capsys):
        f = tmp_path / "general.json"
        f.write_text(canonical_json(general_doc()))
        assert main(["analyze", str(f)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rho = 1" in out and "rho = 2" in out

    @pytest.mark.parametrize("command", [["analyze"], ["verify"], ["expand", "--rho", "1", "--cluster", "idx:0"]],
                             ids=["analyze", "verify", "expand"])
    @pytest.mark.parametrize("cut", [(5, 4), (4, 5)], ids=["5x4", "4x5"])
    def test_d_of_wrong_shape_exit_2(self, tmp_path, capsys, command, cut):
        # a d that does not match the transformation is a precondition
        # failure naming d, not a traceback with the verification-failure code
        f = tmp_path / "general.json"
        f.write_text(canonical_json(general_doc(*cut)))
        assert main([command[0], str(f), *command[1:]]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == "precondition failed: d must be 5x5 to match the transformation\n"

    def test_jordan_block_fills_space(self, tmp_path, capsys):
        # n = m: Xi is square, Xi_c has no columns and A22 is the 0x0 matrix []
        from jordanperturb import JordanStructure, build_nilpotent

        st = JordanStructure(0.2 + 0.1j, (1, 2))
        rng = np.random.default_rng(3)
        m = st.dim
        t = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        a = t @ (st.lambda0 * np.eye(m) + build_nilpotent(st)) @ t.conj().T
        d = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        doc = {
            "lambda0": [0.2, 0.1],
            "sizes": [1, 2],
            "a": matrix_to_json(a),
            "d": matrix_to_json(d),
            "xi": matrix_to_json(t),
            "xi_c": matrix_to_json(np.zeros((m, 0))),
            "a22": matrix_to_json(np.zeros((0, 0))),
        }
        f = tmp_path / "filled.json"
        f.write_text(canonical_json(doc))
        assert '"a22":[]' in f.read_text()
        assert main(["analyze", str(f)]) == EXIT_OK
        assert main(["verify", str(f)]) == EXIT_OK
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "{f}", "--rho", "2", "--cluster", "idx:0", "--root", "5"],
        ["expand", "{f}", "--rho", "2", "--cluster", "idx:0", "--root", "-1"],
        ["expand", "{f}", "--rho", "7", "--cluster", "idx:0"],
        ["verify", "{f}", "--rho", "7"],
        ["verify", "{f}", "--rho", "0"],
        ["analyze", "{f}", "--rho", "0"],
        ["generate", "--sizes", "1,x", "--out", "{f}"],
        ["generate", "--sizes", "1,0", "--out", "{f}"],
        ["verify", "{f}", "--swap-root"],
        ["verify", "{f}", "--rho", "1", "--swap-root"],
        ["verify", "{f}", "--rho", "2", "--perturb-h1", "nan"],
        # usage errors that argparse finds
        ["verify", "{f}", "--rho", "abc"],
        ["expand", "{f}", "--rho", "2", "--cluster", "idx:0", "--order", "2"],
        ["verify", "{f}", "--bogus"],
        ["expand", "{f}", "--rho", "2"],
        [],
        # the oracle t-sweep is fixed in code: its former options are unknown
        ["verify", "{f}", "--tmax", "1e-9"],
        ["verify", "{f}", "--points", "4"],
        ["verify", "{f}", "--tmax", "nan"],
        ["verify", "{f}", "--tmax", "inf"],
        ["verify", "{f}", "--tmin", "nan"],
        ["verify", "{f}", "--tmin", "inf"],
    ],
    ids=["root_5", "root_-1", "expand_rho_7", "verify_rho_7", "verify_rho_0", "analyze_rho_0", "sizes_x", "sizes_0",
         "swap_root_all_rhos", "swap_root_rho_1", "perturb_h1_nan", "rho_abc", "order_2", "unknown_flag",
         "missing_cluster", "no_command", "tmax", "points_4", "tmax_nan", "tmax_inf", "tmin_nan", "tmin_inf"],
)
def test_bad_argument_value_exit_3(tmp_path, capsys, argv):
    # a value the library rejects, or a usage error, is a parse error (one
    # line, exit 3), not a traceback, a usage block or argparse's exit 2
    f = tmp_path / "p.json"
    assert main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(f)]) == EXIT_OK
    capsys.readouterr()
    assert main([a.format(f=f) for a in argv]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    if {"--tmin", "--tmax", "--points"} & set(argv):
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["help", "verify_help"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize(
    "flag, value",
    [("--scale", "nan"), ("--scale", "inf"), ("--seed", "-1"), ("--seed", str(2**128)), ("--lambda0", "nan,0")],
    ids=["scale_nan", "scale_inf", "seed_negative", "seed_2_128", "lambda0_nan"],
)
def test_generate_bad_argument_named(tmp_path, capsys, flag, value):
    # each value makes no case (a non-finite D11 or lambda0, no Philox key):
    # a one-line parse error naming the argument, exit 3, and no file
    f = tmp_path / "p.json"
    assert main(["generate", "--sizes", "1,2", flag, value, "--out", str(f)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {flag} {value} ") and err.count("\n") == 1
    assert not f.exists()


@pytest.mark.parametrize(
    "command", [["verify", "--rho", "2"], ["expand", "--rho", "2", "--cluster", "idx:0"]], ids=["verify", "expand"]
)
def test_rho_without_splitting_exit_3(tmp_path, capsys, command):
    # sizes 1,0,1 has s_2 = 0: rho = 2 splits no eigenvalue, which is a parse
    # error naming the valid orders (verify used to raise UnboundLocalError)
    f = tmp_path / "p.json"
    assert main(["generate", "--sizes", "1,0,1", "--seed", "1", "--out", str(f)]) == EXIT_OK
    capsys.readouterr()
    assert main([command[0], str(f), *command[1:]]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error: --rho 2 ") and err.count("\n") == 1
    assert err.rstrip().endswith("valid orders: 1, 3")
    assert main(["verify", str(f)]) == EXIT_OK  # rho = 1 and 3 only


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--sizes", "1,2", "--seed", "1", "--out", "{out}"],
        ["expand", "{f}", "--rho", "4", "--cluster", "idx:0", "--out", "{out}"],
        ["verify", "{f}", "--rho", "4", "--out-json", "{out}"],
        ["verify", "{f}", "--rho", "4", "--out-csv", "{out}"],
    ],
    ids=["generate_out", "expand_out", "verify_out_json", "verify_out_csv"],
)
def test_unwritable_output_exit_3(example1_file, tmp_path, capsys, argv):
    # an output path in a missing directory is a one-line parse error naming
    # the path (exit 3), as an unreadable input file is, not a traceback
    # with the verification-failure exit code; verify prints its reports first
    out = tmp_path / "missing" / "x"
    assert main([a.format(f=example1_file, out=out) for a in argv]) == EXIT_PARSE
    stdout, err = capsys.readouterr()
    assert err.startswith(f"parse error: cannot write {out}: ") and err.count("\n") == 1
    assert ("subspace-resid[rho=4,cluster=0]" in stdout) == (argv[0] == "verify")
    assert not out.parent.exists()


@pytest.fixture
def singular_s11_file(tmp_path):
    """sizes (2,), D11 = diag(0, 1): W_1 = S_1 is singular, and the cluster
    gamma = 0 of S_1 has no rho-th root."""
    doc = {"lambda0": [0.0, 0.0], "sizes": [2], "d11": matrix_to_json(np.diag([0.0, 1.0]))}
    f = tmp_path / "singular.json"
    f.write_text(canonical_json(doc))
    return f


def test_singular_s11_exit_2(singular_s11_file, capsys):
    # a non-generic pair: analyze says so, and no branch basis is formed, so
    # every expansion of it, even an order-0 one of the cluster gamma = 1
    # that has a root, is a precondition failure
    f = str(singular_s11_file)
    assert main(["analyze", f]) == EXIT_PRECONDITION
    assert "generic: False" in capsys.readouterr().out
    message = "precondition failed: S11 is numerically singular; no invertible rho-th root\n"
    for argv in (
        ["expand", f, "--rho", "1", "--cluster", "idx:1", "--order", "0"],
        ["expand", f, "--rho", "1", "--cluster", "idx:1", "--order", "1"],
        ["verify", f],
    ):
        assert main(argv) == EXIT_PRECONDITION
        assert capsys.readouterr() == ("", message)
