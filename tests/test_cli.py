"""Command-line surface: outputs, validation, and determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import satake_st
import satake_st.cli as cli_module
from satake_st.bounds import verify_multiplicity_bound
from satake_st.cli import cli
from satake_st.families import synth_family, save_family, family_to_dict


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["decompose", "--n", "3", "--spec", "1,1,0,0"], "cli-decompose-n3.csv"),
        (["decompose", "--n", "6", "--spec", "4,4,0,0,0,0,0,0,0,0"], "cli-decompose-n6.csv"),
        (["decompose", "--n", "2", "--spec", "70,60"], "cli-decompose-n2-d130.csv"),
        (
            ["bound", "--verify", "--p", "2,3,5", "--alpha", "0.109375,0.5,1.6666666667", "--max-degree", "4"],
            "cli-bound-verify.csv",
        ),
        (["bound", "--verify", "--p", "2,7", "--alpha", "0.5", "--max-degree", "6"], "cli-bound-verify-d6.csv"),
        (["bound", "--rate", "--p", "2", "--spec", "1,0,0,0", "--t-grid", "10,100,1000"], "cli-bound-rate.csv"),
    ],
)
def test_exact_layer_stdout_is_pinned(runner, argv, name):
    """The README's exact-layer lines, a degree-130 decomposition (two-byte Pieri fields) and a degree-6 sweep
    print the bytes in tests/data (CI compares the module's stdout on the README lines too)."""
    result = runner.invoke(cli, argv)
    assert result.exit_code == 0
    with open(os.path.join(DATA, name), "rb") as fh:
        assert result.stdout_bytes == fh.read()


class TestDecompose:
    def test_defining_times_conjugate(self, runner):
        result = runner.invoke(cli, ["decompose", "--n", "3", "--spec", "1,1,0,0"])
        assert result.exit_code == 0
        rows = read_csv(result.output)
        body = {r["mu"]: int(r["multiplicity"]) for r in rows if r["mu"] != "checksum"}
        assert body == {"2 1 0": 1, "0 0 0": 1}
        assert int(rows[-1]["dim"]) == 9

    def test_trivial_spec(self, runner):
        result = runner.invoke(cli, ["decompose", "--n", "2", "--spec", "0,0"])
        rows = read_csv(result.output)
        assert {r["mu"]: r["multiplicity"] for r in rows if r["mu"] != "checksum"} == {"0 0": "1"}
        assert int(rows[-1]["dim"]) == 1

    def test_defining_cubed(self, runner):
        result = runner.invoke(cli, ["decompose", "--n", "3", "--spec", "3,0,0,0", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["checksum"] == 27
        got = {r["mu"]: r["multiplicity"] for r in doc["rows"] if r["mu"] != "checksum"}
        assert got == {"3 0 0": 1, "2 1 0": 2, "0 0 0": 1}

    def test_bad_spec_length(self, runner):
        result = runner.invoke(cli, ["decompose", "--n", "3", "--spec", "1,1"])
        assert result.exit_code != 0
        err = json.loads(result.stderr)
        assert "error" in err

    def test_budget_guard(self, runner):
        result = runner.invoke(
            cli, ["decompose", "--n", "4", "--spec", "4,4,4,4,4,4", "--budget", "1000"]
        )
        assert result.exit_code != 0
        assert json.loads(result.stderr)["error"]["type"] == "TermBudgetExceeded"

    def test_budget_floor_enforced(self, runner):
        result = runner.invoke(cli, ["decompose", "--n", "3", "--spec", "1,0,0,0", "--budget", "10"])
        assert result.exit_code != 0


class TestMoment:
    def test_zero_spec_exact(self, runner):
        result = runner.invoke(cli, ["moment", "--n", "2", "--spec", "0,0", "--m", "100"])
        row = read_csv(result.output)[0]
        assert row["oracle"] == "1"
        assert float(row["mean_re"]) == 1.0
        assert float(row["std_error"]) == 0.0

    def test_small_moment_matches(self, runner):
        result = runner.invoke(
            cli, ["moment", "--n", "3", "--spec", "1,1,0,0", "--m", "20000", "--seed", "7"]
        )
        row = read_csv(result.output)[0]
        assert row["oracle"] == "1"
        assert abs(float(row["z"])) < 5


class TestSample:
    def test_semicircle_column(self, runner):
        result = runner.invoke(cli, ["sample", "--n", "2", "--m", "5000", "--bins", "20"])
        rows = read_csv(result.output)
        assert len(rows) == 20
        assert "semicircle" in rows[0]
        total = sum(int(r["count"]) for r in rows)
        assert total == 5000

    def test_higher_rank_drops_density_column(self, runner):
        result = runner.invoke(cli, ["sample", "--n", "3", "--m", "2000", "--bins", "10"])
        rows = read_csv(result.output)
        assert "semicircle" not in rows[0]


class TestEquidist:
    def test_synthetic_run(self, runner):
        result = runner.invoke(
            cli,
            ["equidist", "--n", "3", "--p", "2", "--synth-size", "500",
             "--max-degree", "1", "--t-grid", "50", "--seed", "3"],
        )
        assert result.exit_code == 0
        rows = read_csv(result.output)
        assert len(rows) == 5  # degree <= 1 exponent tuples over 4 slots
        zero = [r for r in rows if r["spec"] == "0,0,0,0"][0]
        assert float(zero["abs_diff"]) == 0.0
        assert all(r["gl3_error_bound"] != "" for r in rows)

    def test_ess_is_the_last_column(self, runner):
        args = ["equidist", "--n", "3", "--p", "2", "--synth-size", "200", "--max-degree", "1", "--t-grid", "10,1000"]
        lines = runner.invoke(cli, args).output.splitlines()
        assert lines[0].endswith(",gl3_error_bound,ess")
        rows = json.loads(runner.invoke(cli, args + ["--format", "json"]).output)["rows"]
        assert list(rows[0])[-1] == "ess"
        # at T = 1000 every Gaussian weight is about 1 / L(1, Ad): the ESS is near, and at most, m
        assert all(1.0 <= r["ess"] <= 200.0 for r in rows)

    def test_requires_exactly_one_source(self, runner):
        result = runner.invoke(cli, ["equidist", "--n", "3", "--p", "2"])
        assert result.exit_code != 0

    def test_family_file_input(self, runner, tmp_path):
        fam = synth_family(3, 30, primes=(2,), seed=4)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        result = runner.invoke(
            cli,
            ["equidist", "--n", "3", "--p", "2", "--family", str(path),
             "--max-degree", "1", "--t-grid", "10"],
        )
        assert result.exit_code == 0

    def test_error_bound_column_is_pinned_for_n3(self, runner):
        """The column is bound --rate's envelope, pure float math; the pinned values were printed before it moved there."""
        args = ["equidist", "--n", "3", "--p", "2", "--synth-size", "50", "--max-degree", "2", "--t-grid", "10,100"]
        result = runner.invoke(cli, args + ["--format", "json"])
        assert result.exit_code == 0
        with open(os.path.join(DATA, "cli-equidist-gl3-bound.json")) as fh:
            assert [r["gl3_error_bound"] for r in json.loads(result.output)["rows"]] == json.load(fh)

    @pytest.mark.parametrize("n", [2, 4])
    def test_no_error_bound_column_for_other_ranks(self, runner, n):
        args = ["equidist", "--n", str(n), "--p", "2", "--synth-size", "50", "--max-degree", "1", "--t-grid", "10,100"]
        rows = read_csv(runner.invoke(cli, args).output)
        assert rows and all(r["gl3_error_bound"] == "" for r in rows)


class TestBound:
    def test_verify_header_and_exit(self, runner):
        result = runner.invoke(
            cli,
            ["bound", "--verify", "--p", "2,3,5", "--alpha", "0.109375,0.5,1.6666666667",
             "--max-degree", "2"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "i1,i1p,i2,i2p,p,alpha,exact,bound"
        rows = read_csv(result.output)
        assert all(float(r["exact"]) <= float(r["bound"]) for r in rows)

    def test_verify_prints_the_per_pair_rows(self, runner):
        args = ["bound", "--verify", "--p", "2,3", "--alpha", "0.109375,1.6666666667", "--max-degree", "3"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        want = [
            ",".join(map(str, (*r.exponents, p, alpha, r.exact_sum, r.closed_bound)))
            for p in (2, 3)
            for alpha in (0.109375, 1.6666666667)
            for r in verify_multiplicity_bound(p, alpha, 3)
        ]
        assert result.output.splitlines()[1:] == want

    def test_rate_header(self, runner):
        result = runner.invoke(
            cli, ["bound", "--rate", "--p", "2", "--spec", "1,0,0,0", "--t-grid", "10,100"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "T,envelope"
        assert len(lines) == 3

    def test_rate_defaults_to_one_prime(self, runner):
        assert runner.invoke(cli, ["bound", "--rate"]).output == runner.invoke(cli, ["bound", "--rate", "--p", "2"]).output

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--verify", "--max-degree", "1", "--theta", "99"], "--theta"),
            (["--verify", "--max-degree", "1", "--eps", "-1"], "--eps"),
            (["--verify", "--max-degree", "1", "--spec", "9"], "--spec"),
            (["--verify", "--max-degree", "1", "--t-grid", "0"], "--t-grid"),
            (["--rate", "--alpha", "nan"], "--alpha"),
            (["--rate", "--alpha", "300"], "--alpha"),
            (["--rate", "--max-degree", "40"], "--max-degree"),
        ],
    )
    def test_a_flag_the_mode_does_not_read_is_an_error(self, runner, args, flag):
        result = runner.invoke(cli, ["bound", *args], catch_exceptions=False)
        assert result.exit_code == 2 and result.stdout == ""
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "UsageError" and err["message"] == f"bound {args[0]} does not read {flag}"

    def test_an_unread_flag_from_the_environment_is_an_error(self, runner):
        result = runner.invoke(
            cli, ["bound", "--max-degree", "1"], env={"SATAKE_ST_BOUND_THETA": "99"}, auto_envvar_prefix="SATAKE_ST",
        )
        assert result.exit_code == 2 and "does not read --theta" in json.loads(result.stderr)["error"]["message"]

    def test_rate_takes_one_prime(self, runner):
        result = runner.invoke(cli, ["bound", "--rate", "--p", "2,3"], catch_exceptions=False)
        assert result.exit_code == 2 and result.stdout == ""
        assert json.loads(result.stderr)["error"]["message"] == "bound --rate takes one prime, got '2,3'"


class TestHecke:
    def test_sweep_passes(self, runner):
        result = runner.invoke(cli, ["hecke", "--n", "3", "--m", "2000", "--seed", "5"])
        assert result.exit_code == 0
        rows = read_csv(result.output)
        assert {r["domain"] for r in rows} == {"T0", "T1"}
        assert all(float(r["max_residual"]) < 1e-10 for r in rows)

    def test_rejects_other_rank(self, runner):
        result = runner.invoke(cli, ["hecke", "--n", "4"])
        assert result.exit_code != 0


@pytest.mark.parametrize(
    "args, text",
    [
        (["bound", "--verify", "--p", "2,2", "--alpha", "0.5,0.5", "--max-degree", "0"], "2 is repeated in '2,2'"),
        (["hecke", "--n", "3", "--m", "4", "--p", "3,5,3"], "3 is repeated in '3,5,3'"),
    ],
)
def test_a_repeated_prime_is_an_error(runner, args, text):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["message"] == f"primes must be distinct: {text}"


class TestIngest:
    def test_valid_family(self, runner, tmp_path):
        fam = synth_family(3, 12, primes=(2, 3), seed=6)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 0
        row = read_csv(result.output)[0]
        assert row["members"] == "12" and row["primes"] == "2 3"

    def test_rejects_bad_family_with_error_object(self, runner, tmp_path):
        fam = synth_family(3, 2, primes=(2,), seed=7)
        doc = family_to_dict(fam)
        doc["members"][0]["coefficients"] = {"0,1": [123.0, 0.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code != 0
        err = json.loads(result.stderr)
        assert err["error"]["type"] == "FamilyValidationError"
        assert "residual" in err["error"]["message"]


class TestDeterminism:
    def test_moment_outputs_identical(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["moment", "--n", "2", "--spec", "1,1", "--m", "5000", "--seed", "21"]
        assert runner.invoke(cli, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(cli, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_blas_thread_count_does_not_change_moment_bytes(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(satake_st.__file__)))
        args = [sys.executable, "-m", "satake_st.cli", "moment", "--n", "3", "--spec", "2,1,0,0",
                "--m", "200000", "--seed", "5"]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            outs.append(subprocess.run(args, env=env, capture_output=True, check=True, timeout=120).stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_env_var_override(self, runner):
        result = runner.invoke(
            cli,
            ["decompose", "--spec", "1,1,0,0"],
            env={"SATAKE_ST_DECOMPOSE_N": "3"},
            auto_envvar_prefix="SATAKE_ST",
        )
        assert result.exit_code == 0
        assert "2 1 0" in result.output


NU3 = [[0.0, 1.0], [0.0, 1.0]]
ONE3 = [[1.0, 0.0]] * 3


class TestFailureContract:
    @pytest.mark.parametrize(
        "doc",
        [
            {"N": 3, "members": [5]},
            {"N": 3, "members": [{"nu": 5, "L1Ad": 1.0}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": "inf"}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "satake": {"2": [[float("nan"), 0.0]] * 3}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "satake": {"2": [[1.0, 0.0]] * 2}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "satake": {"2": ONE3, "02": ONE3}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "coefficients": {"1,0": [1.0, 0.0], "01,0": [2.0, 0.0]}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "coefficients": {"1, 0": [1.0, 0.0]}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "coefficients": {"1001,0": [0.0, 0.0]}}]},
        ],
        ids=[
            "member-not-object", "nu-not-array", "l1-infinite", "nan-entry", "short-satake",
            "satake-key-leading-zero", "coefficient-key-leading-zero", "coefficient-key-space",
            "coefficient-index-above-bound",
        ],
    )
    def test_ingest_rejects_malformed_member(self, runner, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "FamilyValidationError"
        assert err["message"].startswith("member 0: ")

    def test_ingest_rejects_an_overflowing_satake_product_quietly(self, tmp_path):
        # the product is NaN, which `> tolerance` let through
        path = tmp_path / "nan-product.json"
        satake = {"2": [[1e200, 1e200], [1e200, 1e200], [1e-300, 0]]}
        path.write_text(json.dumps({"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "satake": satake}]}))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(satake_st.__file__)))}
        args = [sys.executable, "-m", "satake_st.cli", "ingest", str(path)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]  # one JSON object: no numpy warning before it
        assert err["message"].startswith("member 0: p=2: product deviates from 1 by nan")

    def test_equidist_rejects_overflowing_weights_quietly(self, tmp_path):
        # L1Ad = 1e-320 is finite and positive, but every weight h_T / L1Ad is inf and every row was NaN
        path = tmp_path / "tiny-l1.json"
        path.write_text(json.dumps({"N": 3, "members": [{"nu": NU3, "L1Ad": 1e-320, "satake": {"2": ONE3}}]}))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(satake_st.__file__)))}
        args = [sys.executable, "-m", "satake_st.cli", "equidist", "--n", "3", "--family", str(path)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]  # one JSON object: no numpy warning before it
        assert err["type"] == "FamilyValidationError" and "not finite" in err["message"]

    def test_equidist_names_an_empty_family(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"N": 3, "members": []}))
        result = runner.invoke(cli, ["equidist", "--n", "3", "--family", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == {"type": "FamilyValidationError", "message": "empty family"}

    def test_ingest_reports_the_lowest_numbered_faulty_member(self, runner, tmp_path):
        fam = synth_family(3, 3, primes=(2,), seed=5)
        doc = family_to_dict(fam)
        doc["members"][1]["coefficients"] = {"1,0": [99.0, 0.0]}
        doc["members"][2]["L1Ad"] = -1.0
        path = tmp_path / "two-faults.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["message"].startswith("member 1: coefficient (1, 0) incoherent")

    @pytest.mark.parametrize("rank", [3.7, True, "3", None], ids=["fractional", "boolean", "string", "null"])
    def test_ingest_rejects_non_integer_rank(self, runner, tmp_path, rank):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": rank, "members": [{"nu": NU3, "L1Ad": 1.0}]}))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "FamilyValidationError"
        assert err["message"].startswith("N must be a JSON integer")

    @pytest.mark.parametrize("label", [None, ["a"], 3, True], ids=["null", "list", "number", "boolean"])
    def test_ingest_rejects_non_string_label(self, runner, tmp_path, label):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": 3, "members": [], "label": label}))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "FamilyValidationError"
        assert err["message"].startswith("label must be a JSON string")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"N": 3, "N": 4, "members": []}', "N"),
            ('{"N": 3, "members": [{"nu": [[0, 1], [0, 1]], "L1Ad": 1,'
             ' "satake": {"2": [[1, 0], [1, 0], [1, 0]], "2": [[1, 0], [-1, 0], [-1, 0]]}}]}', "2"),
            ('{"N": 3, "members": [{"nu": [[0, 1], [0, 1]], "L1Ad": 1,'
             ' "satake": {"2": [[1, 0], [1, 0], [1, 0]]}, "coefficients": {"1,0": [123, 0], "1,0": [1.5, 0]}}]}', "1,0"),
        ],
        ids=["top-level-rank", "satake-prime", "coefficient-index"],
    )
    def test_ingest_rejects_duplicate_keys(self, runner, tmp_path, text, key):
        # plain json.load keeps the last value, so each of these loaded without error
        path = tmp_path / "dup.json"
        path.write_text(text)
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "FamilyValidationError"
        assert repr(key) in err["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["equidist", "--n", "1", "--synth-size", "10"],
            ["bound", "--rate", "--p", "2", "--t-grid", "10,0.5"],
            ["sample", "--n", "2", "--m", "100", "--bins", "0"],
        ],
        ids=["rank-1-family", "scale-below-1", "zero-bins"],
    )
    def test_bad_flag_exits_2_with_error_object(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "message" in json.loads(result.stderr)["error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["decompose", "--n", "1", "--spec", "0"],
            ["moment", "--n", "1", "--spec", "0", "--m", "10"],
            ["sample", "--n", "1", "--m", "10"],
            ["equidist", "--n", "1", "--synth-size", "5"],
        ],
        ids=["decompose", "moment", "sample", "equidist"],
    )
    def test_rank_1_spec_names_the_rank(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        err = json.loads(result.stderr)["error"]
        assert err == {"type": "ValueError", "message": "rank parameter must be an integer >= 2, got 1"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"N": 3, "members": [{"nu": [[True, False], [0, 1]], "L1Ad": 1.0}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": True}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "coefficients": {"1,0": [True, 0.0]}}]},
            {"N": 3, "members": [{"nu": NU3, "L1Ad": 1.0, "satake": {"2": [[True, 0.0]] * 3}}]},
        ],
        ids=["nu-pair", "l1-adjoint", "coefficient-pair", "satake-pair"],
    )
    def test_ingest_rejects_boolean_numbers(self, runner, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["ingest", str(path)])
        assert result.exit_code == 2
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "FamilyValidationError"
        assert err["message"].startswith("member 0: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"], ids=["nan", "infinite", "negative"])
    def test_hecke_rejects_bad_tolerance(self, runner, tol):
        result = runner.invoke(cli, ["hecke", "--m", "100", "--tol", tol])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "tolerance" in json.loads(result.stderr)["error"]["message"]

    @pytest.mark.parametrize(
        "args, m",
        [
            (["sample", "--n", "2", "--m", "0"], 0),
            (["sample", "--n", "2", "--m", "-3"], -3),
            (["hecke", "--m", "0"], 0),
        ],
        ids=["sample-zero", "sample-negative", "hecke-zero"],
    )
    def test_nonpositive_sample_count(self, runner, args, m):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        err = json.loads(result.stderr)["error"]
        assert err == {"type": "ValueError", "message": f"m must be a Python integer >= 1, got {m}"}


def assert_json_error(result, code=2):
    assert result.exit_code == code
    err = json.loads(result.stderr)["error"]
    assert set(err) == {"type", "message"}
    return err


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["bound", "--rate", "--p", ","], "primes"),
            (["equidist", "--n", "3", "--p", "0", "--synth-size", "10"], "primes"),
            (["hecke", "--n", "3", "--m", "100", "--p", "-2"], "primes"),
            (["bound", "--rate", "--p", "2", "--t-grid", "nan"], "scale"),
            (["equidist", "--n", "3", "--synth-size", "10", "--t-grid", "nan"], "scale"),
            (["bound", "--verify", "--p", "2", "--alpha", "nan", "--max-degree", "1"], "alpha"),
            (["bound", "--rate", "--p", "2", "--spec", "2000,0,0,0"], "out of range"),
            (["moment", "--n", "2", "--spec", "99999999,0", "--m", "10"], "budget"),
            (["bound", "--rate", "--p", "2", "--spec", "1,0,0,0", "--t-grid", "10,100", "--eps", "inf"], "eps"),
            # 10^14 rows ask for more than the address space, so they fail at once
            (["sample", "--n", "3", "--m", "100000000000000"], "allocate"),
            (["equidist", "--n", "3", "--synth-size", "100000000000000"], "allocate"),
            (["equidist", "--n", "3", "--synth-size", "10", "--max-degree", "200"], "specs"),
            (["bound", "--verify", "--max-degree", "200"], "specs"),
            (["decompose", "--n", "3", "--spec", "1,,1,0,0"], "empty item"),
            (["equidist", "--n", "3", "--synth-size", "10", "--t-grid", ""], "empty item"),
            (["bound", "--verify", "--alpha", "", "--max-degree", "1"], "empty item"),
            (["bound", "--verify", "--p", "2", "--alpha", "0.5,0.5", "--max-degree", "0"],
             "alphas must be distinct: 0.5 is repeated in '0.5,0.5'"),
            # the rule reads the parsed floats, not the text
            (["bound", "--verify", "--p", "2", "--alpha", "0.5,0.50", "--max-degree", "0"],
             "alphas must be distinct: 0.5 is repeated in '0.5,0.50'"),
            # a repeated scale would print each of its rows twice
            (["equidist", "--n", "3", "--synth-size", "10", "--t-grid", "10,10"],
             "scales must be distinct: 10.0 is repeated in '10,10'"),
            (["bound", "--rate", "--p", "2", "--t-grid", "10,100,10.0"],
             "scales must be distinct: 10.0 is repeated in '10,100,10.0'"),
            (["equidist", "--n", "3", "--synth-size", "10", "--max-degree", "-1"], "--max-degree"),
            (["bound", "--verify", "--max-degree", "-1"], "--max-degree"),
            # p^|alpha| beyond the float range: the closed bound at the largest degree overflows
            (["bound", "--verify", "--p", "2", "--alpha", "300", "--max-degree", "4"],
             "overflows a float at p=2, alpha=300.0, d=4"),
            (["bound", "--verify", "--p", "2", "--alpha", "-300", "--max-degree", "4"],
             "overflows a float at p=2, alpha=-300.0, d=4"),
            (["bound", "--verify", "--p", "2", "--alpha", "1e308", "--max-degree", "4"],
             "overflows a float at p=2, alpha=1e+308, d=4"),
            (["bound", "--verify", "--p", "2", "--alpha", "-1e308", "--max-degree", "4"],
             "overflows a float at p=2, alpha=-1e+308, d=4"),
        ],
        ids=[
            "empty-prime-list", "zero-prime", "negative-prime", "rate-nan-scale", "equidist-nan-scale",
            "nan-alpha", "overflowing-envelope", "degree-above-budget", "infinite-eps",
            "sample-size", "equidist-size", "equidist-max-degree", "verify-max-degree",
            "spec-empty-item", "empty-t-grid", "empty-alpha", "repeated-alpha", "repeated-alpha-after-parsing",
            "repeated-scale-equidist", "repeated-scale-rate", "negative-max-degree-equidist", "negative-max-degree-bound",
            "verify-alpha-300", "verify-alpha-minus-300", "verify-alpha-1e308", "verify-alpha-minus-1e308",
        ],
    )
    def test_bad_value_exits_2_with_error_object(self, runner, args, fragment):
        result = runner.invoke(cli, args, catch_exceptions=False)
        assert fragment in assert_json_error(result)["message"]
        assert result.stdout == ""

    def test_an_envelope_outside_the_float_range_is_a_value_error(self, runner):
        # T^(eps-5) underflows to 0.0 at T = 1e100, so the envelope must not print as 0.0
        result = runner.invoke(cli, ["bound", "--rate", "--p", "2", "--t-grid", "1e100"], catch_exceptions=False)
        assert assert_json_error(result) == {
            "type": "ValueError",
            "message": "envelope is out of range of a normal float at t=1e+100, p_big=2.0, theta=0.109375, eps=1e-06",
        }
        assert result.stdout == ""

    @pytest.mark.parametrize("source", [["--synth-size", "10"], ["--family", "family.json"]], ids=["synth", "file"])
    def test_an_equidist_envelope_out_of_range_fails_before_a_family_is_built(self, runner, monkeypatch, source):
        # the N=3 envelopes read p, the specs and the grid; T^(eps-5) leaves the float range at T = 1e62
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built before the envelopes were checked")

        monkeypatch.setattr(cli_module, "synth_family", refuse)
        monkeypatch.setattr(cli_module, "load_family", refuse)
        args = ["equidist", "--n", "3", "--p", "2", *source, "--max-degree", "2", "--t-grid", "10,1e62"]
        result = runner.invoke(cli, args, catch_exceptions=False)
        assert assert_json_error(result)["message"].startswith("envelope is out of range of a normal float at t=1e+62")
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["moment", "--n", "abc", "--spec", "1"],
            ["decompose", "--n", "3", "--spec", "1,1,0,0", "--format", "xml"],
            ["ingest", "no-such-family.json"],
            ["moment", "--n", "2", "--spec", "1,1", "--seed", "-1"],
            ["bound", "--budget", "10"],
            ["no-such-command"],
            ["--bogus", "decompose", "--n", "3", "--spec", "1,1,0,0"],
        ],
        ids=[
            "bad-int", "bad-choice", "missing-path", "out-of-range", "unknown-flag", "unknown-command",
            "group-level-unknown-flag",
        ],
    )
    def test_usage_error_is_json(self, runner, args):
        result = runner.invoke(cli, args, catch_exceptions=False)
        assert_json_error(result)
        assert result.stdout == ""

    def test_help_still_exits_0(self, runner):
        for args in (["--help"], ["decompose", "--help"]):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0 and "Usage:" in result.stdout and result.stderr == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["decompose", "--n", "3", "--spec", "1,1,0,0"],
            ["moment", "--n", "2", "--spec", "1,1", "--m", "100"],
            ["sample", "--n", "2", "--m", "100", "--bins", "5"],
            ["equidist", "--n", "3", "--synth-size", "10", "--max-degree", "1"],
            ["bound", "--rate"],
            ["hecke", "--m", "100"],
            ["ingest", "FAMILY"],
        ],
        ids=["decompose", "moment", "sample", "equidist", "bound", "hecke", "ingest"],
    )
    def test_unwritable_out_exits_2(self, runner, tmp_path, args):
        family = tmp_path / "fam.json"
        save_family(synth_family(3, 4, primes=(2,), seed=1), family)
        args = [str(family) if a == "FAMILY" else a for a in args]
        result = runner.invoke(cli, args + ["--out", str(tmp_path / "missing" / "x.csv")], catch_exceptions=False)
        assert assert_json_error(result)["type"] == "FileNotFoundError"

    def test_commands_declare_only_the_shared_flags_they_read(self):
        shared = {"seed", "budget"}
        declared = {name: shared & {p.name for p in cmd.params} for name, cmd in cli.commands.items()}
        assert declared == {
            "decompose": {"budget"},
            "moment": {"seed", "budget"},
            "sample": {"seed"},
            "equidist": {"seed"},
            "bound": set(),
            "hecke": {"seed"},
            "ingest": set(),
        }
        assert all({"out", "fmt"} <= {p.name for p in cmd.params} for cmd in cli.commands.values())

    def test_hecke_nan_residual_exits_1(self, runner, monkeypatch):
        monkeypatch.setattr("satake_st.cli.hecke_residuals_n3", lambda bank: np.full(len(bank), np.nan))
        result = runner.invoke(cli, ["hecke", "--m", "100", "--p", "2"], catch_exceptions=False)
        assert assert_json_error(result, code=1)["type"] == "RuntimeError"
        assert len(read_csv(result.stdout)) == 2

    @pytest.mark.parametrize(
        "member",
        [{"nu": NU3, "L1Ad": 10**400}, {"nu": [[10**400, 0.0], [0.0, 1.0]], "L1Ad": 1.0}],
        ids=["l1-adjoint", "nu-entry"],
    )
    def test_ingest_rejects_integer_too_large_for_float(self, runner, tmp_path, member):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"N": 3, "members": [member]}))
        result = runner.invoke(cli, ["ingest", str(path)], catch_exceptions=False)
        err = assert_json_error(result)
        assert err["type"] == "FamilyValidationError" and err["message"].startswith("member 0: ")
