import hashlib
import json

import numpy as np
import pytest

from kronfft import dft_matrix
from kronfft import cli
from kronfft.cli import EXIT_FAIL, EXIT_LIMIT, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_qft_summary_lists_all_factors(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "3", "--d", "2", "--kind", "qft")
        assert code == EXIT_OK
        assert out.count("fourier@") == 3
        assert out.count("cr") == 3
        assert "digit reversal" in out

    def test_single_site_plan(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "1")
        assert code == EXIT_OK
        assert out.count("fourier@") == 1

    def test_radix_three(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "2", "--d", "3")
        assert code == EXIT_OK
        assert out.count("fourier@") == 2
        assert out.count("cr") == 1

    @pytest.mark.parametrize("kind", ["qft", "fft"])
    def test_text_listing_builds_no_operator(self, capsys, monkeypatch, kind):
        # Labels and term counts come from the step records.
        plans = []

        def build(args):
            plans.append(real(args))
            return plans[-1]

        real = cli._build_plan
        monkeypatch.setattr(cli, "_build_plan", build)
        code, out, _ = run(capsys, "factor", "--n", "6", "--d", "3", "--kind", kind)
        assert code == EXIT_OK and "terms=" in out
        (plan,) = plans
        assert "factors" not in plan.__dict__

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "2", "--format", "json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["kind"] == "qft" and doc["n"] == 2
        assert len(doc["factors"]) == 3


# sha256 of `kronfft factor` stdout (first 16 hex digits), recorded when the
# factor listing still read each factor's sites off its matrices: listing
# sites from the plan's step records must not change a byte.
FACTOR_OUTPUT_SHA256 = [
    ("1", "2", "fft", "control-first", "text", "d868f00ed7e9d502"),
    ("1", "2", "fft", "control-first", "json", "3fea1bb76e3dfba6"),
    ("1", "2", "fft", "target-first", "text", "d868f00ed7e9d502"),
    ("1", "2", "fft", "target-first", "json", "3fea1bb76e3dfba6"),
    ("1", "2", "qft", "control-first", "text", "a2d67c75cb0632a1"),
    ("1", "2", "qft", "control-first", "json", "cac79e880ddd9e4b"),
    ("1", "2", "qft", "target-first", "text", "e7e1aca56dff903d"),
    ("1", "2", "qft", "target-first", "json", "cc3be717a1db68fa"),
    ("4", "2", "fft", "control-first", "text", "a036ebfac4aca1b8"),
    ("4", "2", "fft", "control-first", "json", "f13f1bc0d8ad889f"),
    ("4", "2", "fft", "target-first", "text", "a036ebfac4aca1b8"),
    ("4", "2", "fft", "target-first", "json", "f13f1bc0d8ad889f"),
    ("4", "2", "qft", "control-first", "text", "9feb48c596a7c06a"),
    ("4", "2", "qft", "control-first", "json", "647b3c6c991b6e84"),
    ("4", "2", "qft", "target-first", "text", "c09acd0cca76fd2c"),
    ("4", "2", "qft", "target-first", "json", "aa14d50dd7d3ad47"),
    ("3", "3", "fft", "control-first", "text", "d42ba91183dfe0b1"),
    ("3", "3", "fft", "control-first", "json", "dcce0c86947ec8d7"),
    ("3", "3", "fft", "target-first", "text", "d42ba91183dfe0b1"),
    ("3", "3", "fft", "target-first", "json", "dcce0c86947ec8d7"),
    ("3", "3", "qft", "control-first", "text", "51de17339d5cc9e9"),
    ("3", "3", "qft", "control-first", "json", "57d9782b46e721c7"),
    ("3", "3", "qft", "target-first", "text", "c46fedff76e08473"),
    ("3", "3", "qft", "target-first", "json", "f9c3745692c315ab"),
]


@pytest.mark.parametrize("n,d,kind,orientation,fmt,digest", FACTOR_OUTPUT_SHA256)
def test_factor_output_bytes(capsys, n, d, kind, orientation, fmt, digest):
    code, out, _ = run(
        capsys, "factor", "--n", n, "--d", d, "--kind", kind,
        "--orientation", orientation, "--format", fmt,
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestVerify:
    def test_fft_plan_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "8", "--kind", "fft")
        assert code == EXIT_OK
        assert "ok" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--format", "json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["ok"] is True
        assert doc["residual"] < 1e-11

    def test_dense_limit_exit_code(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "20")
        assert code == EXIT_LIMIT
        assert "dense limit" in err

    def test_env_var_lowers_the_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("KRONFFT_DENSE_LIMIT", "8")
        code, _, _ = run(capsys, "verify", "--n", "5")
        assert code == EXIT_LIMIT

    def test_plan_file_round_trip(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        code, _, _ = run(
            capsys, "factor", "--n", "4", "--format", "json", "--output", str(plan_file)
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", "--n", "4", "--plan", str(plan_file))
        assert code == EXIT_OK

    def test_tampered_plan_fails(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        run(capsys, "factor", "--n", "4", "--format", "json", "--output", str(plan_file))
        doc = json.loads(plan_file.read_text())
        for desc in doc["factors"]:
            if desc["op"] == "cphase":
                desc["level"] += 1
                break
        plan_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--n", "4", "--plan", str(plan_file))
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_huge_level_fails(self, capsys, tmp_path):
        # R at level 10**9 rounds to the identity, so the plan is wrong; the
        # level loads and is checked without forming 3**level.
        plan_file = tmp_path / "plan.json"
        run(capsys, "factor", "--n", "3", "--d", "3", "--format", "json", "--output", str(plan_file))
        doc = json.loads(plan_file.read_text())
        next(f for f in doc["factors"] if f["op"] == "cphase")["level"] = 10**9
        plan_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--n", "3", "--plan", str(plan_file))
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_unreadable_plan_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, "verify", "--n", "2", "--plan", str(missing))
        assert code == EXIT_FAIL
        assert err

    def test_dense_limit_message(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "13")
        assert code == EXIT_LIMIT and out == ""
        assert err == "kronfft: dense limit exceeded: dimension 8192 exceeds the dense limit 4096\n"

    @pytest.mark.parametrize("n", [10**6, 10**8])
    def test_huge_loaded_plan_hits_the_dense_limit(self, capsys, tmp_path, n):
        # A symbolic plan of any size loads; the dense check never forms 3**n.
        plan_file = tmp_path / "plan.json"
        doc = {"version": 1, "kind": "qft", "n": n, "d": 3, "orientation": "target-first", "factors": []}
        plan_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--n", "1", "--plan", str(plan_file))
        assert code == EXIT_LIMIT and out == ""
        assert err == f"kronfft: dense limit exceeded: dimension 3**{n} exceeds the dense limit 4096\n"

    def test_env_var_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("KRONFFT_DENSE_LIMIT", "abc")
        code, out, err = run(capsys, "verify", "--n", "2")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: KRONFFT_DENSE_LIMIT must be an integer, got 'abc'\n"

    def test_plan_file_must_hold_an_object(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("[1, 2]")
        code, out, err = run(capsys, "verify", "--n", "2", "--plan", str(plan_file))
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: invalid document: plan document must be a JSON object\n"


class TestEarlyDenseLimit:
    """``verify`` and ``simulate --check`` refuse a d**n past the dense limit
    before any plan is built, with the message and exit code of the check."""

    @pytest.fixture(autouse=True)
    def no_plans(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"built a plan for {args}")

        monkeypatch.setattr(cli, "fft_plan", refuse)
        monkeypatch.setattr(cli, "qft_plan", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "1000"),
            ("verify", "--kind", "fft", "--n", "1000"),
            ("verify", "--n", "13", "--d", "2"),
            ("simulate", "--n", "1000", "--check"),
            ("simulate", "--kind", "qft", "--n", "1000", "--check"),
            ("simulate", "--n", "13", "--basis", "0" * 13, "--check"),
        ],
    )
    def test_exits_before_building(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        n = int(argv[argv.index("--n") + 1])
        assert code == EXIT_LIMIT and out == ""
        assert err == f"kronfft: dense limit exceeded: dimension {2**n} exceeds the dense limit 4096\n"

    def test_huge_n_is_named_as_a_power(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "100000000", "--d", "3")
        assert code == EXIT_LIMIT and out == ""
        assert err == "kronfft: dense limit exceeded: dimension 3**100000000 exceeds the dense limit 4096\n"

    def test_bad_arguments_come_first(self, capsys):
        for argv in (("verify", "--n", "0"), ("simulate", "--n", "0", "--check")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_FAIL and err == "kronfft: plans need at least one site\n"
        code, _, err = run(capsys, "simulate", "--n", "13", "--d", "1", "--check")
        assert code == EXIT_FAIL and err == "kronfft: local dimension must be at least 2\n"
        code, _, err = run(capsys, "simulate", "--n", "13", "--basis", "01", "--check")
        assert code == EXIT_FAIL and err == "kronfft: expected 13 basis digits, got 2\n"

    def test_bad_input_comes_first(self, capsys, tmp_path):
        # A bad --input is reported as before, ahead of the dense limit.
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        code, out, err = run(capsys, "simulate", "--n", "13", "--input", str(empty), "--check")
        assert code == EXIT_FAIL and out == ""
        assert err == f"kronfft: {empty}: vector file is empty\n"
        short = tmp_path / "short.txt"
        short.write_text("1 0\n0 0\n")
        code, out, err = run(capsys, "simulate", "--n", "13", "--input", str(short), "--check")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: input length 2 does not match d**n = 8192\n"
        code, out, err = run(capsys, "simulate", "--n", "13", "--input", str(tmp_path / "no"), "--check")
        assert code == EXIT_FAIL and out == "" and "No such file" in err


class TestCircuit:
    def test_counts_even_n(self, capsys):
        code, out, _ = run(
            capsys, "circuit", "--n", "4", "--counts", "--swap-style", "three-cnot"
        )
        assert code == EXIT_OK
        assert "hadamard/fourier: 4" in out
        assert "controlled-R:     6" in out
        assert "cnot:             6" in out
        assert "note:" not in out

    def test_counts_odd_n_reports_discrepancy(self, capsys):
        code, out, _ = run(capsys, "circuit", "--n", "3", "--counts")
        assert code == EXIT_OK
        assert "swaps expanded at 3 each: 3" in out
        assert "floor(3n/2) tabulation:   4" in out
        assert "note:" in out

    def test_single_gate_diagram(self, capsys):
        code, out, _ = run(capsys, "circuit", "--n", "1")
        assert code == EXIT_OK
        assert "[H]" in out

    def test_json_document_with_counts(self, capsys):
        code, out, _ = run(capsys, "circuit", "--n", "3", "--format", "json", "--counts")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert len(doc["gates"]) == 7
        assert doc["counts"]["controlled_r"] == 3
        assert doc["counts"]["cnot_table"] == 4

    def test_three_cnot_rejected_for_qudits(self, capsys):
        code, _, err = run(
            capsys, "circuit", "--n", "2", "--d", "3", "--swap-style", "three-cnot"
        )
        assert code == EXIT_FAIL
        assert "qubits" in err


# sha256 of `kronfft circuit` stdout (first 16 hex digits), recorded when each
# gate kind still built its operator on its own: gates that share the plan
# steps' record must not change a byte.
CIRCUIT_OUTPUT_SHA256 = [
    ("1", "2", "control-first", "keep-swap", "text", False, "4ba45de1c5b66f5e"),
    ("1", "2", "control-first", "keep-swap", "text", True, "ac2fa1b8237b4540"),
    ("1", "2", "control-first", "keep-swap", "json", False, "675531bbcb167238"),
    ("1", "2", "control-first", "keep-swap", "json", True, "8015538fc25a001f"),
    ("1", "2", "control-first", "three-cnot", "text", False, "4ba45de1c5b66f5e"),
    ("1", "2", "control-first", "three-cnot", "text", True, "ac2fa1b8237b4540"),
    ("1", "2", "control-first", "three-cnot", "json", False, "675531bbcb167238"),
    ("1", "2", "control-first", "three-cnot", "json", True, "8015538fc25a001f"),
    ("1", "2", "target-first", "keep-swap", "text", False, "4ba45de1c5b66f5e"),
    ("1", "2", "target-first", "keep-swap", "text", True, "ac2fa1b8237b4540"),
    ("1", "2", "target-first", "keep-swap", "json", False, "675531bbcb167238"),
    ("1", "2", "target-first", "keep-swap", "json", True, "8015538fc25a001f"),
    ("1", "2", "target-first", "three-cnot", "text", False, "4ba45de1c5b66f5e"),
    ("1", "2", "target-first", "three-cnot", "text", True, "ac2fa1b8237b4540"),
    ("1", "2", "target-first", "three-cnot", "json", False, "675531bbcb167238"),
    ("1", "2", "target-first", "three-cnot", "json", True, "8015538fc25a001f"),
    ("1", "3", "control-first", "keep-swap", "text", False, "b20f6b3471f4b757"),
    ("1", "3", "control-first", "keep-swap", "text", True, "38c69a06afa0af48"),
    ("1", "3", "control-first", "keep-swap", "json", False, "ec7e5da7267704da"),
    ("1", "3", "control-first", "keep-swap", "json", True, "46c4ca10a82b8e20"),
    ("1", "3", "target-first", "keep-swap", "text", False, "b20f6b3471f4b757"),
    ("1", "3", "target-first", "keep-swap", "text", True, "38c69a06afa0af48"),
    ("1", "3", "target-first", "keep-swap", "json", False, "ec7e5da7267704da"),
    ("1", "3", "target-first", "keep-swap", "json", True, "46c4ca10a82b8e20"),
    ("4", "2", "control-first", "keep-swap", "text", False, "0be0e1771aad6eef"),
    ("4", "2", "control-first", "keep-swap", "text", True, "e372580b62999e28"),
    ("4", "2", "control-first", "keep-swap", "json", False, "88ffce32f2903f1e"),
    ("4", "2", "control-first", "keep-swap", "json", True, "0d329bd10b7b6671"),
    ("4", "2", "control-first", "three-cnot", "text", False, "4a2e5e46776cabfb"),
    ("4", "2", "control-first", "three-cnot", "text", True, "7f03132e238c39e1"),
    ("4", "2", "control-first", "three-cnot", "json", False, "abc4d938a9c095b2"),
    ("4", "2", "control-first", "three-cnot", "json", True, "0ffce182e089fa51"),
    ("4", "2", "target-first", "keep-swap", "text", False, "d51cd72d2538808c"),
    ("4", "2", "target-first", "keep-swap", "text", True, "5ebf39085adc68cc"),
    ("4", "2", "target-first", "keep-swap", "json", False, "4cf716590c060ee9"),
    ("4", "2", "target-first", "keep-swap", "json", True, "10189c320deb8f5d"),
    ("4", "2", "target-first", "three-cnot", "text", False, "c6539794d01ce9d5"),
    ("4", "2", "target-first", "three-cnot", "text", True, "9eee812a3c5bbb60"),
    ("4", "2", "target-first", "three-cnot", "json", False, "1f6826935b71dd69"),
    ("4", "2", "target-first", "three-cnot", "json", True, "9047134cedaa4028"),
    ("4", "3", "control-first", "keep-swap", "text", False, "8e4d95c9d6dbf287"),
    ("4", "3", "control-first", "keep-swap", "text", True, "b9e5ef59bd7f18e6"),
    ("4", "3", "control-first", "keep-swap", "json", False, "418b48a7efbc75f0"),
    ("4", "3", "control-first", "keep-swap", "json", True, "37c5ce0052014cb6"),
    ("4", "3", "target-first", "keep-swap", "text", False, "7dd497d6f4d306b9"),
    ("4", "3", "target-first", "keep-swap", "text", True, "0f9893787e210c1a"),
    ("4", "3", "target-first", "keep-swap", "json", False, "0c2a8595a6c6c2ab"),
    ("4", "3", "target-first", "keep-swap", "json", True, "55a4dbc220557a1e"),
]


@pytest.mark.parametrize("n,d,orientation,style,fmt,counts,digest", CIRCUIT_OUTPUT_SHA256)
def test_circuit_output_bytes(capsys, n, d, orientation, style, fmt, counts, digest):
    code, out, _ = run(
        capsys, "circuit", "--n", n, "--d", d, "--orientation", orientation,
        "--swap-style", style, "--format", fmt, *(["--counts"] if counts else []),
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

class TestSimulate:
    def test_basis_input_gives_uniform_output(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "3", "--basis", "000")
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        values = [complex(float(r.split()[0]), float(r.split()[1])) for r in rows]
        np.testing.assert_allclose(values, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_check_against_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec = tmp_path / "x.txt"
        vec.write_text("\n".join(f"{v.real} {v.imag}" for v in x))
        code, out, err = run(
            capsys, "simulate", "--n", "3", "--input", str(vec), "--check"
        )
        assert code == EXIT_OK
        assert "max diff" in err

    def test_inverse_round_trip_through_files(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        src = tmp_path / "x.txt"
        mid = tmp_path / "y.txt"
        out_file = tmp_path / "z.txt"
        src.write_text("\n".join(f"{v.real:.17g} {v.imag:.17g}" for v in x))
        code, _, _ = run(
            capsys, "simulate", "--n", "3", "--input", str(src), "--inverse",
            "--output", str(mid),
        )
        assert code == EXIT_OK
        code, _, _ = run(
            capsys, "simulate", "--n", "3", "--input", str(mid), "--output", str(out_file)
        )
        assert code == EXIT_OK
        back = [
            complex(float(line.split()[0]), float(line.split()[1]))
            for line in out_file.read_text().splitlines()
        ]
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_json_output_matches_oracle(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--basis", "10", "--format", "json"
        )
        got = np.array([complex(re, im) for re, im in json.loads(out)])
        want = dft_matrix(4)[:, 2]
        assert code == EXIT_OK
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_malformed_vector_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n2.0 3.0\n")
        code, _, err = run(capsys, "simulate", "--n", "1", "--input", str(bad))
        assert code == EXIT_FAIL
        assert "expected 're im'" in err

    def test_wrong_length_input(self, capsys, tmp_path):
        vec = tmp_path / "x.txt"
        vec.write_text("1 0\n0 0\n0 0\n")
        code, _, err = run(capsys, "simulate", "--n", "3", "--input", str(vec))
        assert code == EXIT_FAIL

    def test_bad_basis_digits(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "2", "--basis", "07")
        assert code == EXIT_FAIL
        assert "out of range" in err

    def test_wrong_basis_digit_count(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "3", "--basis", "01")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: expected 3 basis digits, got 2\n"

    def test_empty_vector_file(self, capsys, tmp_path):
        empty = tmp_path / "x.txt"
        empty.write_text("\n  \n")
        code, out, err = run(capsys, "simulate", "--n", "1", "--input", str(empty))
        assert code == EXIT_FAIL and out == ""
        assert err == f"kronfft: {empty}: vector file is empty\n"

    def test_vector_line_not_a_complex_pair(self, capsys, tmp_path):
        bad = tmp_path / "x.txt"
        bad.write_text("1 0\n1 x\n")
        code, out, err = run(capsys, "simulate", "--n", "1", "--input", str(bad))
        assert code == EXIT_FAIL and out == ""
        assert err == f"kronfft: {bad}:2: not a complex pair: '1 x'\n"

    def test_check_past_dense_limit_writes_nothing(self, capsys, tmp_path):
        # The limit is checked before the transform, not after its output.
        out_file = tmp_path / "y.txt"
        code, out, err = run(capsys, "simulate", "--kind", "fft", "--n", "13", "--check")
        assert code == EXIT_LIMIT and out == "" and "dense limit" in err
        code, out, _ = run(
            capsys, "simulate", "--n", "13", "--check", "--output", str(out_file)
        )
        assert code == EXIT_LIMIT and out == "" and not out_file.exists()
        # Without --check the transform itself has no dense limit.
        code, out, _ = run(capsys, "simulate", "--kind", "fft", "--n", "13")
        assert code == EXIT_OK and len(out.splitlines()) == 2**13


class TestRankGrowth:
    def test_csv_schema_and_residual_diagnostic(self, capsys):
        code, out, err = run(capsys, "rankgrowth", "--n", "2", "--seed", "7")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "step,factor_label,term_count,elapsed_ms"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert max(counts) <= 4
        assert "residual" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "rankgrowth", "--n", "3", "--seed", "5")
        _, second, _ = run(capsys, "rankgrowth", "--n", "3", "--seed", "5")
        assert first == second

    def test_basis_input_keeps_one_term(self, capsys):
        code, out, _ = run(capsys, "rankgrowth", "--n", "3", "--basis", "101")
        assert code == EXIT_OK
        counts = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert counts == [1] * 7

    def test_no_prune_counts_candidates(self, capsys):
        code, out, _ = run(
            capsys, "rankgrowth", "--n", "3", "--seed", "4", "--no-prune"
        )
        assert code == EXIT_OK
        counts = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert counts == [1, 2, 4, 4, 8, 8, 8]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "rankgrowth", "--n", "2", "--seed", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["residual"] < 1e-10
        assert doc["steps"][0]["elapsed_ms"] == 0.0

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "rankgrowth", "--n", "3", "--seed", "3", "--format", "text")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[:-1] == [
            "qft rank growth: n=3 d=2 orientation=target-first prune=1e-14 seed=3",
            "step  term_count  factor",
            "   0           1  fourier@1",
            "   1           2  cr3@3>1",
            "   2           4  cr2@2>1",
            "   3           4  fourier@2",
            "   4           4  cr2@3>2",
            "   5           4  fourier@3",
            "   6           4  digit-reversal",
        ]
        prefix = "final dense residual: "
        assert lines[-1].startswith(prefix)
        residual = lines[-1][len(prefix):]
        assert residual == f"{float(residual):.3e}" and float(residual) < 1e-10

    def test_wrong_basis_digit_count(self, capsys):
        code, out, err = run(capsys, "rankgrowth", "--n", "2", "--basis", "011")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: expected 2 basis digits, got 3\n"

    def test_dense_limit(self, capsys):
        code, _, _ = run(capsys, "rankgrowth", "--n", "20")
        assert code == EXIT_LIMIT

    def test_dense_limit_before_the_state_is_drawn(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a state past the dense limit")

        monkeypatch.setattr(cli, "random_rank_one", refuse)
        code, out, err = run(capsys, "rankgrowth", "--n", "200000")
        assert code == EXIT_LIMIT and out == ""
        assert err == "kronfft: dense limit exceeded: dimension 2**200000 exceeds the dense limit 4096\n"

    def test_bad_arguments_come_before_the_dense_limit(self, capsys):
        code, out, err = run(capsys, "rankgrowth", "--n", "200000", "--basis", "01")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: expected 200000 basis digits, got 2\n"
        code, out, err = run(capsys, "rankgrowth", "--n", "0")
        assert code == EXIT_FAIL and out == ""
        assert err == "kronfft: states need n >= 1 sites of dimension d >= 2\n"

    def test_raised_dense_limit(self, capsys):
        # 2^13 is past the default limit; the oracle must use the raised one.
        code, out, err = run(
            capsys, "rankgrowth", "--n", "13", "--dense-limit", "8192", "--format", "json"
        )
        assert code == EXIT_OK, err
        assert json.loads(out)["residual"] < 1e-10


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--n", "4", "--format", "json"],
            ["circuit", "--n", "4", "--counts"],
            ["verify", "--n", "5", "--kind", "fft", "--format", "json"],
            ["simulate", "--n", "3", "--basis", "011"],
        ],
    )
    def test_identical_invocations_are_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestUsage:
    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
