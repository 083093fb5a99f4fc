import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import triplepass
from triplepass.actions import build_instance, instance_to_descriptor
from triplepass.checks import ConditionReport, recheck_counterexample
from triplepass.cli import main
from triplepass.matrices import Mat2, format_matrix, parse_matrix


# s=2, t=3, A=diag(2,1), B=diag(3,4)
GENUINE_DIAGONAL_F5 = {"instance": "diagonal-f5", "p": 5, "v1": [4, 3], "v2": [2, 2], "v3": [1, 2]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_default_demo_shows_failure_then_success(self, capsys):
        # The whole output, byte for byte.
        assert run_cli(capsys, "demo") == (0, (
            "three-pass demo: general-linear masks over F2 (round trip breaks)\n"
            "  v  = (s=1, t=0)\n"
            "  A  = [[1,1],[0,1]]@F2\n"
            "  B  = [[1,0],[1,1]]@F2\n"
            "  pass 1  alice -> bob    v1 = [1,1]@F2\n"
            "  pass 2  bob   -> alice  v2 = [0,1]@F2\n"
            "  pass 3  alice -> bob    v3 = [0,1]@F2\n"
            "  pass 4  bob unmasks     v4 = [1,1]@F2\n"
            "  round trip: FAILED (v4 != v; the masks do not commute on v)\n"
            "three-pass demo: diagonal masks over F5 (round trip holds)\n"
            "  v  = (s=2, t=3)\n"
            "  A  = [[2,0],[0,1]]@F5\n"
            "  B  = [[3,0],[0,4]]@F5\n"
            "  pass 1  alice -> bob    v1 = [4,3]@F5\n"
            "  pass 2  bob   -> alice  v2 = [2,2]@F5\n"
            "  pass 3  alice -> bob    v3 = [1,2]@F5\n"
            "  pass 4  bob unmasks     v4 = [2,3]@F5\n"
            "  round trip: OK (v4 = v)\n"
        ), "")

    def test_diagonal_demo_succeeds(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--instance", "diagonal", "--p", "5")
        assert code == 0
        assert "round trip: OK" in out

    def test_rational_demo(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--rational", "--seed", "7", "--sessions", "2")
        assert code == 0
        assert "@Q" in out
        assert "masks commute" in out

    def test_finite_demo_prints_every_session(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--instance", "diagonal", "--sessions", "4")
        assert code == 0
        assert out.count("pass 1") == out.count("round trip: OK") == 4
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("session")] == [
            f"session {i}" for i in range(4)
        ]

    def test_finite_demo_without_sessions_keeps_its_one_session(self, capsys):
        _, default, _ = run_cli(capsys, "demo", "--instance", "diagonal")
        assert default == (
            "three-pass demo: diagonal-f5\n"
            "  v  = (s=4, t=3)\n"
            "  A  = [[1,0],[0,2]]@F5\n"
            "  B  = [[3,0],[0,1]]@F5\n"
            "  pass 1  alice -> bob    v1 = [4,1]@F5\n"
            "  pass 2  bob   -> alice  v2 = [2,1]@F5\n"
            "  pass 3  alice -> bob    v3 = [2,3]@F5\n"
            "  pass 4  bob unmasks     v4 = [4,3]@F5\n"
            "  round trip: OK (v4 = v)\n"
        )
        # More sessions continue the same seeded draws after the first.
        _, more, _ = run_cli(capsys, "demo", "--instance", "diagonal", "--sessions", "2")
        header, first, second = more.split("session ")
        assert header + "".join(first.splitlines(keepends=True)[1:]) == default
        assert second.startswith("1: secret s = ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_demo_refuses_machine_formats(self, capsys, fmt):
        code, out, err = run_cli(capsys, "demo", "--instance", "diagonal", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: demo prints text only") and err.count("\n") == 1

    def test_scripted_demo_refuses_sessions(self, capsys):
        code, out, err = run_cli(capsys, "demo", "--sessions", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: --sessions") and err.count("\n") == 1

    def test_instance_rational_runs_the_rational_demo(self, capsys):
        flags = ("--seed", "7", "--sessions", "2")
        assert run_cli(capsys, "demo", "--instance", "rational", *flags) == run_cli(
            capsys, "demo", "--rational", *flags
        )


class TestRun:
    def test_json_artifact_embeds_config_seed_and_versions(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys, "run", "--instance", "diagonal", "--p", "5",
            "--sessions", "2", "--seed", "9", "--out", str(out_file),
        )
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["schema"] == "triplepass/run/v1"
        assert artifact["seed"] == 9
        assert artifact["tool"]["name"] == "triplepass"
        assert artifact["config"]["instance"] == "diagonal-f5"
        assert len(artifact["transcripts"]) == 2

    def test_adversary_view_has_no_truth(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5",
                "--sessions", "3", "--seed", "1", "--out", str(out_file))
        artifact = json.loads(out_file.read_text())
        for transcript in artifact["transcripts"]:
            assert set(transcript.keys()) == {"instance", "p", "v1", "v2", "v3"}

    def test_lab_view_includes_truth(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5",
                "--sessions", "1", "--seed", "1", "--lab-view", "--out", str(out_file))
        artifact = json.loads(out_file.read_text())
        assert set(artifact["transcripts"][0]["truth"].keys()) == {"s", "t", "A", "B"}

    def test_zero_sessions_is_valid(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "run", "--instance", "diagonal", "--p", "5",
                             "--sessions", "0", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["transcripts"] == []

    def test_unknown_kind_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--instance", "octonion", "--sessions", "1")
        assert code == 2
        assert "unknown instance kind" in err

    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "run", "--instance", "rotation", "--p", "7",
                    "--sessions", "5", "--seed", "11", "--lab-view", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    # sha256 of the seed-0 `run --lab-view` artifact over 300 sessions, and
    # of the `reports` field of `analyze --transcripts` on that file (its
    # config names the input path), as written by version 0.1.0 before
    # sessions and posteriors moved onto the index tables. The run digest
    # covers the whole artifact, the tool version included, except the
    # `config.secret` line that run artifacts gained later: it is checked
    # to be `null` and taken out before hashing. The reports digest
    # re-serialises through `json`, so both files are also checked to be
    # the stdlib's own indent-2 text.
    PINNED_DIGESTS = {
        ("diagonal", "7"): (
            "e7ce9e520a727d62a3baf390802c05760ef231f48e7838e258ed4d7c4b1163fc",
            "71e1aede469b21a23f13c67b48c01cba8b1a44b16dba31b3fbf93848801402af",
        ),
        ("general-linear", "5"): (
            "16945c9c82468fe0c973f0d4c4ac8454ae1ad633fcb867caaa20504a3da45dc4",
            "33b0b63b2d1a02336754aa8f0a37f50b0a8de196dc026367481d6c2def7a330e",
        ),
        ("borel-embedded", "7"): (
            "eb758b498bf1c439cf23c7b728fda1294f07156a027d925ff97cc683b96a6bf9",
            "f15af753eb34c2850d5094ab5ea87f1fa5d185020e839b367b4a2e4d24d5c169",
        ),
        ("rotation", "7"): (
            "c259d2702467cf4031a2ad9cfa760310ddf4003839b547ddb60f96c4e7d7c8b9",
            "37af76b04eb0fa26a943b11ee7b6b0615e1ccb0a23d3a9167e3242475ea053e2",
        ),
    }

    @pytest.mark.parametrize("kind,p", sorted(PINNED_DIGESTS))
    def test_seed_zero_artifacts_match_pinned_digests(self, capsys, tmp_path, kind, p):
        run_file, analyze_file = tmp_path / "run.json", tmp_path / "analyze.json"
        assert run_cli(capsys, "run", "--instance", kind, "--p", p, "--sessions", "300",
                       "--seed", "0", "--lab-view", "--out", str(run_file))[0] == 0
        assert run_cli(capsys, "analyze", "--transcripts", str(run_file),
                       "--out", str(analyze_file))[0] == 0
        reports = json.loads(analyze_file.read_text())["reports"]
        secret_line = b'\n    "secret": null,\n'
        run_bytes = run_file.read_bytes()
        assert run_bytes.count(secret_line) == 1
        digests = (
            hashlib.sha256(run_bytes.replace(secret_line, b"\n")).hexdigest(),
            hashlib.sha256(json.dumps(reports, indent=2).encode()).hexdigest(),
        )
        assert digests == self.PINNED_DIGESTS[(kind, p)]
        for path in (run_file, analyze_file):
            written = path.read_bytes()
            assert written == (json.dumps(json.loads(written), indent=2) + "\n").encode()

    def test_csv_success_table(self, capsys, tmp_path):
        out_file = tmp_path / "run.csv"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5", "--sessions", "2",
                "--seed", "3", "--format", "csv", "--out", str(out_file))
        lines = out_file.read_text().splitlines()
        assert "# seed: 3" in lines
        assert "session,success" in lines
        assert lines[-1] == "1,true"

    def test_fixed_secret(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5", "--sessions", "2",
                "--seed", "3", "--secret", "2", "--lab-view", "--out", str(out_file))
        artifact = json.loads(out_file.read_text())
        assert all(t["truth"]["s"] == 2 for t in artifact["transcripts"])

    @pytest.mark.parametrize("instance,secret,literal", [
        (["--instance", "diagonal", "--p", "5"], "2", 2),
        (["--instance", "diagonal", "--p", "5"], None, None),
        (["--instance", "rational"], "6/8", "3/4"),
        (["--instance", "rational"], None, None),
    ], ids=["finite", "finite-drawn", "rational", "rational-drawn"])
    def test_config_records_the_secret(self, capsys, tmp_path, instance, secret, literal):
        # The secret's wire literal when it is fixed, null when it is drawn.
        out_file = tmp_path / "run.json"
        flags = [] if secret is None else ["--secret", secret]
        assert run_cli(capsys, "run", *instance, "--sessions", "2", *flags,
                       "--out", str(out_file))[0] == 0
        config = json.loads(out_file.read_text())["config"]
        assert config["secret"] == literal
        assert list(config)[-3:] == ["sessions", "secret", "lab_view"]

    @pytest.mark.parametrize("instance,secret,message", [
        (["--instance", "diagonal", "--p", "5"], "0", "secret must be nonzero"),
        (["--instance", "borel-embedded", "--p", "7"], "3", "secret 3 is outside"),
        (["--instance", "rational"], "0", "secret must be nonzero"),
    ], ids=["diagonal-zero", "borel-embedded-outside", "rational-zero"])
    @pytest.mark.parametrize("sessions", ["0", "1"])
    def test_a_fixed_secret_is_checked_for_every_count(self, capsys, instance, secret, message,
                                                       sessions):
        code, out, err = run_cli(capsys, "run", *instance, "--sessions", sessions,
                                 "--secret", secret)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


class TestAnalyze:
    def test_whole_instance_leakage(self, capsys, tmp_path):
        out_file = tmp_path / "leak.json"
        code, _, _ = run_cli(capsys, "analyze", "--instance", "diagonal", "--p", "5",
                             "--out", str(out_file))
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["schema"] == "triplepass/leakage/v1"
        assert artifact["report"]["mutual_information_bits"] == 2.0
        assert artifact["report"]["zero_leakage"] is False

    def test_trivial_instance_mi_is_entropy_of_single_secret(self, capsys, tmp_path):
        out_file = tmp_path / "leak.json"
        run_cli(capsys, "analyze", "--instance", "trivial", "--p", "5", "--out", str(out_file))
        artifact = json.loads(out_file.read_text())
        assert artifact["report"]["mutual_information_bits"] == 0.0
        assert artifact["report"]["zero_leakage"] is True

    def test_transcript_file_posteriors(self, capsys, tmp_path):
        run_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5", "--sessions", "3",
                "--seed", "42", "--out", str(run_file))
        out_file = tmp_path / "post.json"
        code, _, _ = run_cli(capsys, "analyze", "--transcripts", str(run_file),
                             "--out", str(out_file))
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["schema"] == "triplepass/posterior/v1"
        assert len(artifact["reports"]) == 3
        for report in artifact["reports"]:
            assert len(report["support"]) == 1  # diagonal transcripts pin the secret

    def test_witness_scan_cap_prices_the_two_fibre_tables(self, capsys, tmp_path):
        # Alice's and Bob's factors are read from two fibre tables of
        # |G| = 480, far below the cap, whatever |S| * |T| * |G|^2 is.
        run_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "general-linear", "--p", "5", "--sessions", "1",
                "--seed", "0", "--out", str(run_file))
        capped, default = tmp_path / "capped.json", tmp_path / "default.json"
        code, _, err = run_cli(capsys, "analyze", "--transcripts", str(run_file),
                               "--cap", "1000000", "--out", str(capped))
        assert (code, err) == (0, "")
        run_cli(capsys, "analyze", "--transcripts", str(run_file), "--out", str(default))
        (report,) = json.loads(capped.read_text())["reports"]
        assert report == json.loads(default.read_text())["reports"][0]
        assert report["witness_count"] == 320

    def test_corrupted_transcript_is_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"instance": "diagonal-f5", "p": 5, "v1": [0, 1], "v2": [0, 1], "v3": [0, 1]}
        ]))
        code, _, err = run_cli(capsys, "analyze", "--transcripts", str(bad),
                               "--instance", "diagonal", "--p", "5")
        assert code == 2
        assert "inconsistent transcript" in err

    def _swapped_truth_file(self, capsys, tmp_path):
        run_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5", "--sessions", "2",
                "--seed", "0", "--lab-view", "--out", str(run_file))
        artifact = json.loads(run_file.read_text())
        first, second = artifact["transcripts"]
        assert first["truth"] != second["truth"]
        first["truth"], second["truth"] = second["truth"], first["truth"]
        run_file.write_text(json.dumps(artifact))
        return run_file

    def test_swapped_ground_truth_is_an_input_error(self, capsys, tmp_path):
        run_file = self._swapped_truth_file(capsys, tmp_path)
        code, _, err = run_cli(capsys, "analyze", "--transcripts", str(run_file))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ground truth" in err

    def test_swapped_ground_truth_is_caught_under_optimize(self, capsys, tmp_path):
        # The soundness check must not be an assert, which -O strips.
        run_file = self._swapped_truth_file(capsys, tmp_path)
        src = str(Path(triplepass.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "triplepass", "analyze", "--transcripts", str(run_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "ground truth" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("python_flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_rational_transcripts_exit_two(self, capsys, tmp_path, python_flags):
        # Finiteness is checked before the default prior reads the secret domain.
        run_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "rational", "--sessions", "2", "--out", str(run_file))
        src = str(Path(triplepass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *python_flags, "-m", "triplepass", "analyze",
             "--transcripts", str(run_file)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: witness enumeration requires finite group\n"

    @staticmethod
    def _swap_mask_b(first, second):
        assert first["truth"]["B"] != second["truth"]["B"]
        first["truth"]["B"], second["truth"]["B"] = second["truth"]["B"], first["truth"]["B"]

    @staticmethod
    def _mask_outside_group(first, second):
        first["truth"]["A"] = "[[1,1],[0,1]]@F5"  # invertible, but not diagonal

    @staticmethod
    def _repeat_with_b_doubled(first, second):
        # The second session repeats the first's messages, so its count
        # signature is already memoized when its truth is checked.
        second.update(copy.deepcopy(first))
        b = parse_matrix(first["truth"]["B"])
        doubled = Mat2(b.a + b.a, b.b, b.c, b.d + b.d)  # v1.B' = 2.v2, never v2
        second["truth"]["B"] = format_matrix(doubled)

    @pytest.mark.parametrize("python_flags", [[], ["-O"]], ids=["plain", "optimize"])
    @pytest.mark.parametrize(
        "tamper",
        ["_swap_mask_b", "_mask_outside_group", "_repeat_with_b_doubled"],
        ids=["only-B-swapped", "mask-outside-group", "memoized-signature"],
    )
    def test_tampered_ground_truth_exits_two(self, capsys, tmp_path, tamper, python_flags):
        # The truth is checked by factor membership: Alice's (s, t, A) and
        # Bob's B separately, each looked up by residues in the group.
        run_file = tmp_path / "run.json"
        run_cli(capsys, "run", "--instance", "diagonal", "--p", "5", "--sessions", "2",
                "--seed", "0", "--lab-view", "--out", str(run_file))
        artifact = json.loads(run_file.read_text())
        getattr(self, tamper)(*artifact["transcripts"])
        run_file.write_text(json.dumps(artifact))
        src = str(Path(triplepass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *python_flags, "-m", "triplepass", "analyze",
             "--transcripts", str(run_file)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "ground truth" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "change",
        [
            {"v3": None},
            {"v1": [4]},
            {"p": "5"},
            {"v1": [14, 3]},
            {"v3": [True, 2]},
            {"truth": {"s": 2, "t": 3, "A": "[[2,0],[0,1]]@F5"}},
        ],
        ids=["missing-v3", "short-point", "string-p", "residue-out-of-range", "bool-residue",
             "truth-missing-B"],
    )
    def test_malformed_transcript_exits_two_without_traceback(self, capsys, tmp_path, change):
        transcript = dict(GENUINE_DIAGONAL_F5, **change)
        transcript = {k: v for k, v in transcript.items() if v is not None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([transcript]))
        code, _, err = run_cli(capsys, "analyze", "--transcripts", str(bad),
                               "--instance", "diagonal", "--p", "5")
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_transcripts_field_must_be_a_list(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"transcripts": GENUINE_DIAGONAL_F5}))
        code, _, err = run_cli(capsys, "analyze", "--transcripts", str(bad),
                               "--instance", "diagonal", "--p", "5")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_worker_counts_give_identical_bytes(self, capsys, tmp_path):
        files = {}
        for workers in (1, 4):
            path = tmp_path / f"leak-{workers}.json"
            run_cli(capsys, "analyze", "--instance", "rotation", "--p", "7",
                    "--workers", str(workers), "--out", str(path))
            files[workers] = path.read_bytes()
        assert files[1] == files[4]

    def test_prior_file(self, capsys, tmp_path):
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({"1": "1/2", "2": "1/6", "3": "1/6", "4": "1/6"}))
        out_file = tmp_path / "leak.json"
        code, _, _ = run_cli(capsys, "analyze", "--instance", "diagonal", "--p", "5",
                             "--prior", str(prior_file), "--out", str(out_file))
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["report"]["prior"]["1"] == "1/2"
        # Total break: MI equals the prior entropy, not two full bits.
        assert 0 < artifact["report"]["mutual_information_bits"] < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--instance", "diagonal", "--p", "5", "--sessions", "-3"],
        ["demo", "--rational", "--sessions", "-3"],
        ["demo", "--workers", "0"],
        ["run", "--instance", "diagonal", "--p", "5", "--workers", "0"],
        ["analyze", "--instance", "diagonal", "--p", "5", "--workers", "0"],
        ["analyze", "--transcripts", "runs.json", "--instance", "diagonal", "--p", "5",
         "--workers", "0"],
        ["check", "--instance", "trivial", "--workers", "0"],
        ["search", "--p", "2", "--workers", "0"],
        ["demo", "--out", "demo.txt"],
        ["run", "--instance", "diagonal", "--lab-view", "--format", "csv"],
        ["run", "--instance", "diagonal", "--lab-view", "--format", "human"],
    ],
    ids=" ".join,
)
def test_negative_sessions_and_nonpositive_workers_are_usage_errors(
    capsys, tmp_path, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.json").write_text(json.dumps([GENUINE_DIAGONAL_F5]))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


CUSTOM_F5 = {
    "kind": "custom", "name": "c", "p": 5, "generators": ["[[1,0],[0,1]]@F5"],
    "secret_domain": [1], "t_domain": [1], "multiplicative": True,
}


@pytest.mark.parametrize(
    "descriptor, prior, argv",
    [
        ({"kind": "diagonal", "name": "x"}, None, None),
        (dict(CUSTOM_F5, embedding=[[[1, 1], [9, 9]]]), None, None),
        (dict(CUSTOM_F5, embedding=[[1, 1, 0, 1]]), None, None),
        (dict(CUSTOM_F5, generators="[[1,0],[0,1]]@F5"), None, None),
        (dict(CUSTOM_F5, secret_domain=["1"]), None, None),
        (dict(CUSTOM_F5, p="5"), None, None),
        (dict(CUSTOM_F5, multiplicative="yes"), None, None),
        ({"p": 5}, None, None),
        ([CUSTOM_F5], None, None),
        (None, [["1", "1/2"]], None),
        (None, {"1": [1]}, None),
        (None, {"1": 0.5, "2": 0.5}, None),
        (None, {"1": "1/0", "2": "1"}, None),
        (None, {"1": "1/2", "7": "1/2"}, None),
        (None, {"1": "1/2", "-3": "1/2"}, None),
        (None, {" 1": "1/2", "2": "1/2"}, None),
        (dict(CUSTOM_F5, secret_domain=[1, 6]), None, None),
        (None, None, ["check", "--instance", "custom", "--p", "5",
                      "--generators", "[[2,0],[0,1]]@F5", "--secret-domain", "1,6"]),
        (None, None, ["check", "--instance", "custom", "--p", "5",
                      "--generators", "[[2,0],[0,1]]@F5", "--secret-domain=-1,2"]),
        (None, None, ["check", "--instance", "custom", "--p", "5",
                      "--generators", "[[2,0],[0,1]]@F5", "--t-domain", "0,5"]),
        (None, None, ["run", "--instance", "diagonal", "--p", "5", "--secret", "7"]),
        (None, None, ["search", "--p", "2", "--max-generators", "0"]),
        (None, None, ["search", "--p", "2", "--max-generators", "-1"]),
        (None, None, ["analyze", "--instance", "diagonal", "--p", "5", "--secret-domain", "+1,2"]),
        (None, None, ["analyze", "--instance", "diagonal", "--p", "5", "--secret-domain", "01,2"]),
        (None, None, ["analyze", "--instance", "diagonal", "--p", "5", "--t-domain", "\u0663,1"]),
        (None, None, ["analyze", "--instance", "diagonal", "--p", "5", "--secret-domain", "1,,2"]),
        (None, None, ["check", "--instance", "borel-embedded", "--p", "5", "--t-domain", "1"]),
        (None, None, ["check", "--instance", "diagonal", "--p", "5",
                      "--generators", "[[2,0],[0,1]]@F5"]),
        (None, None, ["check", "--instance", "trivial", "--secret-domain", "1"]),
        (None, None, ["run", "--instance", "rational", "--name", "q"]),
        (CUSTOM_F5, None, ["--t-domain", "1"]),
        (None, None, ["analyze", "--instance", "diagonal", "--p", "0", "--format", "human"]),
        (None, None, ["analyze", "--transcripts", "runs.json", "--p", "7", "--secret-domain", "1,2"]),
        (CUSTOM_F5, None, ["--p", "7"]),
        (None, None, ["demo", "--p", "7"]),
        (None, None, ["demo", "--rational", "--p", "7"]),
        (None, None, ["run", "--instance", "rational", "--p", "7"]),
        (None, None, ["demo", "--rational", "--instance", "diagonal"]),
        ({"kind": "custom", "p": 5, "generators": ["[[2,0],[0,1]]@F5"], "secret_domain": [1],
          "t_domain": [1], "embedding": [[[1, 1], [0, 1]], [[1, 1], [0, 2]]]}, None, None),
    ],
    ids=["no-p", "embedding-out-of-range", "embedding-shape", "generators-not-a-list",
         "string-domain", "string-p", "string-multiplicative", "no-kind", "list-descriptor",
         "list-prior", "list-mass", "float-mass", "zero-denominator-mass",
         "key-above-p", "negative-key", "padded-key", "descriptor-domain-above-p",
         "secret-domain-above-p", "negative-secret-domain", "t-domain-above-p",
         "secret-above-p", "zero-max-generators", "negative-max-generators",
         "plus-signed-domain", "zero-padded-domain", "arabic-indic-domain", "empty-domain-item",
         "borel-embedded-foreign-domain", "generators-on-a-named-kind", "domain-on-trivial",
         "name-on-rational", "domain-on-a-descriptor-file", "zero-p", "p-on-a-transcript-file",
         "p-on-a-descriptor-file", "p-on-the-scripted-demo", "p-on-rational-demo",
         "p-on-rational", "rational-and-instance", "embedding-repeats-a-pair"],
)
def test_malformed_descriptor_or_prior_exits_two_without_traceback(
    capsys, tmp_path, monkeypatch, descriptor, prior, argv
):
    # A transcript file that carries its own descriptor, for argv to name.
    monkeypatch.chdir(tmp_path)
    runs = {"config": {"descriptor": instance_to_descriptor(build_instance("diagonal", 5))},
            "transcripts": [GENUINE_DIAGONAL_F5]}
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    if descriptor is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(descriptor))
        argv = ["check", "--instance", str(path)] + (argv or [])
    elif prior is not None:
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(prior))
        argv = ["analyze", "--instance", "diagonal", "--p", "5", "--prior", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000,
                                  '{"a":' * 200_000 + "0" + "}" * 200_000], ids=["array", "object"])
@pytest.mark.parametrize("argv", [["analyze", "--transcripts"],
                                  ["analyze", "--instance", "diagonal", "--p", "3", "--prior"],
                                  ["check", "--instance"]], ids=["transcripts", "prior", "instance"])
def test_json_nested_too_deeply_to_decode_exits_two_without_traceback(capsys, tmp_path, text, argv):
    # The decoder recurses once per level and gives up with RecursionError,
    # which must read as malformed input, not crash the command.
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["diagonal", "rotation", "scalar", "borel-embedded", "trivial"])
def test_instance_construction_is_capped(capsys, kind):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", "--instance", kind, "--p", "1000000000000037")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: instance-construction:") and err.count("\n") == 1


def test_custom_closure_is_capped_while_it_runs(capsys):
    # <[[11,0],[0,1]], [[1,1],[1,0]]> is a large subgroup of GL2(F1009).
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", "--instance", "custom", "--p", "1009",
                           "--generators", "[[11,0],[0,1]]@F1009",
                           "--generators", "[[1,1],[1,0]]@F1009")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: instance-construction:") and err.count("\n") == 1


@pytest.mark.parametrize("t_domain", ["0", "1"])
def test_check_with_secrets_outside_the_blinding_domain(capsys, tmp_path, t_domain):
    # The checkers draw candidate blinding values from the secret domain,
    # so they must not need S inside T.
    from triplepass.actions import instance_from_descriptor

    out_file = tmp_path / "check.json"
    code, _, err = run_cli(capsys, "check", "--instance", "custom", "--p", "5",
                           "--generators", "[[2,0],[0,1]]@F5", "--secret-domain", "1,2",
                           "--t-domain", t_domain, "--out", str(out_file))
    assert code in (0, 1)
    assert "Traceback" not in err
    artifact = json.loads(out_file.read_text())
    instance = instance_from_descriptor(artifact["config"]["descriptor"])
    failing = [r for r in artifact["reports"] if r["verdict"] == "fail"]
    assert (code == 1) == bool(failing)
    for r in failing:
        report = ConditionReport(
            r["instance"], r["condition"], False, r["counterexample"], r["work"], r["detail"]
        )
        assert recheck_counterexample(instance, report)


def test_internal_invariant_failure_exits_four(capsys, monkeypatch):
    import triplepass.groups

    monkeypatch.setattr(triplepass.groups, "gl2_order", lambda p: -1)
    code, _, err = run_cli(capsys, "check", "--instance", "general-linear", "--p", "2")
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_a_non_normal_commutator_closure_is_an_internal_error(capsys, monkeypatch):
    # {I, diag(2, 1)} is a subgroup of GL2(F3) but not a normal one, so
    # commutator_subgroup's normality check must refuse it.
    import triplepass.groups as groups

    monkeypatch.setattr(groups, "residue_closure",
                        lambda p, gens, max_order=None: {(1, 0, 0, 1): None, (2, 0, 0, 1): None})
    groups.commutator_subgroup.cache_clear()
    try:
        code, _, err = run_cli(capsys, "check", "--instance", "general-linear", "--p", "3")
    finally:
        groups.commutator_subgroup.cache_clear()
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_a_census_candidate_is_an_internal_error(capsys, monkeypatch):
    # Transcript equivalence passes only when |S| = 1, so no census entry
    # can be a candidate; forcing every verdict to pass and every leakage
    # to zero makes one. p = 3, because every p = 2 instance has |S| = 1.
    import triplepass.actions as actions
    import triplepass.analysis as analysis

    def passing(*args, **kwargs):
        return ConditionReport("forced", "forced", True, None, 0)

    # The census reads the checkers through ``actions`` when it runs.
    for checker in ("is_commutator_fixed_set", "check_masking_coverage",
                    "check_transcript_equivalence"):
        monkeypatch.setattr(actions, checker, passing)
    monkeypatch.setattr(analysis, "exact_mutual_information",
                        lambda instance, **kwargs: analysis.LeakageReport(instance.name, 0.0, True, 0, {}))
    code, out, err = run_cli(capsys, "search", "--p", "3")
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_bare_internal_invariant_failure_names_itself(capsys, monkeypatch):
    import triplepass.actions

    def fail(*args, **kwargs):
        raise AssertionError

    # ``check`` reads the checkers through ``actions`` when it runs.
    monkeypatch.setattr(triplepass.actions, "check_masking_coverage", fail)
    code, _, err = run_cli(capsys, "check", "--instance", "diagonal", "--p", "5")
    assert (code, err) == (4, "internal error: an internal invariant failed\n")


class TestCheck:
    def test_trivial_instance_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--instance", "trivial", "--p", "5",
                               "--format", "human")
        assert code == 0
        assert "transcript-equivalence: pass" in out

    def test_diagonal_fails_equivalence(self, capsys, tmp_path):
        out_file = tmp_path / "check.json"
        code, _, _ = run_cli(capsys, "check", "--instance", "diagonal", "--p", "5",
                             "--out", str(out_file))
        assert code == 1
        artifact = json.loads(out_file.read_text())
        by_condition = {r["condition"]: r for r in artifact["reports"]}
        assert by_condition["comm-fixed-set"]["verdict"] == "pass"
        assert by_condition["masking-coverage"]["verdict"] == "pass"
        assert by_condition["transcript-equivalence"]["verdict"] == "fail"
        assert by_condition["transcript-equivalence"]["counterexample"]["s_prime"] == "2"

    def test_cap_exceeded_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "check", "--instance", "diagonal", "--p", "5",
                               "--cap", "10")
        assert code == 3
        assert "exceeds cap" in err

    def test_env_var_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIPLEPASS_CAP", "10")
        code, _, err = run_cli(capsys, "check", "--instance", "diagonal", "--p", "5")
        assert code == 3
        assert "exceeds cap" in err

    def test_general_linear_f5_fails_equivalence_with_a_confirmed_counterexample(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "check.json"
        code, _, _ = run_cli(capsys, "check", "--instance", "general-linear", "--p", "5",
                             "--out", str(out_file))
        assert code == 1
        (report,) = [
            r for r in json.loads(out_file.read_text())["reports"]
            if r["condition"] == "transcript-equivalence"
        ]
        swap = "[[0,1],[1,0]]@F5"
        assert report["counterexample"] == {"s": "1", "t": "1", "A": swap, "B": swap, "s_prime": "2"}
        failed = ConditionReport(report["instance"], report["condition"], False,
                                 report["counterexample"], report["work"])
        assert recheck_counterexample(build_instance("general-linear", 5), failed)

    def test_general_linear_f7_is_checked_under_the_default_cap(self, capsys, tmp_path):
        out_file = tmp_path / "check.json"
        code, _, err = run_cli(capsys, "check", "--instance", "general-linear", "--p", "7",
                               "--out", str(out_file))
        assert (code, err) == (1, "")
        by_condition = {r["condition"]: r for r in json.loads(out_file.read_text())["reports"]}
        assert by_condition["masking-coverage"]["verdict"] == "pass"
        report = by_condition["transcript-equivalence"]
        swap = "[[0,1],[1,0]]@F7"
        assert report["counterexample"] == {"s": "1", "t": "1", "A": swap, "B": swap, "s_prime": "2"}
        failed = ConditionReport(report["instance"], report["condition"], False,
                                 report["counterexample"], report["work"])
        assert recheck_counterexample(build_instance("general-linear", 7), failed)

    def test_descriptor_file_instance(self, capsys, tmp_path):
        from triplepass.actions import build_instance, instance_to_descriptor

        desc = instance_to_descriptor(build_instance("rotation", 5))
        desc_file = tmp_path / "rot5.json"
        desc_file.write_text(json.dumps(desc))
        code, out, _ = run_cli(capsys, "check", "--instance", str(desc_file),
                               "--format", "human")
        assert code == 1
        assert "comm-fixed-set: pass" in out


class TestSearch:
    def test_p2_search_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "search.json"
        code, _, _ = run_cli(capsys, "search", "--p", "2", "--out", str(out_file))
        assert code == 0
        artifact = json.loads(out_file.read_text())
        report = artifact["report"]
        assert report["complete"] is True
        assert report["subgroups_examined"] == 6
        assert report["candidates"] == []

    def test_cap_limited_search_flags_incomplete_and_exits_three(self, capsys, tmp_path):
        out_file = tmp_path / "search.json"
        code, _, _ = run_cli(capsys, "search", "--p", "3", "--cap", "500",
                             "--out", str(out_file))
        assert code == 3
        artifact = json.loads(out_file.read_text())
        assert artifact["report"]["complete"] is False

    def test_search_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "search", "--p", "2", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_p5_census_artifact_matches_its_pinned_digest(self, capsys, tmp_path):
        # sha256 of `search --p 5` as written before the census closed
        # cyclic-subgroup joins instead of every generator pair: 461
        # subgroups, 533 entries, the same bytes.
        out_file = tmp_path / "search.json"
        assert run_cli(capsys, "search", "--p", "5", "--out", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "f98f8dd59f88ba5d412c09304e63d904b2388777346693ea871b14facbf4c478"
        )


class TestCustomInstances:
    def test_inline_custom_generators(self, capsys, tmp_path):
        out_file = tmp_path / "leak.json"
        code, _, _ = run_cli(
            capsys, "analyze", "--instance", "custom", "--p", "3",
            "--generators", "[[1,0],[0,1]]@F3", "--out", str(out_file),
        )
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["report"]["mutual_information_bits"] == 1.0

    def test_instance_flags_reach_named_kinds(self, capsys, tmp_path):
        out_file = tmp_path / "leak.json"
        code, _, _ = run_cli(capsys, "analyze", "--instance", "diagonal", "--p", "5",
                             "--secret-domain", "1,2", "--name", "pair", "--out", str(out_file))
        assert code == 0
        artifact = json.loads(out_file.read_text())
        assert artifact["config"]["descriptor"]["secret_domain"] == [1, 2]
        assert artifact["config"]["instance"] == "pair"
        assert artifact["report"]["mutual_information_bits"] == 1.0

    def test_missing_instance_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check")
        assert code == 2
        assert "instance" in err
