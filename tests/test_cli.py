import json

from gbbmlab.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestTable:
    def test_default_p_list_is_the_full_table(self, tmp_path):
        assert run(tmp_path, "table") == 0
        doc = json.loads((tmp_path / "table.json").read_text())
        assert [r["p"] for r in doc["result"]] == [
            4.1, 4.5, 5.0, 6.0, 6.5, 10.0, 30.0, 50.0, 70.0, 100.0
        ]
        assert all(r["negative"] for r in doc["result"])

    def test_small_table(self, tmp_path):
        assert run(tmp_path, "table", "--p-list", "4.5,5") == 0
        csv = (tmp_path / "table.csv").read_text()
        assert csv.startswith("# schema=gbbmlab/1 command=table")
        assert "p,c0,form_value,negative" in csv
        doc = json.loads((tmp_path / "table.json").read_text())
        assert doc["schema"] == "gbbmlab/1"
        assert len(doc["result"]) == 2
        assert all(r["negative"] for r in doc["result"])

    def test_deterministic_output(self, tmp_path):
        run(tmp_path / "a", "table", "--p-list", "5,6")
        run(tmp_path / "b", "table", "--p-list", "5,6")
        assert (tmp_path / "a" / "table.csv").read_bytes() == (
            tmp_path / "b" / "table.csv"
        ).read_bytes()

    def test_worker_pool_identical(self, tmp_path):
        run(tmp_path / "a", "table", "--p-list", "5,6")
        assert main(["table", "--p-list", "5,6", "--workers", "2",
                     "--out", str(tmp_path / "c")]) == 0
        a = (tmp_path / "a" / "table.csv").read_text().splitlines()[1:]
        c = (tmp_path / "c" / "table.csv").read_text().splitlines()[1:]
        assert a == c

    def test_empty_p_list_usage_error(self, tmp_path):
        assert run(tmp_path, "table", "--p-list", "") == 64

    def test_subcritical_p_usage_error(self, tmp_path):
        assert run(tmp_path, "table", "--p-list", "3.5") == 64


class TestOtherCommands:
    def test_identities(self, tmp_path):
        assert run(tmp_path, "identities", "--p", "5") == 0
        doc = json.loads((tmp_path / "identities.json").read_text())
        assert all(r["rel_error"] < 1e-8 for r in doc["result"])

    def test_spectrum(self, tmp_path):
        assert run(tmp_path, "spectrum", "--p", "5", "--N", "2048") == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["result"]["negative_count"] == 1

    def test_coercivity_reports_claim_failure(self, tmp_path):
        # the command reports the literal positivity claim, which the package
        # refutes (the minimum on {phi', kappa} is negative): exit 2, and the
        # report is still written
        assert run(tmp_path, "coercivity", "--p", "5", "--N", "1024") == 2
        doc = json.loads((tmp_path / "coercivity.json").read_text())
        assert doc["result"]["constrained_min"] < 0.0
        # the resolution sequence does not depend on --N; N = 1024 is in it
        seq = doc["result"]["resolution"]
        assert [r["N"] for r in seq] == [1024, 2048, 4096, 8192, 16384]
        assert seq[0]["constrained_min"] == doc["result"]["constrained_min"]
        mins = [r["constrained_min"] for r in seq]
        assert all(a < b < 0.0 for a, b in zip(mins, mins[1:]))

    def test_evolve(self, tmp_path):
        assert run(tmp_path, "evolve", "--p", "5", "--N", "2048",
                   "--dt", "0.002", "--t-end", "1") == 0
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["result"]["energy_drift"] < 1e-8

    def test_instability_reports_sign_flip(self, tmp_path):
        # the command reports the literal positivity claim; the increments
        # are definite-signed negative, which the exit-code contract maps to 2
        assert run(tmp_path, "instability", "--p", "5", "--a", "0.01",
                   "--N", "2048", "--dt", "0.002", "--t-end", "3") == 2
        doc = json.loads((tmp_path / "instability.json").read_text())
        assert doc["result"]["verdict"] == "monotone-decreasing"
        assert doc["result"]["mode"] == "fit"


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nN = 1024\n# comment\nt_end = 1\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "spectrum", "--N", "2048",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["config"]["N"] == 2048  # flag wins
        assert doc["config"]["p"] == 5.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 1\n")
        assert main(["--config", str(cfg), "spectrum", "--out", str(tmp_path)]) == 64

    def test_bad_format_rejected(self, tmp_path):
        assert run(tmp_path, "identities", "--p", "5", "--format", "yaml") == 64

    def test_format_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        assert main(["--config", str(cfg), "identities", "--out", str(tmp_path)]) == 64
