import pytest

from certattack.cli import main
from test_experiment import write_config


class TestCli:
    def test_train_writes_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "params.bin").exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_certify_writes_csv(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["certify", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "certificates.csv").read_text()
        assert text.startswith("node,true_label,smoothed_label")

    def test_attack_evasion_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["attack-evasion", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "attack_report.csv").exists()
        assert (tmp_path / "out" / "delta_edges.tsv").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_attack_poisoning_runs(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["attack-poisoning", "--config", str(config)]) == 0

    def test_sweep_success_exit_code(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "raw_results.csv").exists()

    def test_sweep_partial_exit_code(self, tmp_path):
        config = write_config(tmp_path, axis="beta", values="0.9,1.5",
                              seeds="0")
        assert main(["sweep", "--config", str(config)]) == 3

    def test_config_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, axis="bogus")
        assert main(["sweep", "--config", str(config)]) == 1

    def test_sweep_flags_only_on_sweep(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--jobs", "2"])
        assert exc.value.code == 2  # argparse: unrecognized argument

    def test_missing_config_is_config_error(self):
        assert main(["train", "--config", "/nonexistent/config.ini"]) == 1

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        import numpy as np
        config = write_config(tmp_path)
        text = (tmp_path / "config.ini").read_text()
        (tmp_path / "config.ini").write_text(
            text.replace("learning_rate = 0.1", "learning_rate = 1e9"))
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config)]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_report_distribution_pipeline(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["certify", "--config", str(config)]) == 0
        assert main(["attack-evasion", "--config", str(config)]) == 0
        out = tmp_path / "out"
        code = main(["report-distribution",
                     "--delta", str(out / "delta_edges.tsv"),
                     "--certificates", str(out / "certificates.csv"),
                     "--out", str(out)])
        assert code == 0
        text = (out / "distribution.csv").read_text()
        assert text.startswith("certified_size,edge_count")

    def test_profile(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["profile", "--config", str(config),
                     "--samples", "3,6"]) == 0
        assert (tmp_path / "out" / "runtime_profile.csv").exists()
        assert "N=3" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--seed", "7"]) == 0
        raw = (tmp_path / "out" / "raw_results.csv").read_text()
        seeds = {line.split(",")[0] for line in raw.splitlines()[1:]}
        assert seeds == {"7"}

    @pytest.mark.parametrize("line", ["3 5", "4\t4\tadd", "2\tx\tadd",
                                      "-1\t2\tadd"])
    def test_report_distribution_bad_delta_is_config_error(self, tmp_path,
                                                           capsys, line):
        delta = tmp_path / "delta.tsv"
        delta.write_text(f"0\t1\tadd\n{line}\n")
        certs = tmp_path / "certificates.csv"
        certs.write_text("node,K\n0,1\n5,0\n")
        code = main(["report-distribution", "--delta", str(delta),
                     "--certificates", str(certs), "--out", str(tmp_path)])
        assert code == 1
        assert f"config error: {delta}:2" in capsys.readouterr().err
