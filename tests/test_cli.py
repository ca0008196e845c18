import csv
import struct

import numpy as np
import pytest
from scipy.special import expit

from certattack import (NoiseSpec, certified_size, cli, init_params,
                        lower_bound_prob, parse_config, save_params,
                        smoothing)
from certattack.cli import main
from test_experiment import FLOAT_KEYS, readme_config, write_config


def poisoning_config(tmp_path):
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("mode = evasion",
                                                 "mode = poisoning"))
    return config


def record_reports(monkeypatch) -> list:
    """The list that each report of the CLI's run_attack is appended to."""
    reports = []
    run_attack = cli.run_attack

    def recording(*args):
        reports.append(run_attack(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "run_attack", recording)
    return reports


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

    @pytest.mark.parametrize("beta", [0.9, 0.6])
    def test_certify_prints_k_max(self, tmp_path, capsys, beta):
        # write_config's N = 10 and alpha = 0.1 give K(10) = 0 at beta 0.9
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("beta = 0.9",
                                                     f"beta = {beta}"))
        k_max = certified_size(lower_bound_prob(10, 10, 0.1), NoiseSpec(beta))
        assert (k_max == 0) == (beta == 0.9)
        assert main(["certify", "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert f"K > 0, K_max {k_max} at N=10) -> " in out
        assert ("every certified weight is expit(0) = 0.5" in out) == (
            k_max == 0)
        assert err == ""

    def test_attack_evasion_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["attack", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "attack_report.csv").exists()
        assert (tmp_path / "out" / "delta_edges.tsv").exists()
        out = capsys.readouterr().out
        assert out.startswith("evasion attack:") and "accuracy" in out

    def test_attack_runs_the_config_scheme(self, tmp_path, capsys,
                                           monkeypatch):
        # [attack] scheme = certified, and the sweep lists uniform first:
        # attack runs the [attack] keys, not the first sweep cell.
        config = write_config(tmp_path)
        reports = record_reports(monkeypatch)
        assert main(["attack", "--config", str(config)]) == 0
        assert "scheme=certified" in capsys.readouterr().out
        [report] = reports
        assert len(report.weights_history) == 2  # refreshes at t = 0, 3
        assert report.cert_seconds > 0.0

    @pytest.mark.parametrize("mode, edits", [
        ("evasion", {}), ("poisoning", {}),
        ("evasion", {"beta": 0.9})])  # K of 0 and 1, not all 0
    def test_certify_writes_the_attacks_first_certificates(
            self, tmp_path, monkeypatch, mode, edits):
        # the attack's first weights are expit(-a K) of certify's K column
        config = readme_config(tmp_path, mode, **edits)
        reports = record_reports(monkeypatch)
        assert main(["certify", "--config", str(config)]) == 0
        assert main(["attack", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "certificates.csv", newline="") as fh:
            sizes = np.array([int(row["K"]) for row in csv.DictReader(fh)])
        assert edits == {} or len(set(sizes)) > 1
        t, weights = reports[0].weights_history[0]
        a = parse_config(config).attack.scheme.a
        assert t == 0 and weights.tobytes() == expit(-a * sizes).tobytes()

    def test_certify_trains_every_poisoning_replicate(self, tmp_path,
                                                       monkeypatch):
        # beta 0.999 and N = 20 give K(20) = 0, so an attack's refresh
        # stops after its first block of 10; certify's bounds need all 20
        config = readme_config(tmp_path, "poisoning")
        trained = []
        train_arrays = smoothing.train_arrays

        def recording(noisy, *rest):
            trained.append(len(noisy))
            return train_arrays(noisy, *rest)

        monkeypatch.setattr(smoothing, "train_arrays", recording)
        assert main(["certify", "--config", str(config)]) == 0
        assert sum(trained) == 20
        with open(tmp_path / "out" / "certificates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["N"] == "20" for row in rows)

    def test_train_and_certify_ignore_the_sweep_values(self, tmp_path):
        # an out-of-range sweep value fails its sweep cell, not train or
        # certify, which run the config's own beta
        config = write_config(tmp_path, axis="beta", values="1.5",
                              seeds="0")
        assert main(["train", "--config", str(config)]) == 0
        assert main(["certify", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "certificates.csv").read_text()
        assert text.splitlines()[1].split(",")[6] == "0.9"
        assert main(["sweep", "--config", str(config)]) == 3

    def test_attack_poisoning_runs(self, tmp_path, capsys):
        config = poisoning_config(tmp_path)
        assert main(["attack", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("poisoning attack:")

    @pytest.mark.parametrize("command", ["attack-evasion",
                                         "attack-poisoning"])
    def test_mode_is_read_from_the_config(self, tmp_path, command):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config)])
        assert exc.value.code == 2  # argparse: invalid choice

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

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("edit, flags", [
        (("seeds = 0,1", "seeds = -1"), []),
        (("seed = 0", "seed = -2"), []),
        (None, ["--seed", "-3"])],
        ids=["split-seeds", "dataset-seed", "seed-flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command,
                                           edit, flags):
        # numpy's generators take no negative seed; it is refused before
        # any cell runs or any output directory is made
        config = write_config(tmp_path)
        if edit:
            config.write_text(config.read_text().replace(*edit))
        assert main([command, "--config", str(config), *flags]) == 1
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_flags_only_on_sweep(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--jobs", "2"])
        assert exc.value.code == 2  # argparse: unrecognized argument

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.ini"],
                                      ["--seed", "7"]])
    def test_report_distribution_takes_no_config_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["report-distribution", "--delta", str(tmp_path / "d.tsv"),
                  "--certificates", str(tmp_path / "c.csv"), *flag])
        assert exc.value.code == 2  # argparse: unrecognized argument

    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_is_config_error(self, tmp_path, capsys,
                                              section, key):
        config = tmp_path / "config.ini"
        for raw in ("nan", "inf", "-inf"):
            config.write_text(f"[{section}]\n{key} = {raw}\n")
            assert main(["attack", "--config", str(config)]) == 1
            assert (f"config error: bad value for {key}: '{raw}'"
                    in capsys.readouterr().err)

    def test_missing_config_is_config_error(self):
        assert main(["train", "--config", "/nonexistent/config.ini"]) == 1

    @pytest.mark.parametrize("text", [
        "[train]\nepochs = 5\nepochs = 6\n",  # a key given twice
        "epochs = 5\n[train]\n",  # a line before any section
        "[attack]\nstep_size = 10%\n"],  # a bare % interpolation
        ids=["duplicate", "no-section", "interpolation"])
    def test_config_syntax_error_is_config_error(self, tmp_path, capsys,
                                                 text):
        config = tmp_path / "config.ini"
        config.write_text(text)
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {config}: " in capsys.readouterr().err

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
        assert main(["attack", "--config", str(config)]) == 0
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
        assert main(["sweep", "--config", str(config), "--seed", "7",
                     "--out", str(tmp_path / "seven")]) == 0
        assert not (tmp_path / "out").exists()
        raw = (tmp_path / "seven" / "raw_results.csv").read_text()
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

    @pytest.mark.parametrize("text, line", [("node,k\n0,1\n", 1),
                                            ("node,K\n0,1\n1,x\n", 3),
                                            ("node,K\n0,-1\n", 2)])
    def test_report_distribution_bad_certificates_is_config_error(
            self, tmp_path, capsys, text, line):
        delta = tmp_path / "delta.tsv"
        delta.write_text("0\t1\tadd\n")
        certs = tmp_path / "certificates.csv"
        certs.write_text(text)
        code = main(["report-distribution", "--delta", str(delta),
                     "--certificates", str(certs), "--out", str(tmp_path)])
        assert code == 1
        assert f"config error: {certs}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["delta", "certificates"])
    def test_report_distribution_missing_file_is_config_error(
            self, tmp_path, capsys, missing):
        files = {"delta": tmp_path / "delta.tsv",
                 "certificates": tmp_path / "certificates.csv"}
        files["delta"].write_text("0\t1\tadd\n")
        files["certificates"].write_text("node,K\n0,1\n1,0\n")
        files[missing].unlink()
        code = main(["report-distribution", "--delta", str(files["delta"]),
                     "--certificates", str(files["certificates"]),
                     "--out", str(tmp_path)])
        assert code == 1
        assert (f"config error: {files[missing]}: cannot read"
                in capsys.readouterr().err)

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        params = tmp_path / "missing.bin"
        assert main(["certify", "--config", str(config),
                     "--params", str(params)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(params) in err

    def test_short_checkpoint_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        params = tmp_path / "short.bin"
        params.write_bytes(b"GCNPARAM\x01\x00")
        assert main(["certify", "--config", str(config),
                     "--params", str(params)]) == 1
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_oversized_checkpoint_header_is_config_error(self, tmp_path,
                                                          capsys):
        config = write_config(tmp_path)
        params = tmp_path / "huge.bin"
        params.write_bytes(b"GCNPARAM" + struct.pack("<QQQ", 1, 2**40, 2**40))
        assert main(["certify", "--config", str(config),
                     "--params", str(params)]) == 1
        assert "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [(5, 8, 2), (4, 8, 3)])
    def test_checkpoint_of_another_graph_is_config_error(self, tmp_path,
                                                         capsys, dims):
        # the test config's graph has 4 features and 2 classes
        config = write_config(tmp_path)
        params = tmp_path / "params.bin"
        save_params(init_params(*dims, seed=0), params)
        assert main(["certify", "--config", str(config),
                     "--params", str(params)]) == 1
        err = capsys.readouterr().err
        assert f"W1 {dims[:2]} and W2 {dims[1:]}" in err

    def test_params_is_config_error_in_poisoning_mode(self, tmp_path,
                                                      capsys):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        params = tmp_path / "out" / "params.bin"
        assert main(["certify", "--config", str(config),
                     "--params", str(params)]) == 0
        assert main(["certify", "--config", str(poisoning_config(tmp_path)),
                     "--params", str(params)]) == 1
        assert "--params is for evasion only" in capsys.readouterr().err

    def test_profile_bad_samples_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["profile", "--config", str(config),
                     "--samples", "3,x"]) == 1
        assert "bad value for num_samples: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [",", "", " , "])
    def test_profile_without_counts_is_config_error(self, tmp_path, capsys,
                                                    samples):
        config = write_config(tmp_path)
        assert main(["profile", "--config", str(config),
                     "--samples", samples]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "runtime_profile.csv").exists()
