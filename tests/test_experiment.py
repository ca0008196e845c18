import configparser
import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from certattack import (AttackReport, Certificate, NoiseSpec,
                        ParameterError, Perturbation, SmoothingConfig,
                        build_dataset, init_params, parse_config,
                        prepare_cell, report_distribution, run_sweep,
                        runtime_profile, save_params, write_certificates_csv,
                        write_delta_edges, write_report_csv)
from certattack import experiment
from certattack.cli import main
from certattack.experiment import (SWEEP_AXES, DatasetConfig,
                                   ExperimentConfig, parse_key, run_cell)
from oracles import low_size_fraction

BASE_CONFIG = """
[dataset]
kind = sbm
n = 30
communities = 2
p_in = 0.3
p_out = 0.02
feature_dim = 4
seed = 0

[split]
train_ratio = 0.2
val_ratio = 0.1
test_ratio = 0.7
seeds = {seeds}

[train]
learning_rate = 0.1
epochs = 60
hidden_dim = 8

[attack]
mode = evasion
budget_ratio = {budget_ratio}
iterations = 6
refresh_interval = 3
step_size = 0.2
num_samples = 10
alpha = 0.1
beta = 0.9
scheme = certified
discretize_trials = 4

[sweep]
axis = {axis}
values = {values}

[output]
directory = {out}
"""


def write_config(tmp_path, name="config.ini", seeds="0,1", axis="scheme",
                 values="uniform,certified", budget_ratio="0.1", out=None):
    out = out or (tmp_path / "out")
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(seeds=seeds, axis=axis, values=values,
                                       budget_ratio=budget_ratio, out=out))
    return path


def readme_config(tmp_path, mode="evasion", **edits):
    """The README's example config with the given keys set, writing to
    tmp_path / "out"; in poisoning mode with the iterations, refresh
    interval and N of CI's poisoning runs (10, 5, 20)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    if mode == "poisoning":
        edits = dict(mode=mode, iterations=10, refresh_interval=5,
                     num_samples=20, **edits)
    for key, value in dict(directory=tmp_path / "out", **edits).items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path = tmp_path / f"{mode}.ini"
    path.write_text(text)
    return path


# (section, key) of every float key; each rejects NaN and +-inf.
FLOAT_KEYS = [(section, key) for section, keys in experiment.KEYS.items()
              for key, parse in keys.items() if parse is float]


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.dataset.n == 30
        assert config.seeds == (0, 1)
        assert config.sweep_axis == "scheme"
        assert config.sweep_values == ("uniform", "certified")
        assert config.attack.noise.beta == 0.9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError):
            parse_config(tmp_path / "absent.ini")

    def test_bad_axis(self, tmp_path):
        path = write_config(tmp_path, axis="nonsense")
        with pytest.raises(ParameterError):
            parse_config(path)

    def test_files_dataset_needs_paths(self):
        with pytest.raises(ParameterError):
            DatasetConfig(kind="files")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(dataset=DatasetConfig(), seeds=())

    def test_non_numeric_sweep_value_rejected(self, tmp_path):
        path = write_config(tmp_path, axis="beta", values="0.9,abc")
        with pytest.raises(ParameterError, match="abc"):
            parse_config(path)

    @pytest.mark.parametrize("edit, message", [
        (("learning_rate = 0.1", "learnig_rate = 7"),
         r"unknown key 'learnig_rate' in section \[train\]"),
        (("seeds = 0,1", "seeds = 0,x"), r"bad value for seeds: '0,x'"),
        (("[attack]", "[atack]"), r"unknown config section \[atack\]"),
    ])
    def test_bad_key_is_config_error(self, tmp_path, capsys, edit, message):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(*edit))
        with pytest.raises(ParameterError, match=message):
            parse_config(path)
        assert main(["train", "--config", str(path)]) == 1
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_is_bad_value(self, section, key):
        for raw in ("nan", "NaN", "inf", "-inf", "Infinity"):
            with pytest.raises(ParameterError,
                               match=f"bad value for {key}: '{raw}'"):
                parse_key(section, key, raw)

    def test_missing_keys_keep_dataclass_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[attack]\nbeta = 0.95\n")
        default = ExperimentConfig(DatasetConfig())
        assert parse_config(path) == replace(
            default, attack=replace(default.attack, noise=NoiseSpec(0.95)))

    def test_poisoning_mode_defaults(self, tmp_path):
        path = tmp_path / "poison.ini"
        path.write_text("[attack]\nmode = poisoning\niterations = 7\n")
        attack = parse_config(path).attack
        assert (attack.iterations, attack.refresh_interval,
                attack.smoothing.num_samples) == (7, 2, 20)

    def test_readme_config_lists_every_key(self, tmp_path):
        path = readme_config(tmp_path)
        parse_config(path)
        listed = configparser.ConfigParser(inline_comment_prefixes=("#",))
        listed.read(path)
        assert {section: set(listed[section]) for section in listed.sections()
                } == {section: set(keys)
                      for section, keys in experiment.KEYS.items()}


# Per sweep axis: a value unlike BASE_CONFIG's, and whether a prepared
# cell's (graph, attack config) carries it.
SWEPT = {
    "budget_ratio": ("0.3", lambda graph, attack:
                     attack.budget == int(0.3 * graph.num_edges)),
    "beta": ("0.6", lambda graph, attack: attack.noise.beta == 0.6),
    "alpha": ("0.05", lambda graph, attack: attack.smoothing.alpha == 0.05),
    "num_samples": ("7", lambda graph, attack:
                    attack.smoothing.num_samples == 7),
    "sharpness": ("2.5", lambda graph, attack: attack.scheme.a == 2.5),
    "scheme": ("degree", lambda graph, attack: attack.scheme.tag == "degree"),
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_value_reaches_cell(tmp_path, axis):
    value, carries = SWEPT[axis]
    base = parse_config(write_config(tmp_path, name="base.ini", seeds="0"))
    graph, _, _, attack = prepare_cell(base, 0, "certified")
    assert not carries(graph, attack)
    config = parse_config(write_config(tmp_path, axis=axis, values=value,
                                       seeds="0"))
    graph, _, _, attack = prepare_cell(config, 0, value)
    assert carries(graph, attack)


def sweep_writer(tmp_path, resume):
    run_sweep(parse_config(write_config(tmp_path, seeds="0,1",
                                        values="uniform")), resume=resume)


# Each output file -> a call that writes it into tmp_path / "out"; its
# second argument picks one of two contents (for a sweep, a --resume pass).
WRITERS = {
    **dict.fromkeys(("raw_results.csv", "summary.csv", "timings.csv"),
                    sweep_writer),
    "certificates.csv": lambda tmp_path, v: write_certificates_csv(
        [Certificate(node, 0, np.array([9 - v, 1 + v]), 0, 0.6, node)
         for node in range(3)], NoiseSpec(0.9), SmoothingConfig(10, 0.1),
        tmp_path / "out" / "certificates.csv"),
    "attack_report.csv": lambda tmp_path, v: write_report_csv(AttackReport(
        Perturbation(np.zeros(3), 1, np.zeros(3, dtype=np.int8)), 1.0,
        0.5 + v / 10, np.arange(3.0), np.ones(3), []), "uniform",
        tmp_path / "out" / "attack_report.csv"),
    "delta_edges.tsv": lambda tmp_path, v: write_delta_edges(
        np.array([1, v, 1, 0, 1, 0], dtype=np.int8),
        np.zeros((4, 4), dtype=np.int8), tmp_path / "out" / "delta_edges.tsv"),
    "params.bin": lambda tmp_path, v: save_params(
        init_params(5, 4, 3, seed=v), tmp_path / "out" / "params.bin"),
}


class TestRunSweep:
    def test_zero_budget_rows_are_identity(self, tmp_path):
        config = parse_config(write_config(
            tmp_path, axis="budget_ratio", values="0.0", seeds="0"))
        rows = run_sweep(config)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].post_accuracy == rows[0].pre_accuracy
        assert rows[0].budget_used == 0

    def test_scheme_axis_cardinality(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="3"))
        rows = run_sweep(config)
        assert len(rows) == 2
        assert sorted(r.scheme for r in rows) == ["certified", "uniform"]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        raw = (tmp_path / "out" / "raw_results.csv").read_bytes()
        summary = (tmp_path / "out" / "summary.csv").read_bytes()
        run_sweep(config)
        assert (tmp_path / "out" / "raw_results.csv").read_bytes() == raw
        assert (tmp_path / "out" / "summary.csv").read_bytes() == summary

    def test_resume_skips_done_cells_and_matches(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        rows = run_sweep(config, resume=True)  # no raw CSV yet: runs all
        raw = (tmp_path / "out" / "raw_results.csv").read_bytes()
        partial = [r for r in rows if r.seed == 0]
        path = tmp_path / "out" / "raw_results.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "axis", "value", "scheme",
                             "pre_accuracy", "post_accuracy", "budget_used",
                             "status", "reason"])
            for row in partial:
                writer.writerow([row.seed, row.axis, row.value, row.scheme,
                                 repr(row.pre_accuracy),
                                 repr(row.post_accuracy), row.budget_used,
                                 row.status, row.reason])
        run_sweep(config, resume=True)
        assert path.read_bytes() == raw

    @pytest.mark.parametrize("line, field, text", [
        (1, 7, "state"), (3, 4, "high"), (2, 6, "1.5"), (3, 5, None)],
        ids=["foreign-header", "accuracy", "budget", "missing-field"])
    def test_resume_rejects_a_malformed_raw_csv(self, tmp_path, line, field,
                                                text):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        path = tmp_path / "out" / "raw_results.csv"
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        records[line - 1][field:field + 1] = [] if text is None else [text]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        with pytest.raises(ParameterError, match=f"raw_results.csv:{line}:"):
            run_sweep(config, resume=True)
        assert main(["sweep", "--config", str(tmp_path / "config.ini"),
                     "--resume"]) == 1

    @pytest.mark.parametrize("name", WRITERS,
                             ids=[name.split(".")[0] for name in WRITERS])
    def test_crash_while_writing_keeps_the_previous_csvs(
            self, tmp_path, monkeypatch, name):
        # a write of the file that fails partway leaves its previous bytes
        # (for a sweep CSV, for --resume) and no temp file; the writer
        # made the directory
        out = tmp_path / "out"
        WRITERS[name](tmp_path, 0)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert name in before

        def full_disk_open(file, *args, **kwargs):  # its 2nd write fails
            fh = open(file, *args, **kwargs)
            real_write, writes = fh.write, []

            def write(data):
                writes.append(data)
                if len(writes) > 1:
                    raise OSError("no space left on device")
                return real_write(data)

            if Path(file).name == f".{name}.tmp":
                fh.write = write
            return fh

        monkeypatch.setattr(experiment, "open", full_disk_open,
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            WRITERS[name](tmp_path, 1)
        assert {path.name: path.read_bytes()
                for path in out.iterdir()} == before

    @pytest.mark.parametrize("line, field, text", [
        (1, 3, "attack_s"), (2, 3, "fast"), (3, 4, None)],
        ids=["foreign-header", "seconds", "missing-field"])
    def test_resume_rejects_malformed_timings(self, tmp_path, line, field,
                                              text):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        path = tmp_path / "out" / "timings.csv"
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        records[line - 1][field:field + 1] = [] if text is None else [text]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        with pytest.raises(ParameterError, match=f"timings.csv:{line}:"):
            run_sweep(config, resume=True)
        assert main(["sweep", "--config", str(tmp_path / "config.ini"),
                     "--resume"]) == 1

    def test_resume_retries_failed_cells(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        path = tmp_path / "out" / "raw_results.csv"
        raw = path.read_bytes()
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        records[2][4:9] = ["", "", "", "failed", "boom"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        run_sweep(config, resume=True)
        assert path.read_bytes() == raw

    def test_resume_keeps_timings(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        out = tmp_path / "out"
        with open(out / "timings.csv", newline="") as fh:
            first = list(csv.reader(fh))
        with open(out / "raw_results.csv", newline="") as fh:
            records = list(csv.reader(fh))
        with open(out / "raw_results.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(records[:-1])
        run_sweep(config, resume=True)
        with open(out / "timings.csv", newline="") as fh:
            resumed = list(csv.reader(fh))
        assert len(resumed) == len(first) == len(records)
        assert resumed[:-1] == first[:-1]
        assert float(resumed[-1][3]) > 0.0

    def test_failed_cell_recorded_not_fatal(self, tmp_path):
        config = parse_config(write_config(
            tmp_path, axis="beta", values="0.9,1.5", seeds="0"))
        rows = run_sweep(config)
        by_value = {r.value: r for r in rows}
        assert by_value["0.9"].status == "ok"
        assert by_value["1.5"].status == "failed"
        assert "beta" in by_value["1.5"].reason

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, TypeError])
    def test_only_runtime_failures_become_rows(self, tmp_path, monkeypatch,
                                              error):
        def broken_attack(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(experiment, "pgd_evasion", broken_attack)
        config = parse_config(write_config(tmp_path, seeds="0",
                                           values="uniform"))
        if error is TypeError:  # a bug: it must crash, not become a row
            with pytest.raises(TypeError):
                run_cell(config, 0, "uniform")
        else:
            row = run_cell(config, 0, "uniform")
            assert row.status == "failed" and row.reason == "boom"

    def test_summary_recomputable_from_raw(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1,2"))
        rows = run_sweep(config)
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            summary = {(r["value"], r["scheme"]): r
                       for r in csv.DictReader(fh)}
        for (value, scheme), rec in summary.items():
            group = [r.post_accuracy for r in rows
                     if r.value == value and r.scheme == scheme
                     and r.status == "ok"]
            assert float(rec["mean_post"]) == pytest.approx(
                float(np.mean(group)), abs=1e-12)
            assert float(rec["std_post"]) == pytest.approx(
                float(np.std(group)), abs=1e-12)

    def test_parallel_jobs_match_serial(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0,1"))
        run_sweep(config)
        raw = (tmp_path / "out" / "raw_results.csv").read_bytes()
        config2 = parse_config(write_config(tmp_path, name="config2.ini",
                                            seeds="0,1",
                                            out=tmp_path / "out2"))
        run_sweep(config2, jobs=2)
        assert (tmp_path / "out2" / "raw_results.csv").read_bytes() == raw

    def test_jobs_bounded_by_pending_cells(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and maps serially, so no
        # worker process is ever started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        config = parse_config(write_config(tmp_path, seeds="0",
                                           values="uniform,degree"))
        rows = run_sweep(config, jobs=64)
        assert sizes == [2]
        assert [r.status for r in rows] == ["ok", "ok"]
        run_sweep(config, jobs=64, resume=True)  # nothing pending
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_config_error(self, tmp_path, jobs):
        config = write_config(tmp_path)
        with pytest.raises(ParameterError, match="jobs"):
            run_sweep(parse_config(config), jobs=jobs)
        assert main(["sweep", "--config", str(config),
                     "--jobs", str(jobs)]) == 1
        assert not (tmp_path / "out").exists()


class TestFilesDataset:
    def test_files_cell_matches_sbm_cell(self, tmp_path):
        config = write_config(tmp_path, seeds="0", values="certified")
        graph = build_dataset(parse_config(config).dataset)
        rows, cols = np.nonzero(np.triu(graph.adjacency, k=1))
        paths = {name: tmp_path / name
                 for name in ("edges.tsv", "features.csv", "labels.txt")}
        paths["edges.tsv"].write_text(
            "".join(f"{s}\t{t}\n" for s, t in zip(rows, cols)))
        paths["features.csv"].write_text("".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in graph.features))
        paths["labels.txt"].write_text(
            "".join(f"{y}\n" for y in graph.labels))
        files = tmp_path / "files.ini"
        files.write_text(re.sub(
            r"\[dataset\][^[]*",
            "[dataset]\nkind = files\n" + "".join(
                f"{key} = {paths[name]}\n" for key, name in
                (("edges", "edges.tsv"), ("features", "features.csv"),
                 ("labels", "labels.txt"))) + "\n",
            config.read_text()))
        from_files = parse_config(files)
        assert from_files.dataset.kind == "files"
        loaded = build_dataset(from_files.dataset)
        assert np.array_equal(loaded.adjacency, graph.adjacency)
        assert np.array_equal(loaded.features, graph.features)
        untimed = lambda row: replace(row, attack_seconds=0.0,
                                      cert_seconds=0.0)
        want = untimed(run_cell(parse_config(config), 0, "certified"))
        got = untimed(run_cell(from_files, 0, "certified"))
        assert want.status == "ok"
        assert got == want


class TestReportDistribution:
    def test_empty_delta(self, tmp_path):
        hist = report_distribution(np.zeros(6, dtype=np.int8), [],
                                   tmp_path / "d.csv")
        assert hist == {}

    def test_single_edge_maps_to_both_endpoints(self):
        # pair (0, 1) perturbed; endpoints certified at K=1 and K=3
        certs = [Certificate(0, 0, np.array([1]), 0, 0.9, 1),
                 Certificate(1, 0, np.array([1]), 0, 0.9, 3)]
        delta = np.zeros(6, dtype=np.int8)
        delta[0] = 1
        hist = report_distribution(delta, certs)
        assert hist == {1: 1, 3: 1}

    def test_untracked_edge_goes_to_none(self):
        certs = [Certificate(0, 0, np.array([1]), 0, 0.9, 1)]
        delta = np.zeros(6, dtype=np.int8)
        delta[5] = 1  # pair (2, 3)
        hist = report_distribution(delta, certs)
        assert hist == {"none": 1}

    def test_certified_size_map(self, tmp_path):
        # the {node: K} map that read_certificates_csv returns
        delta = np.zeros(6, dtype=np.int8)
        delta[[0, 5]] = 1  # pairs (0, 1) and (2, 3)
        hist = report_distribution(delta, {0: 1, 1: 3}, tmp_path / "d.csv")
        assert hist == {1: 1, 3: 1, "none": 1}
        assert (tmp_path / "d.csv").read_text().splitlines() == [
            "certified_size,edge_count", "1,1", "3,1", "none,1"]

    def test_low_size_fraction(self):
        assert low_size_fraction({0: 3, 1: 1, 4: 4, "none": 7}) == 0.5
        assert low_size_fraction({"none": 2}) == 0.0


class TestRuntimeProfile:
    def test_single_count_row(self, tmp_path):
        config = parse_config(write_config(tmp_path, seeds="0",
                                           values="certified"))
        results = runtime_profile(config, [5], tmp_path / "prof.csv")
        assert len(results) == 1
        n_samples, total, cert = results[0]
        assert n_samples == 5 and total > 0.0 and cert >= 0.0
        header = (tmp_path / "prof.csv").read_text().splitlines()[0]
        assert header == "num_samples,attack_seconds,cert_seconds"

    def test_profiles_the_attack_keys_not_the_first_sweep_value(self,
                                                                tmp_path):
        # [attack] scheme = certified; the sweep lists uniform first
        config = parse_config(write_config(tmp_path, seeds="0",
                                           values="uniform,certified"))
        assert config.attack.scheme.tag == "certified"
        [(_, _, cert)] = runtime_profile(config, [5])
        assert cert > 0.0


class TestBudgetSweepDirection:
    def test_more_budget_never_helps_on_average(self, tmp_path):
        config = parse_config(write_config(
            tmp_path, axis="budget_ratio", values="0.0,0.25",
            seeds="0,1", budget_ratio="0.0"))
        rows = run_sweep(config)
        posts = {}
        for row in rows:
            assert row.status == "ok"
            posts.setdefault(row.value, []).append(row.post_accuracy)
        assert np.mean(posts["0.25"]) <= np.mean(posts["0.0"])
