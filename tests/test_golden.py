"""Golden outputs: on the criterion-10 config and on a sweep over every
weight scheme, in both modes, and on an evasion sweep over beta, the
sweep's raw_results.csv and summary.csv and `certify`'s certificates.csv
match the files in tests/golden byte for byte, and so do the flip list,
distribution and attack report (but its wall time) of a small README
attack, the evasion label counts at N = 2000 of evasion_counts.csv and
the digests of the noisy logits behind them, the digests of trained
weights and the poisoning label counts on the criterion-8 config.

tests/golden/regen.py wrote them at the arithmetic version and on the
numpy, scipy and BLAS build that tests/golden/build.txt names.  Another
build may round differently; a mismatch there is a finding to report,
not a reason to regenerate.
"""
import importlib.util
import re
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
import scipy

from certattack import (ARITHMETIC_VERSION, NoiseSpec, SmoothingConfig,
                        TrainConfig, apply_perturbation, mc_counts_evasion,
                        mc_counts_poisoning, mix_seed, noise_flips,
                        noisy_forward, num_pairs, sample_noise, split_nodes,
                        synth_sbm, train, train_arrays)
from certattack.attacks import WEIGHT_SCHEMES
from certattack.cli import main
from test_experiment import readme_config, write_config

GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = ("evasion", "poisoning")
FILES = ("raw_results.csv", "summary.csv", "certificates.csv")
# write_config's keys set for the scheme sweep: every weight scheme on
# criterion 7's graph (n = 100, so poisoning replicates train in blocks
# of 10), with replicates trained hard enough (200 epochs at rate 1.0)
# that some targets win all N = 60 votes, which K = 1 needs at beta = 0.9.
SCHEME_SWEEP = dict(values=",".join(WEIGHT_SCHEMES), n=100, p_in=0.1,
                    p_out=0.01, feature_dim=8, train_ratio=0.1, epochs=200,
                    learning_rate=1.0, num_samples=60)
# The scheme sweep's graph and training, certified, at two noise levels;
# `certify` keeps the config's own beta (0.9), not the first sweep value.
BETA_SWEEP = dict(SCHEME_SWEEP, axis="beta", values="0.7,0.95")
# golden directory -> (mode, config edits)
SWEEPS = {**{mode: (mode, {}) for mode in MODES},
          **{f"{mode}-schemes": (mode, SCHEME_SWEEP) for mode in MODES},
          "evasion-beta": ("evasion", BETA_SWEEP)}
# readme_config's keys set for the CLI attack: the README's certified
# evasion attack, shortened to 20 iterations, at a (beta, N) where some
# targets certify K = 1.
README_ATTACK = dict(beta=0.9, num_samples=60, iterations=20)
ATTACK_FILES = ("attack_report.csv", "delta_edges.tsv", "distribution.csv")
COUNTS = "evasion_counts.csv"
LOGITS = "evasion_logits.sha256"
WEIGHTS = "training_weights.sha256"
POISON_COUNTS = "poisoning_counts.csv"
BLOCK = 10  # noisy graphs per logits digest, replicates per weights block


def build() -> str:
    """The arithmetic version and the numpy, scipy and BLAS build of this
    process, one per line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"arithmetic_version {ARITHMETIC_VERSION}\n"
            f"numpy {np.__version__}\nscipy {scipy.__version__}\n"
            f"blas {blas['name']} {blas['version']}\n")


def mismatch(name: str) -> str:
    return (f"{name} differs from the golden file; written on\n"
            f"{(GOLDEN / 'build.txt').read_text()}run on\n{build()}")


def test_golden_files_match_arithmetic_version():
    written = (GOLDEN / "build.txt").read_text().splitlines()
    assert f"arithmetic_version {ARITHMETIC_VERSION}" in written, (
        f"certattack.ARITHMETIC_VERSION is {ARITHMETIC_VERSION}, but "
        f"tests/golden/build.txt reads {written[0]!r}")


def write_outputs(tmp_path: Path, sweep: str) -> Path:
    """The directory holding the sweep and `certify` outputs of SWEEPS'
    `sweep`: the criterion-10 config (write_config's defaults) in a mode,
    with the sweep's keys set."""
    mode, edits = SWEEPS[sweep]
    config = write_config(tmp_path, name=f"{sweep}.ini", out=tmp_path / sweep)
    text = config.read_text()
    for key, value in dict(mode=mode, **edits).items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    config.write_text(text)
    codes = [main([command, "--config", str(config)])
             for command in ("sweep", "certify")]
    assert codes == [0, 0]
    return tmp_path / sweep


@pytest.mark.parametrize("sweep", SWEEPS)
def test_outputs_match_golden_files(tmp_path, sweep):
    out = write_outputs(tmp_path, sweep)
    for name in FILES:
        golden = (GOLDEN / sweep / name).read_bytes()
        assert (out / name).read_bytes() == golden, mismatch(f"{sweep}/{name}")


def attack_outputs(tmp_path: Path) -> dict:
    """Golden path -> the bytes that `certify`, `attack` and
    `report-distribution` write on README_ATTACK's config, with the
    report's last field, its runtime_seconds, masked."""
    config, out = readme_config(tmp_path, **README_ATTACK), tmp_path / "out"
    codes = [main([command, "--config", str(config)])
             for command in ("certify", "attack")]
    codes.append(main(["report-distribution", "--delta",
                       str(out / "delta_edges.tsv"), "--certificates",
                       str(out / "certificates.csv"), "--out", str(out)]))
    assert codes == [0, 0, 0]
    texts = {f"attack/{name}": (out / name).read_bytes()
             for name in ATTACK_FILES}
    texts["attack/attack_report.csv"] = re.sub(
        rb",[^,]*\r\n\Z", b",masked\r\n", texts["attack/attack_report.csv"])
    return texts


def test_attack_outputs_match_golden_files(tmp_path):
    for name, data in attack_outputs(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), mismatch(name)


def criterion_fixture():
    """Criteria 7 and 8's graph, seed-0 split and clean evasion model."""
    graph = synth_sbm(100, 2, 0.1, 0.01, 8, seed=0)
    split = split_nodes(graph, (0.1, 0.1, 0.8), 0)
    return graph, split, train(graph, split, graph.adjacency,
                               TrainConfig(seed=mix_seed(0, 1)))


def weights_digest(params) -> str:
    return sha256(params.W1.tobytes() + params.W2.tobytes()).hexdigest()


def evasion_outputs() -> dict:
    """Golden file name -> text, on criterion 7's seed-0 evasion fixture
    (its model, noise and test targets) at N = 2000: the clean graph and
    two snapshots with the attack budget's and twice its flips at seeded
    pairs, all three through one set of kept flip lists.  COUNTS holds
    mc_counts_evasion's counts per snapshot; LOGITS the SHA-256 of the
    float64 logits of each snapshot's first BLOCK noisy graphs."""
    graph, split, params = criterion_fixture()
    spec, config = NoiseSpec(0.95), SmoothingConfig(2000, 0.1, mix_seed(0, 3))
    flips = noise_flips(spec, 100, config)
    budget, m = int(0.1 * graph.num_edges), num_pairs(100)
    counts = ["snapshot,node," + ",".join(
        f"count_{c}" for c in range(graph.num_classes))]
    digests = []
    for snapshot, size in enumerate((0, budget, 2 * budget)):
        delta = np.zeros(m, dtype=np.int8)
        delta[np.random.default_rng(snapshot).choice(m, size,
                                                     replace=False)] = 1
        A = apply_perturbation(graph.adjacency, delta)
        rows = mc_counts_evasion(params, A, graph.features, split.test, spec,
                                 config, flips)
        counts += [f"{snapshot},{node}," + ",".join(map(str, row))
                   for node, row in zip(split.test, rows)]
        logits = noisy_forward(params, A, graph.features)(flips[:BLOCK])
        digests.append(f"{snapshot} {sha256(logits.tobytes()).hexdigest()}")
    return {COUNTS: "\n".join(counts) + "\n",
            LOGITS: "\n".join(digests) + "\n"}


def training_outputs() -> dict:
    """Golden file name -> text, on criterion 8's seed-0 poisoning config
    (beta = 0.9, N = 60, 120 epochs at rate 0.1).  WEIGHTS holds the
    SHA-256 of the weights of criterion 7's clean evasion model and of
    each model that train_arrays returns on the config's first block of
    BLOCK noisy graphs; POISON_COUNTS mc_counts_poisoning's counts at
    the train nodes."""
    graph, split, params = criterion_fixture()
    spec, config = NoiseSpec(0.9), SmoothingConfig(60, 0.1, mix_seed(0, 3))
    train_config = TrainConfig(epochs=120, learning_rate=0.1,
                               seed=mix_seed(0, 1))
    noisy = np.stack([apply_perturbation(
        graph.adjacency, sample_noise(spec, graph.n, config.seed, j))
        for j in range(BLOCK)])
    block = train_arrays(noisy, graph.features, graph.labels, split.train,
                         train_config, graph.num_classes,
                         [mix_seed(train_config.seed, j)
                          for j in range(BLOCK)])
    digests = [f"evasion {weights_digest(params)}"] + [
        f"poisoning {j} {weights_digest(model)}"
        for j, model in enumerate(block)]
    rows = mc_counts_poisoning(graph.adjacency, graph.features, graph.labels,
                               split.train, train_config, split.train, spec,
                               config, graph.num_classes)
    counts = ["node," + ",".join(
        f"count_{c}" for c in range(graph.num_classes))]
    counts += [f"{node}," + ",".join(map(str, row))
               for node, row in zip(split.train, rows)]
    return {WEIGHTS: "\n".join(digests) + "\n",
            POISON_COUNTS: "\n".join(counts) + "\n"}


def test_evasion_outputs_match_golden_files():
    # counts cannot see a moved bit in the noisy forward (a one-ulp change
    # in the degree scaling leaves all 240 rows equal), so the logits'
    # digest carries it
    for name, text in evasion_outputs().items():
        assert text == (GOLDEN / name).read_text(), mismatch(name)


def test_training_outputs_match_golden_files():
    # the counts alone cannot see a moved bit in training, so the weights'
    # digests carry it
    for name, text in training_outputs().items():
        assert text == (GOLDEN / name).read_text(), mismatch(name)


def test_regen_reports_what_moved():
    spec = importlib.util.spec_from_file_location("regen",
                                                  GOLDEN / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    old = b"node,count_0,count_1\r\n3,10,50\r\n7,60,0\r\n9,1,59\r\n"
    new = b"node,count_0,count_1\r\n3,13,47\r\n7,60,0\r\n9,0,60\r\n"
    assert regen.report(COUNTS, old, old) == []
    assert regen.report(COUNTS, old, new) == [
        f"{COUNTS}: 2 of 4 rows differ, largest count shift 3",
        "  - 3,10,50", "  + 3,13,47", "  - 9,1,59", "  + 9,0,60"]
    assert regen.report(LOGITS, b"0 ab\n1 cd\n", b"0 ab\n1 ef\n2 gh\n") == [
        f"{LOGITS}: 2 of 3 digests differ (2 before)", "  - 1 cd", "  + 1 ef",
        "  + 2 gh"]
