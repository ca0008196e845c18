"""The benchmark's workloads: whole attack cells on the built-in SBM generator.

Each workload is an ExperimentConfig that `certattack.experiment.run_cell`
runs as one cell.  Every cell of a run has a seed of its own, which draws
both its SBM graph and its split, training and attack randomness; `--seed`
picks the run's cell seeds, so the same seed gives the same inputs.
evasion-cert and poisoning-cert use the attack settings of acceptance
criterion 7, except that evasion-cert draws N=500 noisy graphs per
refresh instead of 2000; evasion-dense is plain PGD on a graph four
times larger with the same expected degree.  Cells are sized to take
about two seconds on a 2-core x86_64 host: on a shared host single
cells jitter by 10-15%, so only the median of a dozen cells per run
holds steady from run to run.
"""
from certattack import (AttackConfig, DatasetConfig, ExperimentConfig,
                        LossKind, NoiseSpec, SmoothingConfig, TrainConfig,
                        WeightScheme)

WORKLOADS = ("evasion-cert", "poisoning-cert", "evasion-dense")

# Cell seeds reserved for one --seed; a run never repeats a seed.
SEEDS_PER_RUN = 1000

# Lowest clean (pre-attack) test accuracy a full-size cell may have.  Of
# 486 cells drawn while the benchmark was defined, the lowest reached 0.75
# and all others 0.86; chance on the two balanced blocks is 0.5.  A cell
# below the floor trained a broken model.
PRE_ACCURACY_FLOOR = 0.6

CW10 = LossKind("cw_margin", kappa=10.0)


def build_config(workload: str, seed: int, tiny: bool = False
                 ) -> ExperimentConfig:
    """The workload's config for the cell with `seed`, on the SBM graph
    drawn from that seed.

    `tiny` shrinks sample counts, iterations and epochs so that a cell
    takes well under a second; it keeps every code path of the workload.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shrink = 10 if tiny else 1
    if workload == "evasion-dense":
        n = 40 if tiny else 400
        dataset = DatasetConfig(n=n, p_in=10.0 / n, p_out=1.0 / n,
                                feature_dim=8, seed=seed)
        attack = AttackConfig(
            budget=1, iterations=100 // shrink, refresh_interval=10,
            step_size=0.1, loss=CW10, noise=NoiseSpec(0.95),
            discretize_trials=50 // shrink, scheme=WeightScheme("uniform"))
        return ExperimentConfig(dataset, mode="evasion", budget_ratio=0.1,
                                train=TrainConfig(epochs=200 // shrink),
                                attack=attack, sweep_values=("uniform",))
    dataset = DatasetConfig(n=100, p_in=0.1, p_out=0.01, feature_dim=8,
                            seed=seed)
    if workload == "evasion-cert":
        attack = AttackConfig(
            budget=1, iterations=100 // shrink, refresh_interval=10 // shrink,
            step_size=0.1, loss=CW10,
            smoothing=SmoothingConfig(500 // shrink ** 2, 0.1),
            noise=NoiseSpec(0.95), discretize_trials=50 // shrink,
            scheme=WeightScheme("certified"))
        return ExperimentConfig(dataset, mode="evasion", budget_ratio=0.1,
                                train=TrainConfig(epochs=200 // shrink),
                                attack=attack, sweep_values=("certified",))
    attack = AttackConfig(
        budget=1, iterations=50 // shrink, refresh_interval=25 // shrink,
        step_size=0.3, inner_step_size=0.2, loss=CW10,
        smoothing=SmoothingConfig(60 // shrink, 0.1), noise=NoiseSpec(0.9),
        discretize_trials=50 // shrink, scheme=WeightScheme("certified"))
    return ExperimentConfig(dataset, mode="poisoning", budget_ratio=0.1,
                            train=TrainConfig(epochs=120 // shrink,
                                              learning_rate=0.1),
                            attack=attack, sweep_values=("certified",))


def cell_seeds(seed: int) -> range:
    """The cell seeds of the run with `seed`, in the order they run."""
    return range(SEEDS_PER_RUN * seed, SEEDS_PER_RUN * (seed + 1))
