"""Certificate-guided evasion and poisoning attacks on graph networks.

The package trains a small dense GCN, certifies per-node robustness via
randomized smoothing over binary edge noise (evasion and poisoning threat
models), converts certified perturbation sizes into node weights, and runs
weighted PGD evasion and Minmax poisoning attacks under an edge-flip
budget, with sweep/reporting plumbing on top.
"""
from .attacks import (AttackConfig, AttackReport, WeightScheme, certifier,
                      discretize, eigenvector_centrality, evaluate_attack,
                      minmax_poisoning, node_weights, pgd_evasion,
                      project_budget, top_delta_binary)
from .errors import (CertAttackError, CertificationError, DimensionError,
                     DomainError, GraphLoadError, NumericError,
                     ParameterError, TrainingError)
from .gcn import (CROSS_ENTROPY, EdgeWorkspace, GCNParams, LossKind,
                  TrainConfig, forward, gradients, init_params, noisy_forward,
                  param_gradients, predict_all, train, train_arrays,
                  weighted_logit_loss)
from .graph import (DataSplit, Graph, classification_accuracy, load_graph,
                    split_nodes, synth_sbm)
from .experiment import (DatasetConfig, ExperimentConfig, ResultRow,
                         build_dataset, load_params, parse_config,
                         prepare_cell, read_delta_edges, report_distribution,
                         run_attack, run_sweep, runtime_profile, save_params,
                         write_certificates_csv, write_delta_edges,
                         write_report_csv)
from .perturb import (Perturbation, apply_perturbation, num_pairs,
                      relax_perturbation, triu_pairs)
from .smoothing import (Certificates, NoiseSpec, SmoothingConfig,
                        certified_size, certify_counts, lower_bound_prob,
                        mc_counts_evasion, mc_counts_poisoning, mix_seed,
                        noise_flips, sample_noise, size_function,
                        worst_case_retained)

__version__ = "0.1.0"

# The version of the package's floating-point arithmetic: a change that
# moves output bits on purpose bumps it and regenerates tests/golden.
ARITHMETIC_VERSION = 2
