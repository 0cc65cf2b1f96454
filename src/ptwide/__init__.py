"""Partially-trained wide neural networks under three width-scalings.

Training by full-batch gradient descent, Gram-matrix spectra, and the
convergence-theory monitors (rate fits, active-region dynamics, Gram
concentration) used to verify them.
"""

from .activations import LINEAR, RELU, TANH, ActivationSpec, get_activation, leaky_relu
from .embedding import EmbeddingSpec, EmbeddingWeights, build_embedding, embed_batch
from .errors import InvalidConfigError, NumericError, PtwideError, StructuralError
from .model import (MF, NTK, OURS, ForwardState, ModelConfig, Parameters,
                    ScalingVariant, forward, get_scaling, init_params)
from .numkernel import RngStream, gaussian_matrix, rademacher_vector, sym_eig_extremes
from .train import TrainConfig, TrainingTrace, run_training
from .diagnostics import (GramReport, MonitorResult, PLReport, TheoryConstants,
                          active_fraction, concentration_probe, gram, gram_limit_mc,
                          lemma1_monitor, pl_monitor, shrink_interval, theory_constants)
from .datasets import Dataset, gen_quadratic_teacher, gen_random_label, gen_wei, test_error
from .harness import (ExperimentConfig, parse_experiment_config, rate_fit,
                      run_experiment, run_single)

__version__ = "0.1.0"
