"""Theory quantities computed from data, parameters and traces.

Covers the Gram matrices and their spectra, Monte-Carlo limit estimates,
concentration probes, active-region fractions, the derived rate constants,
and the inequality monitors used as runtime checks during experiments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationSpec
from .embedding import GRAM_KIND, EmbeddingSpec, EmbeddingWeights, build_embedding, embed_batch
from .errors import InvalidConfigError
from .helper import Helper
from .model import ModelConfig, Parameters, forward
from .numkernel import RngStream, sym_eig_extremes

# Slack applied to all inequality monitors: float accumulation over m*n terms.
ABS_SLACK = 1e-8
REL_SLACK = 1e-6

# Bytes that gram_limit_mc's two (rows, d) draw buffers and its (rows, n)
# activation buffer share when no chunk is given, so that its memory is set
# by the shapes and not by a row count. The draws on the calling thread bound
# the loop at any chunk size, so a chunk need only outlast one hand-off to
# the helper; at 2 MiB the activation buffer also stays in a 2 MiB L2 cache
# through the accumulate. The budget is a constant, not the host's cache
# size, because the chunk groups the sums and so sets the last bits of G.
# Each chunk has at least MC_MIN_ROWS rows, so that wide data still draws in
# runs long enough to pipeline.
MC_CHUNK_BYTES = 2 * 2**20
MC_MIN_ROWS = 256

# Largest mask of active_fraction (one row of H, if wider), run at every record step.
ACTIVE_CHUNK_BYTES = 2 ** 16

# Bytes of pl_monitor's two (rows, n) buffers of S and S G together.
PL_CHUNK_BYTES = 2 ** 18


@dataclass(frozen=True)
class GramReport:
    G: np.ndarray
    lambda_min: float
    lambda_max: float
    g_min: float           # min diagonal entry
    g_max: float           # max diagonal entry
    kind: str              # a value of embedding.GRAM_KIND, or limit_mc
    mc_samples: int = 0
    stderr: np.ndarray | None = None

    def to_json(self, **extra) -> str:
        payload = {
            "kind": self.kind,
            "n": int(self.G.shape[0]),
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "g_min": self.g_min,
            "g_max": self.g_max,
            "mc_samples": self.mc_samples,
            "G": self.G.tolist(),
            **extra,
        }
        return json.dumps(payload, indent=2)


@dataclass(frozen=True)
class TheoryConstants:
    kappa: float
    k_const: float
    rate_exponent: float
    degenerate: bool = False


def _report_from_gram(G: np.ndarray, kind: str, mc_samples: int = 0,
                      stderr: np.ndarray | None = None) -> GramReport:
    G = 0.5 * (G + G.T)  # enforce exact symmetry before the eigensolver
    lo, hi = sym_eig_extremes(G)
    diag = np.diag(G)
    return GramReport(G=G, lambda_min=lo, lambda_max=hi,
                      g_min=float(diag.min()), g_max=float(diag.max()),
                      kind=kind, mc_samples=mc_samples, stderr=stderr)


def gram(spec: EmbeddingSpec, weights: EmbeddingWeights, X: np.ndarray) -> GramReport:
    """Empirical Gram matrix G_ab = (1/D) Phi(x_a)^T Phi(x_b) with extremes."""
    Phi = embed_batch(spec, weights, X)
    G = Phi @ Phi.T
    G /= spec.D
    return _report_from_gram(G, GRAM_KIND[spec.kind])


def check_mc_samples(samples: int) -> None:
    """The sample count that ``gram_limit_mc`` accepts."""
    if samples < 1000:
        raise InvalidConfigError("gram_limit_mc requires samples >= 1000")


def check_concentration(D_list: list[int], trials: int) -> None:
    """The widths and trial count that ``concentration_probe`` accepts."""
    if not D_list or D_list[0] < 1 or any(a >= b for a, b in zip(D_list, D_list[1:])):
        raise InvalidConfigError(f"D_list must be a non-empty, strictly ascending list "
                                 f"of widths >= 1, not {list(D_list)}")
    if trials < 3:
        raise InvalidConfigError("trials must be >= 3")


def gram_limit_mc(activation: ActivationSpec, X: np.ndarray, samples: int,
                  seed: int, chunk: int | None = None) -> GramReport:
    """Monte-Carlo estimate of the infinite-width Gram limit.

    Averages sigma(z.x_a/sqrt(d)) sigma(z.x_b/sqrt(d)) over i.i.d. standard
    Gaussian z. For each chunk of k draws with activations A (k, n), the first
    and second moments are accumulated by two GEMMs, A^T A and (A*A)^T (A*A).
    A standard-error matrix is attached to the report.

    The draws go into two (chunk, d) buffers in turn and A into one (chunk,
    n) buffer. Without a ``chunk``, the rows are chosen so that these three
    share MC_CHUNK_BYTES (2 MiB: 4 369 rows at n = d = 20, 873 at n = 200,
    d = 50), with a floor of MC_MIN_ROWS rows; memory is then that budget
    plus O(n^2) for any sample count. The draws are the same stream in the
    same order whatever the chunk; only the grouping of the sums, and so
    the last bits of G, depends on it.

    While the helper thread (``ptwide.helper``) accumulates one chunk, the
    caller draws the next into the other buffer. A single chunk has
    nothing to overlap and starts no helper; then, as on a machine without
    a helper, the chunks are accumulated on the caller. The draws, the
    chunks and the order of the sums are the same either way, and so are
    the bits.
    """
    check_mc_samples(samples)
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    gen = RngStream(seed, "gram-mc").generator()
    s1 = np.zeros((n, n))
    s2 = np.zeros((n, n))
    if chunk is None:
        chunk = max(MC_MIN_ROWS, MC_CHUNK_BYTES // (8 * (2 * d + n)))
    rows = min(chunk, samples)
    draws = (np.empty((rows, d)), np.empty((rows, d)))
    projected = np.empty((rows, n))
    scale = math.sqrt(d)

    def accumulate(Z: np.ndarray) -> None:
        nonlocal s1, s2
        A = projected[:len(Z)]
        np.matmul(Z, X.T, out=A)
        A /= scale
        A = activation.fn(A, out=A)                         # (k, n)
        s1 += A.T @ A
        A *= A
        s2 += A.T @ A

    with Helper(samples > chunk) as helper:
        for i, start in enumerate(range(0, samples, chunk)):
            Z = draws[i % 2][:min(chunk, samples - start)]
            # The job on chunk i - 2, the last to read this buffer, was
            # waited for before chunk i - 1 was submitted.
            gen.standard_normal(out=Z)
            helper.wait()
            helper.submit(accumulate, Z)
        helper.wait()
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean * mean, 0.0)
    stderr = np.sqrt(var / samples)
    return _report_from_gram(mean, "limit_mc", mc_samples=samples, stderr=stderr)


def concentration_probe(activation: ActivationSpec, X: np.ndarray,
                        D_list: list[int], trials: int, seed: int,
                        reference: GramReport | None = None,
                        reference_samples: int = 1_000_000) -> list[tuple[int, float]]:
    """Median spectral deviation of the finite-D Gram from the MC limit.

    For each D, draws fresh random-feature weights ``trials`` times and
    measures ||G - G_limit||_2 against a high-sample MC reference.
    """
    check_concentration(D_list, trials)
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    if reference is None:
        reference = gram_limit_mc(activation, X, reference_samples, seed)
    rows = []
    for D in D_list:
        devs = []
        for t in range(trials):
            spec = EmbeddingSpec(kind="random_feature", d=d, D=D,
                                 activation=activation, seed=seed * 10_000 + D * 100 + t)
            rep = gram(spec, build_embedding(spec), X)
            lo, hi = sym_eig_extremes(rep.G - reference.G)
            devs.append(max(abs(lo), abs(hi)))
        rows.append((D, float(np.median(devs))))
    return rows


def shrink_interval(interval: tuple[float, float]) -> tuple[float, float]:
    """Middle third of an interval, used for the initialization fraction."""
    lo, hi = interval
    return ((2 * lo + hi) / 3.0, (lo + 2 * hi) / 3.0)


def active_fraction(H: np.ndarray, interval: tuple[float, float]) -> tuple[np.ndarray, float]:
    """Per-data-point fraction of neurons with pre-activation inside interval.

    Returns the n-vector of fractions and its minimum over data points. The
    neurons inside, those above lo less those at or above hi, are counted in
    one loop over chunks of rows of H, through one boolean mask of at most
    max(ACTIVE_CHUNK_BYTES, n) bytes, plus the O(n) counts. A chunk has fewer
    than 2**16 rows, so its uint16 count cannot wrap; the counts are integers,
    so divided by m they are the same bits as the mean over the rows of the
    (m, n) indicator.
    """
    lo, hi = interval
    if lo >= hi:
        raise InvalidConfigError(f"interval must satisfy I_l < I_r, got {interval}")
    m, n = H.shape
    rows = max(1, (ACTIVE_CHUNK_BYTES - 1) // n)    # < 2**16
    mask = np.empty(min(rows, m) * n, dtype=bool)
    count = np.empty(n, dtype=np.uint16)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(0, m, rows):
        block = H[i:i + rows]
        mask_b = mask[:block.size].reshape(block.shape)
        np.greater(block, lo, out=mask_b)
        counts += np.add.reduce(mask_b, axis=0, out=count)
        np.greater_equal(block, hi, out=mask_b)
        counts -= np.add.reduce(mask_b, axis=0, out=count)
    per_a = counts / m
    return per_a, float(per_a.min())


def theory_constants(interval: tuple[float, float], g_min: float, g_max: float,
                     lambda_min: float, lambda_max: float,
                     k_sigma_prime: float, c_hat: float) -> TheoryConstants:
    """Derived constants: kappa, the init-fraction constant K, and the rate exponent.

    The K exponent is max(|I_l|, |I_r|) / lambda_1^2 with lambda_1 = g_min
    and lambda_2 = g_max.
    """
    lo, hi = interval
    if lambda_min <= 0:
        return TheoryConstants(kappa=float("nan"), k_const=float("nan"),
                               rate_exponent=float("nan"), degenerate=True)
    kappa = 9.0 * lambda_max * (hi - lo) / (2.0 * lambda_min * k_sigma_prime)
    k_const = (hi - lo) / (6.0 * math.sqrt(2.0 * math.pi) * g_max) * math.exp(
        -max(abs(lo), abs(hi)) / (g_min ** 2))
    rate_exponent = 2.0 ** (1.0 / 3.0) * lambda_min * k_sigma_prime ** 2 * k_const * c_hat ** 2
    return TheoryConstants(kappa=kappa, k_const=k_const, rate_exponent=rate_exponent)


@dataclass
class MonitorResult:
    passed: bool
    worst_margin: float
    margins: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)


def lemma1_monitor(trace, constants: TheoryConstants, c_hat: float) -> MonitorResult:
    """Active-fraction lower bound along a trace.

    Checks (eta^t)^(3/2) >= (eta~0)^(3/2) - kappa (sqrt(L0) - sqrt(Lt)) / c_hat
    at every recorded step, with the monitor slack.
    """
    if not trace.eta_min:
        raise InvalidConfigError("trace has no recorded active fractions")
    l0 = trace.losses[0]
    base = trace.eta_tilde0 ** 1.5
    margins = []
    ok = True
    for eta, lt in zip(trace.eta_min, trace.losses):
        rhs = base - constants.kappa * (math.sqrt(l0) - math.sqrt(lt)) / c_hat
        margin = eta ** 1.5 - rhs
        margins.append(float(margin))
        if margin < -(ABS_SLACK + REL_SLACK * abs(rhs)):
            ok = False
    return MonitorResult(passed=ok, worst_margin=float(min(margins)),
                         margins=margins, steps=list(trace.steps))


@dataclass(frozen=True)
class PLReport:
    exact_dldt: float
    bound: float
    passed: bool


def pl_monitor(config: ModelConfig, params: Parameters, X: np.ndarray,
               y: np.ndarray, gram_report: GramReport) -> PLReport:
    """Loss-derivative chain at a parameter point.

    exact = dL/dt under gradient flow = -k sum_i s_i^T G s_i with s_i[a] =
    r_a sigma'(h_ia) and k = ``config.flow_prefactor``; bound = -k lambda_min
    sum_ia s_ia^2. exact <= bound <= 0 is algebraic at any parameter point.

    S and S G are formed over chunks of rows of H, in two buffers that share
    PL_CHUNK_BYTES (one row each, if a row is wider), so past ``forward``'s
    H no (m, n) array is made. The sums are grouped by chunk, so they may
    differ in the last bits from sums over whole arrays.
    """
    state = forward(config, params, X, y)
    H, r, G = state.H, state.residual, gram_report.G
    m, n = H.shape
    rows = max(1, PL_CHUNK_BYTES // (16 * n))
    bufs = np.empty((2, min(rows, m) * n))
    quadratic = squares = 0.0
    for i in range(0, m, rows):
        H_b = H[i:i + rows]
        SG, S = (buf[:H_b.size].reshape(H_b.shape) for buf in bufs)
        config.activation.value_and_deriv(H_b, SG, S)    # sigma(H_b) in SG is not read
        S *= r
        np.matmul(S, G, out=SG)
        SG *= S
        quadratic += float(SG.sum())
        S *= S
        squares += float(S.sum())
    exact = -config.flow_prefactor * quadratic
    bound = -(config.flow_prefactor * gram_report.lambda_min) * squares
    slack = ABS_SLACK + REL_SLACK * abs(bound)
    passed = (exact <= bound + slack) and (bound <= slack)
    return PLReport(exact_dldt=exact, bound=bound, passed=passed)

