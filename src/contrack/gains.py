"""Fixed-gain design and stability certification for the consensus observer.

The observer applies a gain k_m to a shared correction term at every level of
an M-integrator chain, plus a consensus coupling alpha on the first block.
Exponential stability of the error dynamics reduces to three checkable
conditions:

  1. spatial excitation: the averaged observation matrices dominate
     (mu + gamma) I, where mu collapses the gain vector into a single scalar;
  2. a lower bound on the consensus gain alpha driven by the graph's smallest
     positive Laplacian eigenvalue;
  3. for M >= 3, positive definiteness of a constant matrix Q built from the
     gain ratios c_l = k_{l+1}/k_l and the design parameter delta.

Certification also checks that the fixed-step RK4 integrator is stable on
the fastest error mode at the configured integration step.

This module builds those objects, certifies a configuration, and exposes the
similarity transformation that turns the raw error dynamics into the
coordinates in which the certified decay rate is measured.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import constants
from .graph import CommGraph, is_connected, lambda_min_positive
from .linalg import is_pd, sym_eigen, symmetrize


@dataclass(frozen=True)
class ObserverGains:
    """Gain vector k (one entry per integrator level), consensus gain alpha,
    and the certification parameters delta / gamma.

    All entries must be strictly positive. In the bearing specialization the
    observation matrices are projectors with unit spectral norm, so the
    spatial condition is only satisfiable when mu + gamma < 1.
    """

    k: tuple
    alpha: float
    delta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(float(v) for v in self.k))
        if len(self.k) < 1:
            raise ValueError("gain vector must have at least one entry")
        if any(v <= 0.0 for v in self.k):
            raise ValueError(f"gain vector must be strictly positive, got {self.k}")
        for name in ("alpha", "delta", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def order(self) -> int:
        return len(self.k)


@dataclass(frozen=True)
class TransformationP:
    """Invertible change of error coordinates with closed-form inverse."""

    order: int
    block_dim: int
    matrix: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of every stability condition for one configuration.

    rate_bound is the certified exponential decay rate of the transformed
    error norm (1/s); the squared-norm Lyapunov value decays at twice this
    rate. qbar_lambda_min is None for first-order observers, where no gain
    matrix condition exists.
    """

    connected: bool
    mu: float
    spatial_margin: float
    alpha_bound: float
    alpha_ok: bool
    qbar_lambda_min: float | None
    lmi_ok: bool
    rate_bound: float
    step_ok: bool
    overall: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            if isinstance(value, bool):
                lines.append(f"{key}: {'true' if value else 'false'}")
            elif value is None:
                lines.append(f"{key}: n/a")
            else:
                lines.append(f"{key}: {value:.9g}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def compute_mu(gains: ObserverGains) -> float:
    """Scalar excitation threshold: delta for M=1, (delta k1 + k2)/k1^2 otherwise."""
    if gains.order == 1:
        return gains.delta
    k1, k2 = gains.k[0], gains.k[1]
    return (gains.delta * k1 + k2) / (k1 * k1)


def _ratio_matrix(k) -> np.ndarray:
    """The M x M gain-ratio matrix R that Q-bar and Sigma share, for M >= 2.

    With c_l = k_{l+1} / k_l: row 1 is c_{M-1}; entry (i, j) with
    2 <= i <= j < M is c_{M-i} - c_{M-i+1}; the subdiagonal entry (j+1, j)
    is -c_{M-j}. Entry (M, M), the one block the two matrices fill
    differently, is left zero.
    """
    m = len(k)
    c = [None] + [k[l] / k[l - 1] for l in range(1, m)]
    r = np.zeros((m, m))
    r[0] = c[m - 1]
    for i in range(2, m + 1):
        r[i - 1, i - 2] = -c[m - i + 1]
        if i < m:
            r[i - 1, i - 1:] = c[m - i] - c[m - i + 1]
    return r


def build_qbar(gains: ObserverGains) -> np.ndarray:
    """Constant M x M stability matrix built from gain ratios and delta.

    Defined for M >= 2 only. For M = 2 it reduces to 2 diag(k2/k1, delta),
    positive definite for any positive gains, so the condition only bites
    from M = 3 up.
    """
    m = gains.order
    if m < 2:
        raise ValueError(
            "gain matrix condition is undefined for first-order observers; "
            "the spatial excitation condition alone certifies M = 1"
        )
    sbar = _ratio_matrix(gains.k)
    sbar[-1, -1] = gains.delta
    return sbar + sbar.T


def build_transformation(gains: ObserverGains, block_dim: int) -> TransformationP:
    """Error-coordinate transformation P and its closed-form inverse.

    P has one nonzero block pattern per row: row 1 couples levels M-1 and M
    with weights -1/k_{M-1} and 1/k_M, rows 2..M-1 couple levels M-i and
    M-i+1, and the last row is 1/k_1 times the first level. The inverse is
    lower-triangular in the reversed level order with constant gain rows.
    """
    m, w = gains.order, int(block_dim)
    if w < 1:
        raise ValueError("block dimension must be at least 1")
    k = gains.k
    eye = np.eye(w)
    p = np.zeros((m * w, m * w))
    if m == 1:
        p[:] = eye / k[0]
    else:
        p[0:w, (m - 2) * w:(m - 1) * w] = -eye / k[m - 2]
        p[0:w, (m - 1) * w:m * w] = eye / k[m - 1]
        for i in range(2, m):
            p[(i - 1) * w:i * w, (m - i - 1) * w:(m - i) * w] = -eye / k[m - i - 1]
            p[(i - 1) * w:i * w, (m - i) * w:(m - i + 1) * w] = eye / k[m - i]
        p[(m - 1) * w:m * w, 0:w] = eye / k[0]

    inv = np.zeros((m * w, m * w))
    for i in range(1, m + 1):
        for j in range(m - i + 1, m + 1):
            inv[(i - 1) * w:i * w, (j - 1) * w:j * w] = k[i - 1] * eye

    residual = np.max(np.abs(p @ inv - np.eye(m * w)))
    if residual > constants.INVERSE_IDENTITY_TOL:
        raise RuntimeError(
            f"closed-form inverse failed its identity check (residual {residual:g})"
        )
    return TransformationP(order=m, block_dim=w, matrix=p, inverse=inv)


def build_xi(gains: ObserverGains, phi) -> np.ndarray:
    """Raw closed-loop error dynamics matrix for a given symmetric phi block.

    Block column 1 stacks -k_m phi; the superdiagonal blocks are identities;
    everything else is zero.
    """
    phi = symmetrize(phi)
    m, w = gains.order, phi.shape[0]
    xi = np.zeros((m * w, m * w))
    for row in range(m):
        xi[row * w:(row + 1) * w, 0:w] = -gains.k[row] * phi
        if row < m - 1:
            xi[row * w:(row + 1) * w, (row + 1) * w:(row + 2) * w] = np.eye(w)
    return xi


def closed_form_sigma(gains: ObserverGains, phi) -> np.ndarray:
    """Transformed error dynamics P Xi P^{-1}, written directly in gain ratios.

    For M = 1 this is -k1 phi. For M >= 2 it is -R (x) I, with R the gain-ratio
    matrix of Q-bar, except the trailing diagonal block, which is c_1 I - k1 phi:
    the transformation confines the time-varying part to a single block.
    """
    phi = symmetrize(phi)
    m, w = gains.order, phi.shape[0]
    if m == 1:
        return -gains.k[0] * phi
    eye = np.eye(w)
    # 0.0 - R rather than -R: the zero entries stay +0.0.
    sig = np.kron(0.0 - _ratio_matrix(gains.k), eye)
    sig[-w:, -w:] = gains.k[1] / gains.k[0] * eye - gains.k[0] * phi
    return sig


def spatial_excitation_margin(observation_blocks, mu: float, gamma: float) -> float:
    """Margin of the averaged observation matrices over (mu + gamma).

    observation_blocks holds one symmetric K x K matrix per agent, with an
    all-zero block for agents that currently have no measurement. The
    configuration satisfies the excitation condition iff the result is
    strictly positive.
    """
    blocks = [symmetrize(b) for b in observation_blocks]
    if len(blocks) < 1:
        raise ValueError("need at least one observation block")
    mean = np.mean(blocks, axis=0)
    return float(sym_eigen(mean).values[0] - (mu + gamma))


def consensus_alpha_bound(
    mu: float, gamma: float, lambda_min: float, psi_blocks=None
) -> float:
    """Lower bound on the consensus gain alpha.

    With psi_blocks given, evaluates the general bound
    (mu + ||Psi^2/gamma - Psi||) / lambda_min for the block-diagonal stack
    Psi, whose spectral norm is the largest over its diagonal blocks.
    Without blocks, uses the closed form (mu + 1/gamma - 1) / lambda_min
    valid for idempotent unit-norm observation matrices (projectors).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be strictly positive")
    if lambda_min <= 0.0:
        raise ValueError("lambda_min must be strictly positive")
    if psi_blocks is None:
        return (mu + 1.0 / gamma - 1.0) / lambda_min
    blocks = np.array([symmetrize(b) for b in psi_blocks])
    m = blocks @ blocks / gamma - blocks
    m = 0.5 * (m + m.transpose(0, 2, 1))
    spectral_norm = np.abs(np.linalg.eigvalsh(m)).max()
    return float((mu + spectral_norm) / lambda_min)


def schur_pd_check(a, b, c, gamma: float) -> bool:
    """Conservative block-matrix positivity test avoiding the inverse of c.

    Given c > gamma I (validated), a - (1/gamma) b b^T > 0 is sufficient for
    positivity of the exact Schur complement a - b c^{-1} b^T. One-way only:
    a False result proves nothing.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be strictly positive")
    c = symmetrize(c)
    if not is_pd(c, margin=gamma):
        raise ValueError(
            f"lower-right block does not dominate gamma I (gamma={gamma!r}); "
            "the conservative test does not apply"
        )
    a = symmetrize(a)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return is_pd(a - (b @ b.T) / gamma)


def convergence_rate(gains: ObserverGains) -> float:
    """Certified decay rate (1/s) of the transformed error norm."""
    if gains.order == 1:
        return gains.delta * gains.k[0]
    return float(sym_eigen(build_qbar(gains)).values[0] / 2.0)


def rk4_stable(gains: ObserverGains, lambda_max: float, step: float) -> bool:
    """Whether RK4 at the given step is stable on the fastest error mode.

    That mode is the closed-loop chain matrix with correction gain
    k (alpha lambda_max(L) + 1): the largest Laplacian eigenvalue plus a unit
    projector eigenvalue. Stable means |R(h s)| <= 1 over its eigenvalues s,
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4 stability polynomial.
    """
    z = step * np.linalg.eigvals(build_xi(gains, [[gains.alpha * lambda_max + 1.0]]))
    r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    return bool(np.all(np.abs(r) <= 1.0))


def certify(
    gains: ObserverGains, graph: CommGraph, observation_blocks, step: float
) -> CertificationReport:
    """Evaluate every stability condition at one time instant's observations.

    The spatial condition is time-varying, so this certifies the supplied
    snapshot; simulation-side monitoring covers the rest of the horizon. The
    RK4 step-size condition is checked at the given integration step.
    """
    blocks = [symmetrize(b) for b in observation_blocks]
    if len(blocks) != graph.n_agents:
        raise ValueError(
            f"got {len(blocks)} observation blocks for {graph.n_agents} agents"
        )
    k_dim = blocks[0].shape[0]
    for i, b in enumerate(blocks):
        if b.shape != (k_dim, k_dim):
            raise ValueError(f"observation block {i} has shape {b.shape}, "
                             f"expected ({k_dim}, {k_dim})")

    connected = is_connected(graph)
    mu = compute_mu(gains)
    margin = spatial_excitation_margin(blocks, mu, gains.gamma)
    if connected:
        lam = lambda_min_positive(graph)
        alpha_bound = consensus_alpha_bound(mu, gains.gamma, lam, blocks)
    else:
        alpha_bound = float("inf")
    alpha_ok = bool(gains.alpha > alpha_bound)

    rate_bound = convergence_rate(gains)
    # Exact: the rate is half of Q-bar's smallest eigenvalue.
    qbar_lambda_min = 2.0 * rate_bound if gains.order >= 2 else None
    lmi_ok = gains.order < 3 or qbar_lambda_min > 0.0

    step_ok = rk4_stable(gains, float(graph.spectrum.values[-1]), step)
    overall = bool(connected and margin > 0.0 and alpha_ok and lmi_ok and step_ok)
    return CertificationReport(
        connected=connected,
        mu=mu,
        spatial_margin=margin,
        alpha_bound=alpha_bound,
        alpha_ok=alpha_ok,
        qbar_lambda_min=qbar_lambda_min,
        lmi_ok=lmi_ok,
        rate_bound=rate_bound,
        step_ok=step_ok,
        overall=overall,
    )
