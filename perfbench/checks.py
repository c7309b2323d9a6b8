"""Correctness checks on the program's outputs, computed apart from it.

Every check takes a workloads.Spec and text the program wrote (a certify
JSON report or a CSV) and raises CheckFailed on a mismatch. The reference
values come from numpy (eigvalsh, closed forms) and from properties the method
must have; nothing here imports contrack or compares against stored output.
"""

import json

import numpy as np

K = 3
CERT_TOL = 1e-9          # relative, certify report against eigvalsh / closed forms
CSV_TOL = 1e-9           # absolute, columns printed with 12 significant digits
V_SLACK = 1e-9           # same slack the CLI uses for "envelope held"
SWEEP_RTOL = 1e-9        # sweep seed CSV against a separate run of that seed
BLOCK_NAMES = ("pos", "vel", "acc")


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rtol, what):
    _require(
        abs(a - b) <= rtol * max(1.0, abs(b)),
        f"{what}: program {a!r}, reference {b!r}",
    )


# -- scenario geometry, rebuilt from the spec -------------------------------

def times(spec):
    return np.arange(spec.rows) * spec.step


def truth_levels(spec, t):
    """Target levels at times t by the integrator chain's exact flow:
    level m is sum_r blocks[m + r] t^r / r!. Returns (len(t), levels, 3)."""
    blocks = spec.target_blocks
    levels = blocks.shape[0]
    out = np.zeros((t.size, levels, K))
    for m in range(levels):
        coeff = np.ones_like(t)
        for r in range(levels - m):
            if r:
                coeff = coeff * t / r
            out[:, m] += coeff[:, None] * blocks[m + r][None, :]
    return out


def agent_positions(spec, t):
    """(len(t), n, 3) positions by linear interpolation of the waypoints,
    held constant outside the knot range."""
    out = np.empty((t.size, spec.n_agents, K))
    for i, (kt, kp) in enumerate(zip(spec.agent_times, spec.agent_points)):
        for d in range(K):
            out[:, i, d] = np.interp(t, kt, kp[:, d])
    return out


def availability(spec, t):
    avail = np.ones((t.size, spec.n_agents), dtype=bool)
    for i, intervals in enumerate(spec.loss):
        for start, end in intervals:
            avail[:, i] &= ~((start <= t) & (t < end))
    return avail


def replay_draws(spec):
    """The random draws of a run seeded with spec.seed, in the documented
    order: n initial ranges, n x 3 fallback directions, then per sample n
    rotation angles followed by n axis phases. Returns (ranges, unit
    fallback directions, angles of shape (rows, n))."""
    n = spec.n_agents
    rng = np.random.default_rng(spec.seed)
    ranges = rng.uniform(spec.init_range[0], spec.init_range[1], size=n)
    fallback = rng.normal(size=(n, K))
    fallback /= np.linalg.norm(fallback, axis=1, keepdims=True)
    std = np.deg2rad(spec.noise_std_deg)
    theta = np.empty((spec.rows, n))
    for s in range(spec.rows):
        theta[s] = rng.normal(0.0, std, size=n)
        rng.uniform(0.0, 2.0 * np.pi, size=n)
    return ranges, fallback, theta


def noise_angles(spec):
    return replay_draws(spec)[2]


def mean_projector(spec, t):
    """Mean over agents of the loss-aware projectors I - b b^T, (len(t), 3, 3)."""
    target = truth_levels(spec, t)[:, 0]
    d = target[:, None, :] - agent_positions(spec, t)
    b = d / np.linalg.norm(d, axis=2, keepdims=True)
    proj = np.eye(K)[None, None] - b[..., :, None] * b[..., None, :]
    proj *= availability(spec, t)[..., None, None]
    return proj.mean(axis=1)


def compute_mu(k, delta):
    """delta for a first-order observer, (delta k1 + k2) / k1^2 otherwise."""
    if len(k) == 1:
        return delta
    return (delta * k[0] + k[1]) / (k[0] * k[0])


def laplacian_lambda2(adjacency):
    a = np.asarray(adjacency)
    return float(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1])


def transformation_kernel(k):
    """The m x m kernel P_m of the error-coordinate transformation P = P_m (x) I.

    Row 1 couples levels M-1 and M with -1/k_{M-1} and 1/k_M; row i (2..M-1)
    couples levels M-i and M-i+1 the same way; row M is 1/k_1 on level 1.
    The last row gives the property the checks use: eta_M = x_pos / k_1.
    """
    m = len(k)
    p = np.zeros((m, m))
    if m == 1:
        p[0, 0] = 1.0 / k[0]
        return p
    for i in range(1, m):
        p[i - 1, m - i - 1] = -1.0 / k[m - i - 1]
        p[i - 1, m - i] = 1.0 / k[m - i]
    p[m - 1, 0] = 1.0 / k[0]
    return p


# -- certify ----------------------------------------------------------------

def parse_certify(stdout: str) -> dict:
    """The JSON line that follows '--- machine ---' in certify's report."""
    lines = stdout.splitlines()
    _require("--- machine ---" in lines, "certify printed no machine-readable section")
    return json.loads(lines[lines.index("--- machine ---") + 1])


def check_certificate(report: dict, spec) -> None:
    """mu, the t = 0 loss-aware spatial margin and the projector form of the
    alpha bound (which fixes the Laplacian lambda_2) against numpy."""
    _require(report.get("overall") is True, f"{spec.name}: certify overall is not true")
    _require(report.get("connected") is True, f"{spec.name}: graph not reported connected")
    mu = compute_mu(spec.k, spec.delta)
    _close(report["mu"], mu, CERT_TOL, f"{spec.name}: mu")
    lam_min = np.linalg.eigvalsh(mean_projector(spec, np.zeros(1))[0])[0]
    _close(report["spatial_margin"], lam_min - (mu + spec.gamma), CERT_TOL,
           f"{spec.name}: spatial margin at t=0")
    bound = (mu + 1.0 / spec.gamma - 1.0) / laplacian_lambda2(spec.adjacency)
    _close(report["alpha_bound"], bound, CERT_TOL, f"{spec.name}: alpha bound")
    _require(report["alpha_ok"] == (spec.alpha > bound),
             f"{spec.name}: alpha_ok disagrees with alpha > bound")
    _require(report["rate_bound"] > 0.0, f"{spec.name}: rate bound not positive")


# -- CSV --------------------------------------------------------------------

def block_name(m: int) -> str:
    return BLOCK_NAMES[m] if m < len(BLOCK_NAMES) else f"d{m}"


def run_header(order: int, n: int):
    cols = ["t"]
    for m in range(order):
        cols += [f"err_{block_name(m)}_agent{i + 1}" for i in range(n)]
    return cols + ["V", "V_bound", "lambda_min_spatial", "disagreement", "comm_floats"]


def compare_header(n: int):
    cols = ["t"]
    for who, blk in (("obs", "pos"), ("dkf", "pos"), ("obs", "vel"), ("dkf", "vel")):
        cols += [f"{who}_err_{blk}_agent{i + 1}" for i in range(n)]
    return cols + ["obs_comm_floats", "dkf_comm_floats"]


def read_csv(text: str, header, rows: int, what: str) -> dict:
    """Columns by name, after checking header, row count and finiteness."""
    lines = text.split("\n")
    _require(lines and lines[-1] == "", f"{what}: does not end with a newline")
    lines = lines[:-1]
    _require(lines and lines[0].split(",") == header, f"{what}: header differs from the documented one")
    _require(len(lines) - 1 == rows, f"{what}: {len(lines) - 1} rows, expected {rows}")
    fields = [line.split(",") for line in lines[1:]]
    _require(all(len(f) == len(header) for f in fields), f"{what}: a row has the wrong field count")
    data = np.array(fields, dtype=float)
    _require(np.all(np.isfinite(data)), f"{what}: non-finite value")
    return {name: data[:, c] for c, name in enumerate(header)}


def read_run_csv(text: str, spec, what: str) -> dict:
    return read_csv(text, run_header(spec.order, spec.n_agents), spec.rows, what)


def errors(cols, spec, m):
    return np.stack([cols[f"err_{block_name(m)}_agent{i + 1}"] for i in range(spec.n_agents)], axis=1)


def check_time_and_comm(cols, spec, what, comm_cols=(("comm_floats", 3),)):
    s = np.arange(spec.rows)
    _require(np.allclose(cols["t"], s * spec.step, rtol=0.0, atol=CSV_TOL), f"{what}: time column")
    for name, per_step in comm_cols:
        _require(np.array_equal(cols[name], per_step * s), f"{what}: {name} is not {per_step} per step")


def check_envelope(cols, spec, rate, what):
    """V_bound is V(0) exp(-2 rate t); noiseless runs keep V <= V_bound; and
    since eta_M = x_pos / k_1, the stacked position error is at most
    k_1 sqrt(2 V) on every row."""
    expect = cols["V"][0] * np.exp(-2.0 * rate * cols["t"])
    _require(np.allclose(cols["V_bound"], expect, rtol=CSV_TOL, atol=CSV_TOL),
             f"{what}: V_bound is not V(0) exp(-2 rate t)")
    pos = np.sqrt((errors(cols, spec, 0) ** 2).sum(axis=1))
    _require(np.all(pos <= spec.k[0] * np.sqrt(2.0 * cols["V"]) * (1.0 + CSV_TOL) + CSV_TOL),
             f"{what}: position error exceeds k1 sqrt(2V)")
    if spec.noise_std_deg == 0.0:
        bad = np.nonzero(cols["V"] > cols["V_bound"] + V_SLACK)[0]
        _require(bad.size == 0, f"{what}: V above V_bound first at row {bad[:1]}")


def check_excitation(cols, spec, what):
    """lambda_min_spatial against the benchmark's own eigen-solve. A noise
    rotation by theta moves a projector by sin(theta) in spectral norm, so a
    noisy row may differ by the availability-weighted mean of |sin theta|."""
    t = times(spec)
    reference = np.linalg.eigvalsh(mean_projector(spec, t))[:, 0]
    allowance = np.zeros(spec.rows)
    if spec.noise_std_deg > 0.0:
        sines = np.abs(np.sin(noise_angles(spec))) * availability(spec, t)
        allowance = sines.mean(axis=1)
    diff = np.abs(cols["lambda_min_spatial"] - reference)
    bad = np.nonzero(diff > allowance + CSV_TOL)[0]
    _require(bad.size == 0,
             f"{what}: lambda_min_spatial off the reference at row {bad[:1]} "
             f"(max diff {diff.max():.3g})")


def decay_bound(spec, cols, rate):
    """Upper bound on the stacked position error at each row (README, 'Noise
    decay bound'): k_1 (|P_m| |x(0)| e^{-r' t} + W (1 - e^{-r' t}) / r'),
    with r' = rate - k_1 |P_m k| max sin(theta)."""
    t = times(spec)
    k = np.asarray(spec.k)
    p = transformation_kernel(spec.k)
    gain_in = np.linalg.norm(p @ k)        # every correction enters along k
    top_in = np.linalg.norm(p[:, -1])      # an unmodelled derivative enters the top level
    x0 = np.sqrt(sum((errors(cols, spec, m)[0] ** 2).sum() for m in range(spec.order)))
    sines = np.zeros((spec.rows, spec.n_agents))
    if spec.noise_std_deg > 0.0:
        sines = np.abs(np.sin(noise_angles(spec))) * availability(spec, t)
    levels = truth_levels(spec, t)
    dist = np.linalg.norm(levels[:, None, 0] - agent_positions(spec, t), axis=2)
    w = gain_in * np.sqrt(((dist * sines) ** 2).sum(axis=1)).max()
    if levels.shape[1] > spec.order:
        w += top_in * np.sqrt(spec.n_agents) * np.linalg.norm(levels[:, spec.order], axis=1).max()
    r = rate - spec.k[0] * gain_in * sines.max()
    _require(r > 0.0, f"{spec.name}: noise too large for the decay bound")
    decay = np.exp(-r * t)
    return spec.k[0] * (np.linalg.norm(p, 2) * x0 * decay + w * (1.0 - decay) / r)


def check_decay(cols, spec, rate, what):
    pos = np.sqrt((errors(cols, spec, 0) ** 2).sum(axis=1))
    bound = decay_bound(spec, cols, rate)
    bad = np.nonzero(pos > bound * (1.0 + CSV_TOL))[0]
    _require(bad.size == 0, f"{what}: position error above the decay bound at row {bad[:1]}")


def check_initial_errors(cols, spec, what):
    """Row 0: agent i starts at p_i + r_i b'_i, where b'_i is its noisy
    bearing (at angle theta_i from the true one, at distance d_i), or its
    fallback direction if it has no measurement; higher levels start at 0."""
    t0 = np.zeros(1)
    ranges, fallback, theta = replay_draws(spec)
    truth = truth_levels(spec, t0)[0]
    pos = agent_positions(spec, t0)[0]
    d = np.linalg.norm(truth[0] - pos, axis=1)
    along = np.sqrt(d**2 + ranges**2 - 2.0 * d * ranges * np.cos(theta[0]))
    lost = np.linalg.norm(truth[0] - pos - ranges[:, None] * fallback, axis=1)
    expect = np.where(availability(spec, t0)[0], along, lost)
    _require(np.allclose(errors(cols, spec, 0)[0], expect, rtol=CSV_TOL, atol=CSV_TOL),
             f"{what}: initial position errors do not match the seeded initial ranges")
    for m in range(1, spec.order):
        level = np.linalg.norm(truth[m]) if m < truth.shape[0] else 0.0
        _require(np.allclose(errors(cols, spec, m)[0], level, rtol=CSV_TOL, atol=CSV_TOL),
                 f"{what}: initial {block_name(m)} errors are not the target's own")


def check_run(text: str, spec, rate: float, what: str) -> dict:
    cols = read_run_csv(text, spec, what)
    check_time_and_comm(cols, spec, what)
    check_initial_errors(cols, spec, what)
    check_envelope(cols, spec, rate, what)
    check_excitation(cols, spec, what)
    check_decay(cols, spec, rate, what)
    return cols


def check_compare(text: str, stdout: str, spec, what: str) -> dict:
    cols = read_csv(text, compare_header(spec.n_agents), spec.rows, what)
    check_time_and_comm(cols, spec, what, (("obs_comm_floats", 3), ("dkf_comm_floats", 84)))
    _require("measurement streams: identical" in stdout.splitlines(),
             f"{what}: compare did not report identical measurement streams")
    return cols


def check_sweep(texts: dict, ref_seed: int, ref_text: str, spec) -> None:
    """One seed's sweep CSV agrees with a separate run of that seed, and
    distinct seeds give distinct CSVs."""
    _require(len(set(texts.values())) == len(texts), "sweep: two seeds wrote the same CSV")
    got = read_run_csv(texts[ref_seed], spec, f"sweep seed {ref_seed}")
    ref = read_run_csv(ref_text, spec, f"run seed {ref_seed}")
    for name, col in ref.items():
        _require(np.allclose(got[name], col, rtol=SWEEP_RTOL, atol=CSV_TOL),
                 f"sweep seed {ref_seed}: column {name} differs from its run")
