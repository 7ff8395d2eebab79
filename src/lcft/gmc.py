"""Gaussian-multiplicative-chaos Monte Carlo oracle on the flat torus.

Estimates the one-point function <V_alpha(0)> on T^2_tau = C/(2 pi Z + 2 pi tau Z)
(metric |dz|^2) straight from the path-integral definition, for cross-validation
against the conformal-bootstrap evaluation.  The chain of exact reductions:

  1. the c-integral   int e^{alpha c} exp(-mu e^{gamma c} M) dc
                      = gamma^{-1} Gamma(alpha/gamma) (mu M)^{-alpha/gamma};
  2. the Girsanov shift X -> X + alpha G(., 0) absorbing the vertex insertion;
  3. Wick ordering of the spectrally truncated field, with the metric constant
     W = lim_eps (E[X_eps^2] + ln eps) = lim_{x -> 0} (G(x, 0) + ln|x|)
     restoring the circle-average normalization,

turns the estimate into

    <V_alpha(0)> ~= (v_g / det' Delta)^{1/2} gamma^{-1} Gamma(alpha/gamma)
                    (mu e^{(gamma^2/2) W})^{-alpha/gamma} e^{(alpha^2/2) W}
                    * E[ Z^{-alpha/gamma} ],
    Z = sum_grid e^{alpha gamma G(x,0)} e^{gamma X(x) - (gamma^2/2) E[X^2]} cell.

All three constants of the flat torus are closed forms in Dedekind eta.  The
zero-mean (Arakelov) Green function has c0 = ln|eta(tau)| (Faltings,
"Calculus on arithmetic surfaces", Ann. Math. 119, 1984); theta1'(0) =
2 pi eta^3 then gives W = c0 - 3 ln|eta| = -2 ln|eta|; and det' Delta =
(2 pi)^2 (Im tau)^2 |eta|^4 (Ray-Singer, "Analytic torsion for complex
manifolds", Ann. Math. 98, 1973), so (v_g / det' Delta)^{1/2} =
(Im tau)^{-1/2} |eta|^{-2}.

The tests verify the reduction numerically, never assume it: a direct
estimator there (numeric c-integral, explicit vertex weight, no Girsanov)
must agree with this one run on the lattice-exact vertex table.

Each field sample is used at four insertion points, the half-period grid
shifts (0, 0), (n/2, 0), (0, n/2) and (n/2, n/2), and the four values are
averaged.  A grid shift multiplies every Fourier mode by a unit phase (+-1 on
the self-conjugate modes), so the lattice field's law is shift-invariant and
the average is exactly unbiased.  At gamma = sqrt(2) on 128^2 it lowers the
variance of Z^{-alpha/gamma} about 1.9x at alpha = 1.2 and 1.25x at
alpha = 0.8.

Each field draw is also used at -X, which has the same law (antithetic
variates: Hammersley and Morton, Proc. Camb. Phil. Soc. 52, 1956).  The
mirror Wick field e^{-gamma X - shift} is e^{-2 shift} / e^{gamma X - shift},
one division in place, so the pair costs no normals and no FFTs; y is the
pair mean (y(X) + y(-X)) / 2 of y = Z^{-alpha/gamma}, exactly unbiased, and
``n_samples`` still counts field draws.  The pair removes the part of y odd
in X, which the controls below cannot see, as they are even in X.  At
gamma = sqrt(2) on 128^2 the pair alone cuts the batch-mean variance about
1.47x at alpha = 1.2 and 1.41x at alpha = 0.8 (``antithetic_ratio``).

Control variates remove what the field's lowest modes explain.  Each of the
12 half-spectrum modes (m, k) with max(|m|, k) <= 2 has a standard complex
normal xi of its own, so Q = |xi|^2 / 2 - 1 has E[Q] = 0 and Cov(Q) = I
exactly, and the coefficient of the pair mean y on Q is beta = Cov(Q, y).
The batches of one parity take beta from those of the other (cross-fitting),
so the adjusted batch means ybar_b - beta . Qbar_b, from which the mean and
stderr come, are exactly unbiased.  At gamma = sqrt(2) on 128^2 they cut the
pair means' variance about 2.8x at alpha = 1.2 and 3.1x at alpha = 0.8
(``variance_ratio``; 1.8x and 1.9x on single draws, without the pair).
Pair and controls together give 2.3x lower variance than the controls
alone, for about 11-18 % more CPU per sample.

Sampling is batch-indexed: batch b draws from its own SFC64 stream, seeded by
``SeedSequence(seed, spawn_key=(b,))``.  The batches run on a thread pool,
one thread per CPU the process may use (``taskset`` caps it) and never more
than there are batches; thread w takes batches w, w + threads, ...  numpy
releases the interpreter lock in the normal fill, the FFTs, ``exp``, the
mirror's division and ``einsum``, so the threads overlap.  A batch's draws,
arithmetic and reductions depend only on (seed, b) and the fixed 32-sample
chunking, and its mean lands in its own slot, so the results are
bit-identical for a fixed seed at any thread count.  Each thread draws into
buffers it allocates once: a chunk's normals and field (about 8 MiB at
128^2), and the spectrum of a 4-sample sub-chunk small enough to stay in
cache through the inverse FFTs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularPoint, ValidationError
from .params import CftParams
from .special import dedekind_eta, theta1

__all__ = [
    "TorusGeometry",
    "McConfig",
    "McEstimate",
    "torus_green",
    "green_constant",
    "wick_variance",
    "w_constant",
    "mc_torus_one_point",
    "mc_torus_one_point_many",
    "torus_det_prefactor",
    "det_prime_torus_closed",
]


def _require_int(name: str, value) -> None:
    """Reject bools and non-integers; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass
class TorusGeometry:
    """Flat torus C/(2 pi Z + 2 pi tau Z) with an n x n sampling grid.

    The spectral cutoff is the full FFT frequency box m, n in [-n/2, n/2).
    """

    tau: complex
    n_grid: int = 64

    def __post_init__(self) -> None:
        self.tau = complex(self.tau)
        if self.tau.imag <= 0:
            raise ValidationError(f"Im tau must be positive, got {self.tau}")
        _require_int("n_grid", self.n_grid)
        if self.n_grid < 4 or self.n_grid % 2:
            raise ValidationError("n_grid must be an even integer >= 4")

    @property
    def area(self) -> float:
        return (2.0 * math.pi) ** 2 * self.tau.imag

    @property
    def cell_area(self) -> float:
        return self.area / self.n_grid**2

    def grid_points(self) -> np.ndarray:
        """Complex coordinates z = 2 pi (u + v tau), u, v on the n x n grid."""
        n = self.n_grid
        u = np.arange(n)[:, None] / n
        v = np.arange(n)[None, :] / n
        return 2.0 * math.pi * (u + v * self.tau)

    def mode_variances(self) -> np.ndarray:
        """Per-mode variance 2 pi / (v_g lambda_k) of the Laplacian eigenvalues
        lambda = |k - m tau|^2 / (Im tau)^2 on the FFT box, indexed [m, k] in
        FFT layout; zero at the zero mode."""
        freq = np.fft.fftfreq(self.n_grid, d=1.0 / self.n_grid)  # 0, 1, ..., -1 layout
        lam = (np.abs(freq[None, :] - freq[:, None] * self.tau) / self.tau.imag) ** 2
        var = np.zeros_like(lam)
        nz = lam > 0
        var[nz] = 2.0 * math.pi / (self.area * lam[nz])
        return var


def torus_green(z, geom: TorusGeometry) -> float | np.ndarray:
    """Green function G(z, 0) = -ln|theta1(z/2pi, tau)| + (Im z)^2/(4 pi Im tau) + c0:
    -Delta G = 2 pi (delta_0 - 1/v_g), and c0 = ln|eta(tau)| makes its torus
    mean zero (see ``green_constant``)."""
    z_arr = np.asarray(z, dtype=complex)
    th = theta1(z_arr / (2.0 * math.pi), geom.tau)
    mag = np.abs(np.asarray(th))
    if np.any(mag == 0.0):
        raise SingularPoint("torus_green evaluated on a lattice point")
    out = -np.log(mag) + (z_arr.imag**2) / (4.0 * math.pi * geom.tau.imag) + green_constant(geom)
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def green_constant(geom: TorusGeometry) -> float:
    """c0(tau) = ln|eta(tau)|: the Arakelov normalization, under which the
    torus average of ln|theta1(u + v tau)| - pi (Im tau) v^2 is ln|eta|."""
    return math.log(abs(dedekind_eta(geom.tau)))


def w_constant(geom: TorusGeometry) -> float:
    """W = lim_{x -> 0} (G(x, 0) + ln|x|) = c0 - 3 ln|eta| = -2 ln|eta(tau)|,
    since theta1(z/2pi) = eta^3 z + O(z^3) by theta1'(0) = 2 pi eta^3."""
    return -2.0 * green_constant(geom)


def wick_variance(geom: TorusGeometry) -> float:
    """E[X(x)^2] of the truncated field (x-independent by translation invariance)."""
    return float(np.sum(geom.mode_variances()))


#: Samples whose normals are drawn in one call: the unit of the random stream's
#: layout, so it fixes which normals feed which sample.
_CHUNK = 32
#: Samples per sub-chunk: its spectrum, column ifft and field slice (about
#: 1.6 MB at 128^2) stay in a 4 MiB L2 cache through the FFTs and the Wick step.
_SUB = 4


def _control_modes(n: int) -> tuple:
    """Half-spectrum indices (m, k) of the controls: columns k = 1, 2 at |m| <= 2,
    then (1, 0) and (2, 0), where 1, 2 < n/2 (12 modes from 6^2 up, 5 on 4^2)."""
    rows = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= 2)
    low = range(1, min(3, n // 2))
    modes = [(m, k) for k in low for m in rows] + [(m, 0) for m in low]
    return tuple(np.array(c) for c in zip(*modes))


class _GffBuffers:
    """One thread's buffers for up to ``chunk`` GFF samples: the chunk's
    normals, field and controls, the spectrum and column ifft of one
    sub-chunk, and the per-mode standard deviations that scale the normals."""

    def __init__(self, geom: TorusGeometry, chunk: int) -> None:
        n = geom.n_grid
        half = n // 2
        v = geom.mode_variances()
        self.modes = _control_modes(n)
        self.n = n
        self.sd_interior = np.sqrt(v[:, 1:half] / 2.0)
        self.sd_edges = [
            (k, np.sqrt(v[1:half, k] / 2.0), np.sqrt(v[0, k]), np.sqrt(v[half, k]))
            for k in (0, half)
        ]
        self.normals = np.empty(chunk * n * n)
        self.X = np.empty((chunk, n, n))
        self.C = np.empty((_SUB, n, half + 1), dtype=complex)
        self.F = np.empty_like(self.C)
        self.Q = np.empty((chunk, len(self.modes[0])))


def _fill_gff(buf: _GffBuffers, rng: np.random.Generator, nb: int):
    """Draw ``nb`` GFF samples X = sum_k A_k e^{i k x}, A_{-k} = conj(A_k),
    E|A_k|^2 = 2 pi / (v_g lambda_k), into ``buf.X[:nb]`` through the Hermitian
    half-spectrum (an inverse FFT over m, then a real one over k), so every
    sample's spatial average is exactly zero; yields each sub-chunk's slice
    of samples once its field is in place.

    The n^2 normals per sample are drawn in one call, laid out as the chunk's
    interior columns 1..half-1 as (nb, n, half-1, 2), then, for k = 0 and
    k = half, the Hermitian column's (nb, half-1, 2) block and its row-0 and
    row-half normals (nb each).  A normal pair read as one complex number is
    xi[..., 0] + 1j xi[..., 1] bit for bit.  Each control mode's
    Q = |xi|^2 / 2 - 1 goes to ``buf.Q[:nb]``, in the order of ``buf.modes``.
    """
    n = buf.n
    half = n // 2
    flat = buf.normals[: nb * n * n]
    rng.standard_normal(out=flat)
    m = nb * (half - 1) * 2
    parts = np.split(flat, np.cumsum([n * m, m, nb, nb, m, nb]))
    interior = parts[0].reshape(nb, n, half - 1, 2).view(complex)[..., 0]
    edges = [
        (block.reshape(nb, half - 1, 2).view(complex)[..., 0], row0, rowh)
        for block, row0, rowh in (parts[1:4], parts[4:7])
    ]
    m, k = buf.modes
    inner = k > 0
    xi = np.hstack([interior[:, m[inner], k[inner] - 1], edges[0][0][:, m[~inner] - 1]])
    buf.Q[:nb] = 0.5 * (xi.real**2 + xi.imag**2) - 1.0
    for i in range(0, nb, _SUB):
        e = min(i + _SUB, nb)
        C = buf.C[: e - i]
        np.multiply(interior[i:e], buf.sd_interior, out=C[:, :, 1:half])
        # self-conjugate columns k = 0 and k = half are Hermitian in m
        for (k, sd, sd0, sdh), (block, row0, rowh) in zip(buf.sd_edges, edges):
            np.multiply(block[i:e], sd, out=C[:, 1:half, k])
            np.conjugate(C[:, 1:half, k], out=C[:, n - 1 : half : -1, k])
            C[:, 0, k] = sd0 * row0[i:e]
            C[:, half, k] = sdh * rowh[i:e]
        C[:, 0, 0] = 0.0
        C *= n * n
        # the two 1-D transforms irfft2 runs, written into the buffers
        F = np.fft.ifft(C, axis=1, out=buf.F[: e - i])
        np.fft.irfft(F, n=n, axis=2, out=buf.X[i:e])
        yield slice(i, e)


# ---------------------------------------------------------------------------
# determinant prefactor
# ---------------------------------------------------------------------------


def det_prime_torus_closed(tau: complex) -> float:
    """det' Delta = R^2 (Im tau)^2 |eta(tau)|^4 of the torus C/(R Z + R tau Z),
    R = 2 pi (Ray-Singer)."""
    tau = complex(tau)
    return (2.0 * math.pi) ** 2 * tau.imag**2 * abs(dedekind_eta(tau)) ** 4


def torus_det_prefactor(geom: TorusGeometry) -> float:
    """(v_g / det' Delta)^{1/2} = (Im tau)^{-1/2} |eta(tau)|^{-2}, from
    v_g = (2 pi)^2 Im tau and the Ray-Singer det' Delta above."""
    return math.sqrt(geom.area / det_prime_torus_closed(geom.tau))


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


@dataclass
class McConfig:
    n_samples: int = 200_000
    n_batches: int = 50
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("n_samples", "n_batches", "seed"):
            _require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.n_batches < 20:
            raise ValidationError("need at least 20 batches for the error bars")
        if self.n_samples < self.n_batches:
            raise ValidationError("need at least one sample per batch")


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    batch_means: np.ndarray = field(repr=False, default=None)
    config: dict = field(default_factory=dict)
    error_blown: bool = False


def _cell_polar_integral(geom: TorusGeometry, power: float) -> float:
    """int over the grid cell centered at 0 of |x|^{-power} dA, by polar
    quadrature of the parallelogram cell spanned by the grid steps."""
    n_theta = 512
    d1 = 2.0 * math.pi / geom.n_grid
    d2 = 2.0 * math.pi * geom.tau / geom.n_grid
    thetas = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    e = np.exp(1j * thetas)
    # solve e^{i theta} = a d1 + b d2 for real (a, b)
    det = d1 * d2.imag  # Im(conj(d1) d2) with d1 real
    a = (e.real * d2.imag - e.imag * d2.real) / det
    b = e.imag * d1 / det
    rmax = 1.0 / (2.0 * np.maximum(np.abs(a), np.abs(b)))
    return float(np.sum(rmax ** (2.0 - power)) / (2.0 - power) * (2.0 * math.pi / n_theta))


def _vertex_weight_table(geom: TorusGeometry, alpha: float, params: CftParams) -> np.ndarray:
    """e^{alpha gamma G(x, 0)} * cell over the grid; the singular cell at the
    origin is integrated by local polar quadrature of the |x|^{-alpha gamma}
    profile."""
    g = params.gamma
    zs = geom.grid_points()
    table = np.empty(zs.shape)
    mask = np.ones(zs.shape, dtype=bool)
    mask[0, 0] = False
    table[mask] = np.exp(alpha * g * torus_green(zs[mask], geom)) * geom.cell_area
    W = w_constant(geom)
    table[0, 0] = math.exp(alpha * g * W) * _cell_polar_integral(geom, alpha * g)
    return table


def _half_period_shifts(n: int) -> tuple:
    """Grid shifts (0, 0), (n/2, 0), (0, n/2), (n/2, n/2) of the insertion
    point's four half-period translates."""
    h = n // 2
    return ((0, 0), (h, 0), (0, h), (h, h))


def _translate_stack(table: np.ndarray, shifts) -> np.ndarray:
    """The vertex-weight table seen from each translate y of the insertion,
    w(x - y), stacked in the order of ``shifts``."""
    return np.stack([np.roll(table, y, axis=(0, 1)) for y in shifts])


def _pair_y(wick: np.ndarray, stacks, s_of, mirror: float) -> tuple[list, list]:
    """Each weight's y+ = Z^{-s} of a chunk's Wick fields ``wick`` =
    e^{gamma X - shift} and its antithetic pair mean y = (y+ + y-) / 2, y- the
    same at -X, both averaged over the translate stack.  Overwrites ``wick``
    with the mirror fields e^{-gamma X - shift} = ``mirror`` / wick, where
    ``mirror`` = e^{-2 shift}."""
    def y(vw, s):
        return np.mean(np.einsum("bij,kij->bk", wick, vw) ** (-s), axis=1)

    plus = [y(vw, s) for vw, s in zip(stacks, s_of)]
    np.divide(mirror, wick, out=wick)
    return plus, [0.5 * (yp + y(vw, s)) for yp, vw, s in zip(plus, stacks, s_of)]


def _thread_count() -> int:
    """CPUs this process may run on; ``taskset`` lowers it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _batch_sizes(cfg: McConfig) -> list[int]:
    base, extra = divmod(cfg.n_samples, cfg.n_batches)
    return [base + (1 if i < extra else 0) for i in range(cfg.n_batches)]


def mc_torus_one_point_many(
    alphas,
    geom: TorusGeometry,
    params: CftParams,
    cfg: McConfig | None = None,
) -> list[McEstimate]:
    """Monte Carlo estimates of <V_alpha(0)> for several weights at once.

    All weights share the same field samples (the Wick factor is
    alpha-independent), so the marginal cost per extra weight is eight
    weighted grid sums per sample, one per translate at X and at -X.  The
    random stream depends only on (seed, batch), so each returned estimate is
    bit-identical to a single-weight run with the same configuration;
    estimates are statistically correlated across weights.
    """
    g = params.gamma
    alphas = [float(a) for a in alphas]
    for alpha1 in alphas:
        if not 0.0 < alpha1 < params.Q:
            raise ValidationError(f"alpha must lie in (0, Q), got {alpha1}")
        if alpha1 * g >= 2.0:
            raise ValidationError(
                f"alpha*gamma = {alpha1 * g:.3f} >= 2: the |x|^(-alpha gamma) vertex profile "
                "is not grid-representable (shifted mass integral diverges at grid scale)"
            )
    tables = [_vertex_weight_table(geom, alpha1, params) for alpha1 in alphas]
    return _estimate(alphas, tables, geom, params, cfg or McConfig())


def _estimate(
    alphas: list[float],
    tables: list[np.ndarray],
    geom: TorusGeometry,
    params: CftParams,
    cfg: McConfig,
) -> list[McEstimate]:
    """The estimator loop: E[Z^{-alpha/gamma}] with Z summed against each
    weight's vertex table ``tables[j]`` (e^{alpha gamma G(x, 0)} * cell over
    the grid), times the exact c-integral and Girsanov constant."""
    g = params.gamma
    W = w_constant(geom)
    s2 = wick_variance(geom)
    pref = torus_det_prefactor(geom)
    s_of = [a / g for a in alphas]

    shifts = _half_period_shifts(geom.n_grid)
    vw = [_translate_stack(table, shifts) for table in tables]
    # exact c-integral + Girsanov: E[Z^{-s}] carries all randomness
    const = [
        pref
        * math.exp(math.lgamma(s)) / g
        * (params.mu * math.exp(0.5 * g * g * W)) ** (-s)
        * math.exp(0.5 * alpha1 * alpha1 * W)
        for alpha1, s in zip(alphas, s_of)
    ]

    n_alpha = len(alphas)
    sizes = _batch_sizes(cfg)
    chunk = min(max(sizes), _CHUNK)
    threads = min(_thread_count(), cfg.n_batches)
    shift = 0.5 * g * g * s2
    mirror = math.exp(-2.0 * shift)
    d = len(_control_modes(geom.n_grid)[0])
    # per-batch sums of the pair means y = (y+ + y-) / 2 of Z^{-s} (the
    # translates' mean), of the y+ halves, of the controls Q and of Q y
    ysum = np.zeros((n_alpha, cfg.n_batches))
    ypsum = np.zeros((n_alpha, cfg.n_batches))
    qsum = np.zeros((cfg.n_batches, d))
    qysum = np.zeros((n_alpha, cfg.n_batches, d))

    def run_batches(first: int) -> None:
        # batches first, first + threads, ...; only private kernels run here,
        # never a public function a caller may have wrapped
        buf = _GffBuffers(geom, chunk)
        for b in range(first, cfg.n_batches, threads):
            size = sizes[b]
            rng = np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(b,)))
            )
            done = 0
            while done < size:
                nb = min(size - done, _CHUNK)
                wick = buf.X[:nb]
                for sl in _fill_gff(buf, rng, nb):
                    w = wick[sl]
                    w *= g
                    w -= shift
                    np.exp(w, out=w)
                Q = buf.Q[:nb]
                qsum[b] += Q.sum(axis=0)
                plus, pairs = _pair_y(wick, vw, s_of, mirror)
                for j, (yp, y) in enumerate(zip(plus, pairs)):
                    ypsum[j, b] += yp.sum()
                    ysum[j, b] += y.sum()
                    qysum[j, b] += np.einsum("b,bi->i", y, Q)
                done += nb

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_batches, range(threads)))
    n_of = np.array(sizes, dtype=float)
    out = []
    for j, alpha1 in enumerate(alphas):
        plain = ysum[j] / n_of
        # cross-fit by batch parity: each fold's beta = Cov(Q, y) (Cov(Q) = I)
        # comes from the other fold, so the adjusted batch means stay unbiased
        batch_means = np.empty(cfg.n_batches)
        for f in (0, 1):
            o = slice(1 - f, None, 2)
            y_o = ysum[j, o].sum() / n_of[o].sum()
            beta = (qysum[j, o].sum(axis=0) - y_o * qsum[o].sum(axis=0)) / n_of[o].sum()
            batch_means[f::2] = plain[f::2] - (qsum[f::2] / n_of[f::2, None] * beta).sum(axis=1)
        mean = const[j] * float(np.mean(batch_means))
        stderr = const[j] * float(np.std(batch_means, ddof=1) / math.sqrt(cfg.n_batches))
        ratio = float(np.var(plain, ddof=1) / np.var(batch_means, ddof=1))
        antithetic = float(np.var(ypsum[j] / n_of, ddof=1) / np.var(plain, ddof=1))
        blown = stderr > 0.5 * abs(mean) if mean else True
        out.append(
            McEstimate(
                mean=mean,
                stderr=stderr,
                n_samples=cfg.n_samples,
                batch_means=const[j] * batch_means,
                config={
                    "alpha1": alpha1,
                    "tau": [geom.tau.real, geom.tau.imag],
                    "n_grid": geom.n_grid,
                    "gamma": g,
                    "mu": params.mu,
                    "seed": cfg.seed,
                    "n_batches": cfg.n_batches,
                    "W": W,
                    "wick_variance": s2,
                    "threads": threads,
                    "bit_generator": "SFC64",
                    "translates": len(shifts),
                    "controls": d,
                    "plain_stderr": stderr * math.sqrt(ratio),
                    "variance_ratio": ratio,
                    "antithetic_ratio": antithetic,
                },
                error_blown=bool(blown),
            )
        )
    return out


def mc_torus_one_point(
    alpha1: float,
    geom: TorusGeometry,
    params: CftParams,
    cfg: McConfig | None = None,
) -> McEstimate:
    """Monte Carlo estimate of <V_alpha1(0)> on the flat torus."""
    return mc_torus_one_point_many([alpha1], geom, params, cfg)[0]


