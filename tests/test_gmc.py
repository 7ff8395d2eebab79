import math
import sys

import numpy as np
import pytest

from lcft import gmc
from lcft.errors import SingularPoint, ValidationError
from lcft.gmc import (
    McConfig,
    TorusGeometry,
    det_prime_torus_closed,
    mc_torus_one_point,
    mc_torus_one_point_many,
    torus_det_prefactor,
    torus_green,
    w_constant,
    wick_variance,
)
from lcft.params import CftParams
from lcft.special import dedekind_eta
from oracles import det_prime_torus_zeta

GEOM = TorusGeometry(tau=1j, n_grid=64)
TAUS = [1j, 0.3 + 1.1j, -0.45 + 0.8j]
TAU_IDS = ["i", "0.3+1.1i", "-0.45+0.8i"]


def draw_gff(geom, rng, batch):
    """``batch`` GFF samples from the estimator's kernel, all in one chunk."""
    buf = gmc._GffBuffers(geom, batch)
    for _ in gmc._fill_gff(buf, rng, batch):
        pass
    return buf.X


def wick_mass(X, geom, params):
    """Each sample's Wick-ordered lattice GMC mass
    sum_x e^{gamma X(x) - (gamma^2/2) E[X^2]} cell, as the direct estimator
    sums it; its mean is v_g exactly."""
    g = params.gamma
    return np.sum(np.exp(X * g - 0.5 * g * g * wick_variance(geom)), axis=(-2, -1)) * geom.cell_area


def truncated_covariance(geom):
    """C_K(x, 0) of the truncated field on the grid (exact FFT sum)."""
    n = geom.n_grid
    return np.real(np.fft.ifft2(geom.mode_variances())) * n * n


def lattice_table(geom, alpha, params):
    """The lattice-exact vertex table e^{alpha gamma C_K(x, 0)} * cell, with
    which the estimator's Girsanov reduction is exact on the lattice."""
    return np.exp(alpha * params.gamma * truncated_covariance(geom)) * geom.cell_area


class TestGreenFunction:
    def test_zero_mean_grid_quadrature(self):
        zs = GEOM.grid_points()
        mask = np.ones(zs.shape, bool)
        mask[0, 0] = False
        vals = torus_green(zs[mask], GEOM)
        # midpoint-free grid mean; the singular cell is excluded so the mean
        # carries a small O(h^2 log h) quadrature remainder
        assert abs(np.mean(vals)) < 5e-3

    @pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
    def test_zero_mean_converges_at_second_order(self, tau):
        # the midpoint rule for the torus mean of G, whose closed-form c0 makes
        # it zero, has an O(h^2) remainder: 4x smaller per halving of h
        geom = TorusGeometry(tau=tau, n_grid=8)

        def midpoint_mean(n):
            u = (np.arange(n) + 0.5)[:, None] / n
            v = (np.arange(n) + 0.5)[None, :] / n
            return abs(float(np.mean(torus_green(2.0 * math.pi * (u + v * tau), geom))))

        coarse, fine = midpoint_mean(256), midpoint_mean(512)
        assert coarse < 6e-6 and fine < 1.5e-6
        assert coarse / fine == pytest.approx(4.0, abs=0.2)

    def test_evenness(self):
        z = 1.0 + 0.5j
        assert torus_green(z, GEOM) == pytest.approx(torus_green(-z, GEOM), rel=1e-13)

    def test_singular_point(self):
        with pytest.raises(SingularPoint):
            torus_green(0.0, GEOM)

    def test_discrete_laplacian_away_from_source(self):
        # -(d2x + d2y) G = -2 pi / v_g away from the insertion
        h = 1e-3
        z = 2.0 + 1.5j
        lap = (
            torus_green(z + h, GEOM)
            + torus_green(z - h, GEOM)
            + torus_green(z + 1j * h, GEOM)
            + torus_green(z - 1j * h, GEOM)
            - 4.0 * torus_green(z, GEOM)
        ) / h**2
        assert -lap == pytest.approx(-2.0 * math.pi / GEOM.area, rel=1e-4)

    def test_truncated_covariance_matches_green(self):
        C = truncated_covariance(GEOM)
        zs = GEOM.grid_points()
        for idx in ((32, 32), (16, 8), (5, 3)):
            assert C[idx] == pytest.approx(torus_green(zs[idx], GEOM), abs=2e-4)

    @pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
    def test_w_is_the_limit_of_green_plus_log(self, tau):
        # G(x, 0) + ln|x| - W vanishes like |x|^2 as x -> 0
        geom = TorusGeometry(tau=tau, n_grid=8)
        x = np.exp(0.7j) * np.array([1e-2, 1e-3])
        gap = np.abs(torus_green(x, geom) + np.log(np.abs(x)) - w_constant(geom))
        assert gap[1] < 1e-7
        assert gap[0] > 50.0 * gap[1]


class TestSampling:
    def test_spatial_mean_exactly_zero(self):
        rng = np.random.default_rng(0)
        X = draw_gff(GEOM, rng, batch=8)
        assert np.abs(X.mean(axis=(1, 2))).max() < 1e-13

    def test_pointwise_mean_within_3_stderr(self):
        rng = np.random.default_rng(1)
        X = draw_gff(GEOM, rng, batch=10_000)
        m = X[:, 7, 9].mean()
        se = X[:, 7, 9].std() / math.sqrt(len(X))
        assert abs(m) < 3 * se + 1e-12

    def test_covariance_matches_truncated_oracle(self):
        rng = np.random.default_rng(2)
        X = draw_gff(GEOM, rng, batch=12_000)
        C = truncated_covariance(GEOM)
        for (i, j) in ((3, 5), (20, 40)):
            prod = X[:, 0, 0] * X[:, i, j]
            emp = prod.mean()
            se = prod.std() / math.sqrt(len(X))
            assert abs(emp - C[i, j]) < 3 * se

    def test_determinism_and_batch_indexing(self):
        params = CftParams(gamma=1.0)
        cfg = McConfig(n_samples=500, n_batches=20, seed=42)
        a = mc_torus_one_point(1.2, GEOM, params, cfg)
        b = mc_torus_one_point(1.2, GEOM, params, cfg)
        assert a.mean == b.mean and a.stderr == b.stderr
        assert np.array_equal(a.batch_means, b.batch_means)


def _reference_sample_gff(geom, rng, batch):
    """The sampler as first written: one chunk's normals drawn per block,
    the spectrum assembled in full, one irfft2.  Returns the fields and the
    controls Q = |xi|^2 / 2 - 1 of the half-spectrum modes with
    max(|m|, k) <= 2 that have a complex normal of their own: columns
    k = 1, 2 (below n/2) at |m| <= 2, then (1, 0) and (2, 0) (below n/2)."""
    n = geom.n_grid
    half = n // 2
    v = geom.mode_variances()
    low = range(1, min(3, half))
    rows = [m for m in range(n) if min(m, n - m) <= 2]
    C = np.zeros((batch, n, half + 1), dtype=complex)
    xi = rng.standard_normal((batch, n, half - 1, 2))
    C[:, :, 1:half] = np.sqrt(v[None, :, 1:half] / 2.0) * (xi[..., 0] + 1j * xi[..., 1])
    pairs = [xi[:, m, k - 1] for k in low for m in rows]
    for k in (0, half):
        xi2 = rng.standard_normal((batch, half - 1, 2))
        block = np.sqrt(v[None, 1:half, k] / 2.0) * (xi2[..., 0] + 1j * xi2[..., 1])
        C[:, 1:half, k] = block
        C[:, n - 1 : half : -1, k] = np.conj(block)
        C[:, 0, k] = np.sqrt(v[0, k]) * rng.standard_normal(batch)
        C[:, half, k] = np.sqrt(v[half, k]) * rng.standard_normal(batch)
        if k == 0:
            pairs += [xi2[:, m - 1] for m in low]
    C[:, 0, 0] = 0.0
    C *= n * n
    pairs = np.stack(pairs, axis=1)
    Q = 0.5 * (pairs[..., 0] ** 2 + pairs[..., 1] ** 2) - 1.0
    return np.fft.irfft2(C, s=(n, n), axes=(1, 2)), Q


def _reference_batch_means(alphas, tables, geom, params, cfg):
    """Scaled batch means of gmc._estimate as first written: one thread,
    batches in order, chunks of 32 samples from the reference sampler, each
    sample's y = (y+ + y-) / 2 the mean of Z^{-s} at X and at -X, each
    averaged over the four half-period translates.  As in the estimator, y+
    comes first for every weight, then the mirror field e^{-2 shift} / wick,
    then y-.  Each batch mean is then adjusted by the controls Q of the
    reference's normals, with beta = mean of Q (y - ybar) over the batches of
    the other parity."""
    g = params.gamma
    W = gmc.w_constant(geom)
    s2 = gmc.wick_variance(geom)
    pref = gmc.torus_det_prefactor(geom)
    s_of = [a / g for a in alphas]
    h = geom.n_grid // 2
    shifts = [(0, 0), (h, 0), (0, h), (h, h)]
    vw = [np.stack([np.roll(table, y, axis=(0, 1)) for y in shifts]) for table in tables]
    const = [
        pref
        * math.exp(math.lgamma(s)) / g
        * (params.mu * math.exp(0.5 * g * g * W)) ** (-s)
        * math.exp(0.5 * alpha1 * alpha1 * W)
        for alpha1, s in zip(alphas, s_of)
    ]
    base, extra = divmod(cfg.n_samples, cfg.n_batches)
    sizes = np.array([base + (1 if b < extra else 0) for b in range(cfg.n_batches)], dtype=float)
    ysum, qysum, qsum = [], [], []
    for b in range(cfg.n_batches):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(b,))))
        done = 0
        y_b, qy_b, q_b = 0.0, 0.0, 0.0
        while done < sizes[b]:
            nb = min(int(sizes[b]) - done, 32)
            X, Q = _reference_sample_gff(geom, rng, nb)
            wick = np.exp(g * X - 0.5 * g * g * s2)
            plus = [np.mean(np.einsum("bij,kij->bk", wick, vw[j]) ** (-s), axis=1)
                    for j, s in enumerate(s_of)]
            wick = math.exp(-2.0 * (0.5 * g * g * s2)) / wick
            ys = [0.5 * (yp + np.mean(np.einsum("bij,kij->bk", wick, vw[j]) ** (-s), axis=1))
                  for yp, (j, s) in zip(plus, enumerate(s_of))]
            y_b = y_b + np.array([y.sum() for y in ys])
            qy_b = qy_b + np.array([np.einsum("b,bi->i", y, Q) for y in ys])
            q_b = q_b + Q.sum(axis=0)
            done += nb
        ysum.append(y_b)
        qysum.append(qy_b)
        qsum.append(q_b)
    # one contiguous row per weight, as the estimator lays them out
    ysum, qysum = np.array(ysum).T.copy(), np.array(qysum).transpose(1, 0, 2).copy()
    qsum = np.array(qsum)
    means = ysum / sizes
    for m, y, qy in zip(means, ysum, qysum):
        for f in (0, 1):
            o = slice(1 - f, None, 2)
            y_o = y[o].sum() / sizes[o].sum()
            beta = (qy[o].sum(axis=0) - y_o * qsum[o].sum(axis=0)) / sizes[o].sum()
            m[f::2] -= (qsum[f::2] / sizes[f::2, None] * beta).sum(axis=1)
    return np.array([c * m for c, m in zip(const, means)])


def _direct_batch_means(alpha1, geom, params, cfg):
    """Scaled batch means of the literal path-integral transcription of
    <V_alpha1(0)>, with no Girsanov shift and no exact c-integral: the
    c-integral is done numerically, and the vertex e^{alpha X - (alpha^2/2)
    E[X^2]} is read off the field at the four half-period translates.  One
    thread, the estimator's sampler and its (seed, batch) streams."""
    g = params.gamma
    W = gmc.w_constant(geom)
    s2 = gmc.wick_variance(geom)
    s = alpha1 / g
    # numeric c-integral J = int e^{alpha d} e^{-s e^{gamma d}} dd, so that
    # int e^{alpha c} e^{-mu e^{gamma c} M} dc = (s / (mu M))^s J
    dd = np.linspace(-30.0 / alpha1 - 5.0, 12.0 / g, 4001)
    J = float(np.trapezoid(np.exp(alpha1 * dd - s * np.exp(g * dd)), dd))
    pref = gmc.torus_det_prefactor(geom)
    const = pref * math.exp(0.5 * alpha1 * alpha1 * W) * J * (s / params.mu) ** s
    rows, cols = zip(*gmc._half_period_shifts(geom.n_grid))
    buf = gmc._GffBuffers(geom, gmc._CHUNK)
    means = np.empty(cfg.n_batches)
    for b, size in enumerate(gmc._batch_sizes(cfg)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(b,))))
        done = 0
        acc = 0.0
        while done < size:
            nb = min(size - done, gmc._CHUNK)
            x_at = np.empty((nb, len(rows)))
            wick = buf.X[:nb]
            for sl in gmc._fill_gff(buf, rng, nb):
                x_at[sl] = wick[sl, rows, cols]
                np.exp(wick[sl] * g - 0.5 * g * g * s2, out=wick[sl])
            M_phys = math.exp(0.5 * g * g * W) * np.sum(wick, axis=(-2, -1)) * geom.cell_area
            vertex = np.exp(alpha1 * x_at - 0.5 * alpha1 * alpha1 * s2)
            acc += float(np.sum(vertex * (M_phys ** (-s))[:, None])) / len(rows)
            done += nb
        means[b] = acc / size
    return const * means


class TestBitwiseThreadedSampler:
    """The threaded, buffered sampling loop reproduces the reference loop bit
    for bit, whatever the number of threads."""

    PARAMS = CftParams(gamma=math.sqrt(2.0), mu=1.0)

    @pytest.mark.parametrize(
        "n, batch", [(64, 1), (64, 7), (12, 7)], ids=["64-b1", "64-b7", "12-b7"]
    )
    def test_sample_gff(self, n, batch):
        geom = TorusGeometry(tau=0.3 + 1.1j, n_grid=n)
        X = draw_gff(geom, np.random.default_rng(4), batch=batch)
        ref, _ = _reference_sample_gff(geom, np.random.default_rng(4), batch)
        assert np.array_equal(X, ref)

    @pytest.mark.parametrize("threads", [1, 2, 25])
    @pytest.mark.parametrize(
        "lattice_exact, cfg",
        [
            # batches of 258 and 257 samples: nine chunks each, sizes not a
            # multiple of the chunk or the sub-chunk
            pytest.param(
                False, McConfig(n_samples=20 * 257 + 5, n_batches=20, seed=7), id="continuum"
            ),
            pytest.param(True, McConfig(n_samples=150, n_batches=21, seed=3), id="truncated"),
        ],
    )
    def test_batch_means(self, monkeypatch, lattice_exact, cfg, threads):
        monkeypatch.setattr(gmc, "_thread_count", lambda: threads)
        geom = TorusGeometry(tau=0.2 + 1.05j, n_grid=16)
        alphas = [0.8, 1.2]
        # frequent thread switches, so a lost or misplaced batch mean would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            if lattice_exact:
                tables = [lattice_table(geom, a, self.PARAMS) for a in alphas]
                ests = gmc._estimate(alphas, tables, geom, self.PARAMS, cfg)
            else:
                tables = [gmc._vertex_weight_table(geom, a, self.PARAMS) for a in alphas]
                ests = mc_torus_one_point_many(alphas, geom, self.PARAMS, cfg)
        finally:
            sys.setswitchinterval(interval)
        ref = _reference_batch_means(alphas, tables, geom, self.PARAMS, cfg)
        for j, est in enumerate(ests):
            assert est.config["threads"] == min(threads, cfg.n_batches)
            assert np.array_equal(est.batch_means, ref[j])


class TestControls:
    """The control variates: Q = |xi|^2 / 2 - 1 of the field's lowest modes,
    read from the normals, with E[Q] = 0 and Cov(Q) = I exactly."""

    PARAMS = CftParams(gamma=math.sqrt(2.0), mu=1.0)

    @staticmethod
    def _modes_and_energies(n):
        """The control modes of one 7-sample chunk, its Q from the normal
        buffer, and |rfft2(X)[m, k]|^2 / (n^4 var_{m,k}) - 1 from its field."""
        geom = TorusGeometry(tau=0.3 + 1.1j, n_grid=n)
        buf = gmc._GffBuffers(geom, 7)
        for _ in gmc._fill_gff(buf, np.random.default_rng(9), 7):
            pass
        m, k = buf.modes
        C = np.fft.rfft2(buf.X[:7])
        energies = np.abs(C[:, m, k]) ** 2 / (n**4 * geom.mode_variances()[m, k]) - 1.0
        return set(zip(m.tolist(), k.tolist())), buf.Q[:7], energies

    @pytest.mark.parametrize("n", [64, 12, 8])
    def test_layout(self, n):
        # max(|m|, k) <= 2, k >= 0, m > 0 when k = 0: 12 modes
        modes, Q, energies = self._modes_and_energies(n)
        assert modes == {(a % n, b) for b in range(3) for a in range(-2, 3) if b > 0 or a > 0}
        assert np.allclose(Q, energies, rtol=0, atol=1e-12)

    def test_reduced_count_on_4(self):
        # 4^2 has the column k = 1 at m = 0, 1, -2, -1 and the mode (1, 0);
        # (2, 0) is a real normal there, and k = 2 is the Nyquist column
        modes, Q, energies = self._modes_and_energies(4)
        assert modes == {(0, 1), (1, 1), (2, 1), (3, 1), (1, 0)}
        assert np.allclose(Q, energies, rtol=0, atol=1e-12)

    def test_stderr_is_honest(self):
        # 20 seeds: the spread of the estimates matches their reported stderr
        # within the chi-square scatter of 20 seeds, and their mean agrees with
        # a 10x longer run
        from scipy.stats import chi2

        geom = TorusGeometry(tau=1j, n_grid=32)
        ests = [
            mc_torus_one_point(1.2, geom, self.PARAMS, McConfig(n_samples=2000, n_batches=20, seed=seed))
            for seed in range(1, 21)
        ]
        means = np.array([e.mean for e in ests])
        stderr = np.mean([e.stderr for e in ests])
        spread = np.std(means, ddof=1)
        lo, hi = np.sqrt(chi2.ppf([0.001, 0.999], df=19) / 19)
        assert lo < spread / stderr < hi
        long = mc_torus_one_point(1.2, geom, self.PARAMS, McConfig(n_samples=20000, n_batches=20, seed=100))
        assert abs(means.mean() - long.mean) < 4.0 * math.hypot(stderr / math.sqrt(20), long.stderr)


class TestAntithetic:
    """The antithetic pair: each field draw X is used at X and at -X, whose
    Wick field is the mirror e^{-2 shift} / e^{gamma X - shift}."""

    PARAMS = CftParams(gamma=math.sqrt(2.0), mu=1.0)
    ALPHAS = [0.8, 1.2]

    def _chunk(self):
        """One 7-sample chunk of the reference sampler on 16^2, its Wick
        fields as the estimator forms them, the shift and the translate stacks."""
        geom = TorusGeometry(tau=0.2 + 1.05j, n_grid=16)
        g = self.PARAMS.gamma
        X, _ = _reference_sample_gff(geom, np.random.default_rng(12), 7)
        shift = 0.5 * g * g * wick_variance(geom)
        shifts = gmc._half_period_shifts(geom.n_grid)
        stacks = [
            gmc._translate_stack(gmc._vertex_weight_table(geom, a, self.PARAMS), shifts)
            for a in self.ALPHAS
        ]
        return X, np.exp(g * X - shift), shift, stacks

    def test_mirror_field(self):
        X, wick, shift, stacks = self._chunk()
        s_of = [a / self.PARAMS.gamma for a in self.ALPHAS]
        gmc._pair_y(wick, stacks, s_of, math.exp(-2.0 * shift))
        expected = np.exp(-self.PARAMS.gamma * X - shift)
        assert np.allclose(wick, expected, rtol=1e-13, atol=0)

    def test_pair_mean(self):
        # y = (y(X) + y(-X)) / 2, each y the translates' mean of Z^{-s}
        X, wick, shift, stacks = self._chunk()
        g = self.PARAMS.gamma
        s_of = [a / g for a in self.ALPHAS]
        plus, pairs = gmc._pair_y(wick, stacks, s_of, math.exp(-2.0 * shift))
        for yp, y, vw, s in zip(plus, pairs, stacks, s_of):
            at = [
                np.mean(np.einsum("bij,kij->bk", np.exp(sign * g * X - shift), vw) ** (-s), axis=1)
                for sign in (1.0, -1.0)
            ]
            assert np.array_equal(yp, at[0])
            assert np.allclose(y, 0.5 * (at[0] + at[1]), rtol=1e-13, atol=0)
            assert not np.allclose(at[0], at[1], rtol=1e-3)


class TestTranslates:
    PARAMS = CftParams(gamma=math.sqrt(2.0), mu=1.0)

    @pytest.mark.parametrize("lattice_exact", [False, True], ids=["continuum", "truncated"])
    def test_roll_direction(self, lattice_exact):
        # each translate's Z is Z_0 of the field shifted back by the translate;
        # (1, 3) is off the half periods, where the roll direction shows
        geom = TorusGeometry(tau=0.2 + 1.05j, n_grid=16)
        g, alpha = self.PARAMS.gamma, 1.2
        if lattice_exact:
            table = lattice_table(geom, alpha, self.PARAMS)
        else:
            table = gmc._vertex_weight_table(geom, alpha, self.PARAMS)
        shifts = gmc._half_period_shifts(geom.n_grid) + ((1, 3),)
        X = draw_gff(geom, np.random.default_rng(6), batch=1)
        wick = np.exp(g * X - 0.5 * g * g * wick_variance(geom))
        Z = np.einsum("bij,kij->bk", wick, gmc._translate_stack(table, shifts))[0]
        for k, (a, c) in enumerate(shifts):
            rolled = np.roll(X[0], (-a, -c), axis=(0, 1))
            z0 = np.sum(np.exp(g * rolled - 0.5 * g * g * wick_variance(geom)) * table)
            assert Z[k] == pytest.approx(z0, rel=1e-13, abs=0)


class TestGmcMass:
    def test_wick_mean_is_area(self):
        params = CftParams(gamma=math.sqrt(2.0))
        rng = np.random.default_rng(3)
        X = draw_gff(GEOM, rng, batch=10_000)
        M = wick_mass(X, GEOM, params)
        se = M.std() / math.sqrt(len(M))
        assert abs(M.mean() - GEOM.area) < 3 * se

    def test_positive(self):
        params = CftParams(gamma=1.5)
        rng = np.random.default_rng(4)
        M = wick_mass(draw_gff(GEOM, rng, batch=100), GEOM, params)
        assert np.all(M > 0)

    def test_small_gamma_limit(self):
        params = CftParams(gamma=1e-6)
        rng = np.random.default_rng(5)
        M = wick_mass(draw_gff(GEOM, rng, batch=10), GEOM, params)
        assert M == pytest.approx(np.full(10, GEOM.area), rel=1e-4)


class TestDeterminant:
    def test_closed_vs_zeta(self):
        for tau in (1j, 0.2 + 0.9j):
            closed = det_prime_torus_closed(tau)
            zv = det_prime_torus_zeta(tau)
            assert zv == pytest.approx(closed, rel=1e-8)

    def test_scaling_law(self):
        # det'_{lambda^2 g} = lambda^2 det'_g (zeta(0) = -1)
        r = det_prime_torus_zeta(1j, radius=4 * math.pi) / det_prime_torus_zeta(
            1j, radius=2 * math.pi
        )
        assert r == pytest.approx(4.0, rel=1e-8)

    def test_prefactor_closed_form(self):
        # (Im tau)^{-1/2} |eta|^{-2}
        geom = TorusGeometry(tau=1j, n_grid=16)
        assert torus_det_prefactor(geom) == pytest.approx(
            abs(dedekind_eta(1j)) ** -2, rel=1e-10
        )

    def test_prefactor_invariant_under_tau_shift(self):
        g1 = TorusGeometry(tau=0.3 + 1.1j, n_grid=16)
        g2 = TorusGeometry(tau=1.3 + 1.1j, n_grid=16)
        assert torus_det_prefactor(g1) == pytest.approx(torus_det_prefactor(g2), rel=1e-10)


class TestEstimator:
    PARAMS = CftParams(gamma=math.sqrt(2.0), mu=1.0)

    def test_c_integral_identity(self):
        # int e^{s c - mu e^{gamma c} M} dc = gamma^{-1} Gamma(s/gamma) (mu M)^{-s/gamma}
        from scipy.integrate import quad

        gamma, s, mu, Mmass = 1.3, 1.3, 1.0, 1.0
        val, _ = quad(lambda c: math.exp(s * c - mu * math.exp(gamma * c) * Mmass), -60, 20, limit=400)
        assert val == pytest.approx(1.0 / gamma, rel=1e-9)

    def test_direct_equals_reduced_with_truncated_green(self):
        # Girsanov + exact c-integral vs the literal path-integral transcription
        geom = TorusGeometry(tau=1j, n_grid=32)
        cfg = McConfig(n_samples=12000, n_batches=20, seed=3)
        table = lattice_table(geom, 1.2, self.PARAMS)
        (red,) = gmc._estimate([1.2], [table], geom, self.PARAMS, cfg)
        dire = _direct_batch_means(1.2, geom, self.PARAMS, cfg)
        dire_stderr = np.std(dire, ddof=1) / math.sqrt(cfg.n_batches)
        sigma = math.hypot(red.stderr, dire_stderr)
        assert abs(red.mean - np.mean(dire)) < 3.5 * sigma

    def test_mu_scaling_analytic(self):
        geom = TorusGeometry(tau=1j, n_grid=32)
        cfg = McConfig(n_samples=400, n_batches=20, seed=8)
        base = mc_torus_one_point(1.2, geom, CftParams(gamma=math.sqrt(2.0), mu=1.0), cfg)
        other = mc_torus_one_point(1.2, geom, CftParams(gamma=math.sqrt(2.0), mu=2.0), cfg)
        expo = -1.2 / math.sqrt(2.0)
        assert other.mean == pytest.approx(base.mean * 2.0**expo, rel=1e-12)

    def test_guards(self):
        geom = TorusGeometry(tau=1j, n_grid=32)
        with pytest.raises(ValidationError):
            mc_torus_one_point(-0.5, geom, self.PARAMS, McConfig(n_samples=100, n_batches=20))
        with pytest.raises(ValidationError):
            # alpha gamma >= 2 is not grid-representable
            mc_torus_one_point(1.9, geom, self.PARAMS, McConfig(n_samples=100, n_batches=20))
        with pytest.raises(ValidationError):
            McConfig(n_samples=100, n_batches=10)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, None])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be"):
            McConfig(n_samples=100, n_batches=20, seed=seed)

    @pytest.mark.parametrize(
        "n_samples, n_batches",
        [(40.5, 20), (40, 20.0), (40.0, 20), (True, 20), (40, "20"), (40, None)],
    )
    def test_bad_sizes(self, n_samples, n_batches):
        with pytest.raises(ValidationError, match="(n_samples|n_batches) must be an integer"):
            McConfig(n_samples=n_samples, n_batches=n_batches)

    @pytest.mark.parametrize("n_grid", [8.0, 8.5, True, "8", None])
    def test_bad_grid(self, n_grid):
        with pytest.raises(ValidationError, match="n_grid must be an integer"):
            TorusGeometry(tau=1j, n_grid=n_grid)

    def test_many_equals_one(self):
        # each weight of a joint run is bit-identical to its own run
        geom = TorusGeometry(tau=1j, n_grid=16)
        cfg = McConfig(n_samples=200, n_batches=20, seed=11)
        ests = mc_torus_one_point_many([0.8, 1.2], geom, self.PARAMS, cfg)
        for alpha, est in zip([0.8, 1.2], ests):
            one = mc_torus_one_point(alpha, geom, self.PARAMS, cfg)
            assert est.mean == one.mean
            assert np.array_equal(est.batch_means, one.batch_means)

    def test_numpy_integer_seed(self):
        # numpy integers pass for the seed, the sizes and the grid alike
        a = mc_torus_one_point(
            1.2, TorusGeometry(tau=1j, n_grid=np.int64(8)), self.PARAMS,
            McConfig(n_samples=np.int64(40), n_batches=np.int32(20), seed=np.int64(3)),
        )
        geom = TorusGeometry(tau=1j, n_grid=8)
        b = mc_torus_one_point(1.2, geom, self.PARAMS, McConfig(n_samples=40, n_batches=20, seed=3))
        assert np.array_equal(a.batch_means, b.batch_means)

    def test_grid_consistency_64_vs_32(self):
        cfg = McConfig(n_samples=6000, n_batches=20, seed=13)
        e32 = mc_torus_one_point(1.2, TorusGeometry(tau=1j, n_grid=32), self.PARAMS, cfg)
        e64 = mc_torus_one_point(1.2, TorusGeometry(tau=1j, n_grid=64), self.PARAMS, cfg)
        # truncation drift between coarse grids stays within a few percent
        assert abs(e64.mean - e32.mean) / e64.mean < 0.05

    def test_estimate_record(self):
        geom = TorusGeometry(tau=1j, n_grid=32)
        est = mc_torus_one_point(0.8, geom, self.PARAMS, McConfig(n_samples=400, n_batches=20, seed=1))
        assert est.n_samples == 400
        assert len(est.batch_means) == 20
        assert not est.error_blown
        assert est.config["bit_generator"] == "SFC64"
        assert est.config["translates"] == 4
        assert est.config["controls"] == 12
        assert est.config["W"] == -2.0 * math.log(abs(dedekind_eta(1j)))
        assert est.config["variance_ratio"] > 1.0
        assert est.config["antithetic_ratio"] > 1.0
        ratio = (est.config["plain_stderr"] / est.stderr) ** 2
        assert est.config["variance_ratio"] == pytest.approx(ratio, rel=1e-12)
