"""Self-test battery: one callable per acceptance criterion.

Each criterion returns a CriterionResult; `run_battery` executes a selection
and prints one pass/fail line per criterion.  Expected values marked as frozen
were computed beforehand with the exact-rational oracles in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import _pant_arrays, _radial_arrays, torus_one_point_block
from .bootstrap import Quadrature, graph_correlator, torus_one_point
from .dozz import dozz_constant
from .free_field import BoundaryField, annulus_partition, free_annulus_amplitude, heat_kernel_K0
from .gmc import McConfig, TorusGeometry
from .graphs import AdmissibleGraph, EdgeSpec, MarkedPoint
from .params import CftParams
from .special import UpsilonEvaluator, l_ratio, upsilon, upsilon_prime_zero
from .virasoro import conformal_weight, kac_weight, shapovalov, shapovalov_inverse

__all__ = ["CriterionResult", "run_battery", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    detail: str
    seconds: float


def _result(cid, passed, detail, t0) -> CriterionResult:
    return CriterionResult(cid=cid, passed=bool(passed), detail=detail, seconds=time.time() - t0)


def criterion_1() -> CriterionResult:
    """Upsilon shift-relation residuals < 1e-8 on the reference grid; runtime < 10 s."""
    t0 = time.time()
    worst = 0.0
    for gamma in (0.8, 1.0, math.sqrt(2.0), 1.8):
        ev = UpsilonEvaluator(gamma)
        z = 0.1
        while z < ev.Q - 0.6:
            lhs = upsilon(z + gamma / 2.0, ev)
            rhs = l_ratio(gamma * z / 2.0) * (gamma / 2.0) ** (1.0 - gamma * z) * upsilon(z, ev)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
            z += 0.1
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 10.0
    return _result("1", ok, f"worst residual {worst:.2e}, runtime {dt:.2f}s", t0)


def criterion_2() -> CriterionResult:
    """Upsilon zero lattice at gamma = 1.3 and Ups'(0) = Ups(gamma/2) to 1e-8."""
    t0 = time.time()
    gamma = 1.3
    ev = UpsilonEvaluator(gamma)
    ok = True
    details = []
    for z0 in (-gamma / 2.0, -2.0 / gamma, ev.Q + gamma / 2.0):
        neighborhood = max(abs(upsilon(z0 + 0.1 * math.cos(t), ev)) for t in (0.0, 1.3, 2.7, 4.1))
        val = abs(upsilon(z0, ev))
        ok &= val < 1e-6 * neighborhood
        details.append(f"|Ups({z0:+.3f})| = {val:.1e} (nbhd {neighborhood:.1e})")
    v = upsilon(gamma / 2.0, ev)
    h = 1e-4

    def central(hh):
        return (upsilon(hh, ev) - upsilon(-hh, ev)) / (2.0 * hh)

    fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
    rel = abs(fd - v) / abs(v)
    ok &= rel < 1e-8
    upsilon_prime_zero(ev)  # internal consistency guard must not raise
    return _result("2", ok, "; ".join(details) + f"; FD rel {rel:.1e}", t0)


def criterion_3() -> CriterionResult:
    """DOZZ permutation symmetry and exact mu-scaling at 20 random triples, 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_perm = 0.0
    worst_mu = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.7, 1.8))
        params = CftParams(gamma=gamma, mu=1.0)
        a = rng.uniform(0.15, 0.9 * params.Q, size=3)
        base = dozz_constant(a[0], a[1], a[2], params)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            other = dozz_constant(a[perm[0]], a[perm[1]], a[perm[2]], params)
            worst_perm = max(worst_perm, abs(other - base) / abs(base))
        mu = float(rng.uniform(0.2, 5.0))
        scaled = dozz_constant(a[0], a[1], a[2], CftParams(gamma=gamma, mu=mu))
        expect = mu ** ((2.0 * params.Q - a.sum()) / gamma) * base
        worst_mu = max(worst_mu, abs(scaled - expect) / abs(expect))
    ok = worst_perm < 1e-12 and worst_mu < 1e-12
    return _result("3", ok, f"perm {worst_perm:.1e}, mu-scaling {worst_mu:.1e}", t0)


def criterion_4() -> CriterionResult:
    """Kac vanishing |det F| <= 1e-8 ||F|| for rs <= n <= 4 at gamma = sqrt(2).

    The weights are dyadic at gamma^2 = 2, so the float Gram entries are exact
    and the determinant is evaluated in exact rational arithmetic.
    """
    t0 = time.time()
    params = CftParams(gamma=math.sqrt(2.0))
    ok = True
    worst = 0.0
    for n in range(1, 5):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                if r * s > n:
                    continue
                # exact dyadic Kac weight at gamma^2 = 2: Delta = (9-(r+2s)^2)/8,
                # c_L = 28; kac_weight/conformal_weight reproduce these to 1e-15
                # through irrational floats (tested separately), but the exact
                # vanishing semantics of the criterion needs the exact input.
                d = (9.0 - (r + 2 * s) ** 2) / 8.0
                d_float = conformal_weight(kac_weight(r, s, params), params)
                assert abs(complex(d_float) - d) < 1e-12
                F = shapovalov(complex(d), 28.0, n).entries
                exact = [[Fraction(float(x.real)) for x in row] for row in F]
                det = _fraction_det(exact)
                norm = float(np.abs(F).max())
                rel = abs(float(det)) / max(norm, 1e-300)
                worst = max(worst, rel)
                ok &= rel <= 1e-8
    return _result("4", ok, f"worst |det|/||F|| = {worst:.2e}", t0)


def _fraction_det(m) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            if f:
                for col in range(i, n):
                    m[r][col] -= f * m[i][col]
    return det


#: Gram matrices frozen from the exact-rational commutator oracle
#: (tests/oracles.py) at dyadic test weights; float conversion is exact.
FROZEN_GRAM = {
    (0.5, 26.0): {
        1: [[1.0]],
        2: [[15.0, 3.0], [3.0, 4.0]],
        3: [[55.0, 60.0, 12.0], [60.0, 84.0, 27.0], [12.0, 27.0, 36.0]],
    },
    (-0.625, -8.5): {
        1: [[-1.25]],
        2: [[-6.75, -3.75], [-3.75, 0.625]],
        3: [[-20.75, -27.0, -15.0], [-27.0, -29.8125, -8.4375], [-15.0, -8.4375, 1.40625]],
    },
}


def criterion_5() -> CriterionResult:
    """Gram matrices at levels 1-3 equal the exact-rational oracle bit-for-bit."""
    t0 = time.time()
    ok = True
    for (d, c), levels in FROZEN_GRAM.items():
        for n, frozen in levels.items():
            F = shapovalov(d, c, n).entries
            same = np.array_equal(F.real, np.array(frozen)) and np.all(F.imag == 0.0)
            ok &= bool(same)
    return _result("5", ok, "bit-for-bit against frozen oracle matrices", t0)


def criterion_6() -> CriterionResult:
    """Torus level-1 block coefficient vs the symbolic oracle at 10 random points."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    params = CftParams(gamma=1.25)
    worst = 0.0
    for _ in range(10):
        alpha1 = float(rng.uniform(0.1, 2.2))
        p = float(rng.uniform(0.15, 3.0))
        dh = complex(conformal_weight(params.Q + 1j * p, params))
        da = complex(conformal_weight(alpha1, params))
        finv = shapovalov_inverse(shapovalov(dh, params.c_L, 1)).entries
        w = _radial_arrays({(1, 1)}, (np.array([dh]), da, np.array([dh])), params.c_L)[(1, 1)][0]
        got = complex(np.trace(finv @ w))
        oracle = da * (da - 1.0) / (2.0 * dh) + 1.0
        worst = max(worst, abs(got - oracle) / abs(oracle))
    return _result("6", worst < 1e-10, f"worst rel {worst:.2e}", t0)


def _genus2_hand_coded(quad, qs, params: CftParams, N: int) -> float:
    """Independent transcription of the genus-2 partition-function formula,
    summed with quad's weights over its node triples: two pants, one linking
    edge (p1), one self-loop on each pant (p2, p3).  Both pants take their
    arrays from one build over the node pairs (p1, p_loop)."""
    n_nodes = quad.n_nodes
    q1, q2, q3 = (complex(q) for q in qs)
    Q, c = params.Q, params.c_L
    hs = [complex(conformal_weight(Q + 1j * p, params)) for p in quad.nodes]
    finv = []
    for hh in hs:
        per = [np.eye(1, dtype=complex)]
        for n in range(1, N + 1):
            per.append(shapovalov_inverse(shapovalov(hh, c, n)).entries)
        finv.append(per)
    pair_h = np.array(hs)[np.indices((n_nodes, n_nodes)).reshape(2, -1)]
    levels = {(n1, n2, n2) for n1 in range(N + 1) for n2 in range(N + 1 - n1)}
    pant = _pant_arrays(levels, (pair_h[0], pair_h[1], pair_h[1]), c)
    total = 0.0
    for i1, i2, i3 in np.ndindex(n_nodes, n_nodes, n_nodes):
        p1, p2, p3 = (float(quad.nodes[i]) for i in (i1, i2, i3))
        h = [hs[i] for i in (i1, i2, i3)]
        rho = (
            dozz_constant(Q - 1j * p1, Q - 1j * p2, Q + 1j * p2, params)
            * dozz_constant(Q + 1j * p1, Q + 1j * p3, Q - 1j * p3, params)
        )
        series = 0.0 + 0.0j
        for n1 in range(N + 1):
            for n2 in range(N + 1 - n1):
                for n3 in range(N + 1 - n1 - n2):
                    w1 = pant[(n1, n2, n2)][i1 * n_nodes + i2]
                    w2 = pant[(n1, n3, n3)][i1 * n_nodes + i3]
                    # edge 1 pairs slot 1 of both pants; each loop pairs slots 2, 3
                    term = np.einsum(
                        "iab,jcd,ij,ab,cd->", w1, w2, finv[i1][n1], finv[i2][n2], finv[i3][n3]
                    )
                    series += complex(term) * q1**n1 * q2**n2 * q3**n3
        pref_mod = 1.0
        for qq, hh in zip((q1, q2, q3), h):
            pref_mod *= abs(qq) ** (2.0 * (-c / 24.0 + hh.real))
        block2 = pref_mod * abs(series) ** 2
        wgt = float(np.prod([quad.weights[i] for i in (i1, i2, i3)]))
        total += wgt * float(np.real(rho)) * block2 * 2.0 ** 1.5 / (2.0 * math.pi) ** 5
    return total


def _torus_one_point_hand_coded(alpha1: float, tau: complex, params: CftParams, quad, N: int) -> float:
    """Independent transcription of the torus one-point formula
    (1/2e) sum_i w_i C(Q+ip_i, alpha1, Q-ip_i) |F_{p_i}(alpha1, q)|^2."""
    q = complex(np.exp(2j * math.pi * tau))
    total = 0.0
    for p, w in zip(quad.nodes, quad.weights):
        rho = dozz_constant(params.Q + 1j * p, alpha1, params.Q - 1j * p, params).real
        total += w * rho * torus_one_point_block(alpha1, float(p), q, params, N).abs2([q])
    return total / (2.0 * math.e)


def criterion_7() -> CriterionResult:
    """Genus-2 graph and torus self-loop graph vs hand-coded transcriptions."""
    t0 = time.time()
    params = CftParams(gamma=math.sqrt(2.0))
    qs = [0.06 + 0.02j, 0.09 - 0.01j, 0.05 + 0.04j]
    g2 = AdmissibleGraph(
        edges=[
            EdgeSpec((1, 1), (2, 1), q=qs[0]),
            EdgeSpec((1, 2), (1, 3), q=qs[1]),
            EdgeSpec((2, 2), (2, 3), q=qs[2]),
        ]
    )
    quad = Quadrature(p_max=1.5, panel_width=0.5, nodes_per_panel=3)
    N = 3
    res = graph_correlator(g2, params, quad=quad, N=N)
    hand = _genus2_hand_coded(quad, qs, params, N)
    rel_g2 = abs(res.value - hand) / abs(hand)

    alpha1, tau = 1.2, 1j
    q = complex(np.exp(2j * math.pi * tau))
    loop = AdmissibleGraph(
        edges=[EdgeSpec((1, 1), (1, 2), q=q)], marked=[MarkedPoint(1, 3, alpha1)]
    )
    quad2 = Quadrature(p_max=5.0, panel_width=0.5, nodes_per_panel=6)
    r_graph = graph_correlator(loop, params, quad=quad2, N=4)
    hand_loop = _torus_one_point_hand_coded(alpha1, tau, params, quad2, N=4)
    rel_loop = abs(r_graph.value - hand_loop) / abs(hand_loop)
    ok = rel_g2 < 1e-10 and rel_loop < 1e-10
    return _result("7", ok, f"genus-2 rel {rel_g2:.2e}; self-loop rel {rel_loop:.2e}", t0)


def criterion_8() -> CriterionResult:
    """Free-field identities at M = 8 to 1e-8; eigenrelation error monotone in M."""
    t0 = time.time()
    params = CftParams(gamma=1.1)
    rng = np.random.default_rng(5)
    M = 8
    # K0 semigroup via analytic Gaussian convolution (per-mode and zero mode)
    tt, ss = 0.5, 0.5
    worst_semi = 0.0
    for _ in range(5):
        f = BoundaryField.sample(M, rng)
        fp = BoundaryField.sample(M, rng)
        lhs = _k0_convolution(tt, ss, f, fp, params)
        rhs = heat_kernel_K0(tt + ss, f, fp, params)
        worst_semi = max(worst_semi, abs(lhs - rhs) / abs(rhs))
    # A0 / K0 / Z_Aq relation at |q| = 0.3
    q = 0.3
    tq = -math.log(q)
    worst_rel = 0.0
    for _ in range(20):
        f = BoundaryField.sample(M, rng)
        fp = BoundaryField.sample(M, rng)
        a0 = free_annulus_amplitude(q, f, fp)
        prod = np.prod(1.0 - q ** (2 * np.arange(1, 400)))
        rhs = math.sqrt(2.0 * math.pi * tq) * q ** (-params.Q**2 / 2.0) * heat_kernel_K0(
            tq, f, fp, params
        ) * float(prod)
        worst_rel = max(worst_rel, abs(a0 - rhs) / abs(a0))
    # three-way relation: Z_{A_q} * A0 / K0 = sqrt(2) pi |q|^{-c_L/12}
    f = BoundaryField.sample(M, rng)
    fp = BoundaryField.sample(M, rng)
    lhs3 = annulus_partition(q) * free_annulus_amplitude(q, f, fp) / heat_kernel_K0(tq, f, fp, params)
    rhs3 = math.sqrt(2.0) * math.pi * q ** (-params.c_L / 12.0)
    rel3 = abs(lhs3 - rhs3) / abs(rhs3)
    # eigenrelation error decays monotonically in M
    errs = [_eigenrelation_error(m, q, 0.4, params) for m in (2, 4, 8)]
    monotone = errs[0] > errs[1] > errs[2]
    ok = worst_semi < 1e-8 and worst_rel < 1e-8 and rel3 < 1e-8 and monotone
    return _result(
        "8",
        ok,
        f"semigroup {worst_semi:.1e}; A0/K0 {worst_rel:.1e}; Z*A0/K0 {rel3:.1e}; eigen errs "
        f"{errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}",
        t0,
    )


def _k0_convolution(t: float, s: float, f: BoundaryField, fp: BoundaryField, params) -> float:
    """int K0(t, f, g) K0(s, g, fp) dmu0(g) in closed Gaussian form."""
    M = f.M
    at, as_ = np.exp(-np.arange(1, M + 1) * t), np.exp(-np.arange(1, M + 1) * s)
    pref = math.exp(-params.Q**2 * (t + s) / 2.0) / (2.0 * math.pi * math.sqrt(t * s))
    pref /= float(np.prod((1.0 - at**2) * (1.0 - as_**2)))
    # zero mode: int exp(-(c-g)^2/2t - (g-c')^2/2s) dg
    a = 0.5 / t + 0.5 / s
    b = f.c / t + fp.c / s
    c0 = -f.c**2 / (2.0 * t) - fp.c**2 / (2.0 * s)
    total = math.sqrt(math.pi / a) * math.exp(b * b / (4.0 * a) + c0)
    # mode pairs: kernels exp(-(x - a x'')^2/(2(1-a^2)) + x^2/2 - ...) vs N(0,1) measure
    for arrs in ((f.xs, fp.xs), (f.ys, fp.ys)):
        x, xp = arrs
        for n in range(1, M + 1):
            an, asn = at[n - 1], as_[n - 1]
            # integrand in g: K0-mode(t; x, g) K0-mode(s; g, x') e^{-g^2/2}/sqrt(2pi);
            # the +g^2/2 from the s-kernel cancels the measure weight
            A = an**2 / (2 * (1 - an**2)) + 1.0 / (2 * (1 - asn**2))
            B = x[n - 1] * an / (1 - an**2) + xp[n - 1] * asn / (1 - asn**2)
            C = (
                -x[n - 1] ** 2 / (2 * (1 - an**2))
                + x[n - 1] ** 2 / 2.0
                - xp[n - 1] ** 2 * asn**2 / (2 * (1 - asn**2))
            )
            total *= math.sqrt(math.pi / A) * math.exp(B * B / (4.0 * A) + C) / math.sqrt(2.0 * math.pi)
    return pref * total


def _eigenrelation_error(M: int, q: float, alpha: float, params) -> float:
    """Relative error of the truncated-amplitude eigenrelation
    int A0(q, f, .) e^{(alpha-Q) c'} dmu0 vs the exact-product target."""
    t = -math.log(q)
    n = np.arange(1, M + 1)
    a = np.exp(-n * t)
    rng = np.random.default_rng(11)
    f = BoundaryField.sample(M, rng)
    # closed-form LHS: sqrt(2 pi t) e^{(alpha-Q) c + (alpha-Q)^2 t/2} prod (1 - a^2)
    lhs = (
        math.sqrt(2.0 * math.pi * t)
        * math.exp((alpha - params.Q) * f.c + (alpha - params.Q) ** 2 * t / 2.0)
        * float(np.prod(1.0 - a**2))
    )
    prod_full = float(np.prod(1.0 - q ** (2 * np.arange(1, 600))))
    da = complex(conformal_weight(alpha, CftParams(gamma=params.gamma))).real
    rhs = (
        math.sqrt(2.0 * math.pi * t)
        * q ** (-params.Q**2 / 2.0)
        * prod_full
        * math.exp(-2.0 * da * t)
        * math.exp((alpha - params.Q) * f.c)
    )
    return abs(lhs - rhs) / abs(rhs)


def criterion_9(n_samples: int = 200_000) -> CriterionResult:
    """Headline MC cross-validation at tau = i, gamma = sqrt(2), mu = 1.

    Compares the GMC estimate on a 128^2 grid against the bootstrap value
    within max(3 stderr, 10%), with a 64^2 consistency run.  As documented in
    the README normalization notes, the lattice path integral exceeds the
    bootstrap normalization used here by a constant factor numerically equal
    to e, so this comparison reports the measured ratio and fails; the 64^2
    drift is the monitored lattice truncation bias.
    """
    t0 = time.time()
    params = CftParams(gamma=math.sqrt(2.0), mu=1.0)
    quad = Quadrature(p_max=6.0, panel_width=0.5, nodes_per_panel=8)
    alphas = (0.8, 1.2)
    from .gmc import mc_torus_one_point_many

    g128 = TorusGeometry(tau=1j, n_grid=128)
    g64 = TorusGeometry(tau=1j, n_grid=64)
    ests = mc_torus_one_point_many(
        alphas, g128, params, McConfig(n_samples=n_samples, n_batches=40, seed=9)
    )
    ests64 = mc_torus_one_point_many(
        alphas, g64, params, McConfig(n_samples=max(n_samples // 2, 40), n_batches=40, seed=10)
    )
    lines = []
    ok = True
    for alpha, est, est64 in zip(alphas, ests, ests64):
        boot = torus_one_point(alpha, 1j, params, quad, N=4).value
        tol = max(3.0 * est.stderr, 0.10 * abs(boot))
        agree = abs(est.mean - boot) <= tol
        grids = abs(est.mean - est64.mean) <= 3.0 * math.hypot(est.stderr, est64.stderr)
        ok &= agree and grids
        lines.append(
            f"alpha={alpha}: boot {boot:.5g}, mc128 {est.mean:.5g}+-{est.stderr:.2g}, "
            f"mc64 {est64.mean:.5g}+-{est64.stderr:.2g}, ratio {est.mean/boot:.4f}, "
            f"agree={agree}, grids-consistent={grids}"
        )
    dt = time.time() - t0
    ok &= dt <= 600.0
    return _result("9", ok, "; ".join(lines) + f"; runtime {dt:.0f}s", t0)


def criterion_10() -> CriterionResult:
    """Quadrature/truncation robustness and Cauchy-decreasing block sums."""
    t0 = time.time()
    params = CftParams(gamma=math.sqrt(2.0), mu=1.0)
    base = torus_one_point(
        1.2, 1j, params, Quadrature(p_max=6.0, panel_width=0.5, nodes_per_panel=8), N=4
    ).value
    doubled = torus_one_point(
        1.2, 1j, params, Quadrature(p_max=12.0, panel_width=0.5, nodes_per_panel=16), N=8
    ).value
    rel = abs(doubled - base) / abs(base)
    rng = np.random.default_rng(31)
    cauchy = True
    worst_pair = ""
    for _ in range(5):
        p = float(rng.uniform(0.3, 2.5))
        series = torus_one_point_block(1.1, p, 0.5, params, N=8)
        incs = [abs(series.coeffs[(n,)] * 0.5**n) for n in range(9)]
        decreasing = all(incs[n + 1] < incs[n] for n in range(1, 8))
        if not decreasing:
            worst_pair = f" (violation at p={p:.3f}: {incs})"
        cauchy &= decreasing
    ok = rel < 0.01 and cauchy
    return _result("10", ok, f"doubling change {rel:.2e}; Cauchy-decreasing={cauchy}{worst_pair}", t0)


CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
    "10": criterion_10,
}


def run_battery(only=None, mc_samples: int = 200_000) -> list[CriterionResult]:
    results = []
    for cid, fn in CRITERIA.items():
        if only and cid not in only:
            continue
        res = fn(mc_samples) if cid == "9" else fn()
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.cid}: {res.detail} ({res.seconds:.1f}s)", flush=True)
        results.append(res)
    return results
