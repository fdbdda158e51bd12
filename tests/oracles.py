"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (power series,
stdlib special functions, dense brute-force quadrature, explicit 8x8 linear
algebra) so that agreement with the package is evidence, not circularity.
Slow and simple beats fast and shared.
"""

from __future__ import annotations

import decimal
import itertools
import math
from unittest import mock

import numpy as np
from scipy import special

from cvsat import postselect
from cvsat.errors import NumericalError
from cvsat.fading import (
    FadingChannel,
    LinkRule,
    deflection_of_eta,
    eta_of_deflection,
    rayleigh_pdf,
    transmittance_nodes,
)
from cvsat.gaussian import Squeezing, TwoModeCM, add_excess_noise, apply_loss, tmsv_cm
from cvsat.numerics import QuadratureSpec
from cvsat.postselect import _tap_moments
from cvsat.schemes import GeneralBipartiteInput


def bessel_i0_series(x: float) -> float:
    """I0 by its power series, summed with compensated addition."""
    q = 0.25 * x * x
    term = 1.0
    terms = [term]
    for k in range(1, 400):
        term *= q / (k * k)
        terms.append(term)
        if term < 1e-18 * sum(terms[-3:]):
            break
    return math.fsum(terms)


def bessel_i1_series(x: float) -> float:
    q = 0.25 * x * x
    term = 0.5 * x
    terms = [term]
    for k in range(1, 400):
        term *= q / (k * (k + 1))
        terms.append(term)
        if term < 1e-18 * sum(terms[-3:]):
            break
    return math.fsum(terms)


def symplectic_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n matrix, ascending, one value per mode.

    The moduli of the eigenvalues of i*Omega*M, which come in +/- pairs for
    symmetric positive definite M.
    """
    m = np.asarray(m, dtype=float)
    omega = np.kron(np.eye(m.shape[0] // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.sort(np.abs(np.linalg.eigvals(1j * omega @ m)))[::2]


def cosh_swapped(e, ep, v: float):
    """Per-realization cosh(2 r'') of the swapped state, in the pole-separated form.

    With s = e + ep, cosh(2 r'') = -1 + (v + 1) e ep / (s - 1)
    - (v^2 - 1) e ep / (s (v - 1) + 2); singular on s = 1.
    """
    s = e + ep
    return -1.0 + (v + 1.0) * e * ep / (s - 1.0) - (v * v - 1.0) * e * ep / (s * (v - 1.0) + 2.0)


def pt_spectrum_bruteforce(cm: TwoModeCM) -> tuple[float, float]:
    """Symplectic spectrum of the partial transpose by direct diagonalization.

    Partial transposition of the second mode flips the sign of p2; the
    symplectic eigenvalues are the magnitudes of eig(i Omega M_pt).
    """
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    m_pt = p @ cm.m @ p
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    vals = np.sort(np.abs(np.linalg.eigvals(1j * omega @ m_pt)))
    return float(vals[0]), float(vals[2])


def log_negativity_decimal(cm: TwoModeCM) -> float:
    """E_LN of the stored float CM, evaluated in 60-digit decimal arithmetic.

    Each float converts to Decimal exactly, so this is E_LN of the very matrix
    the package holds.  With the local invariants of the partial transpose,
    2t = det A + det B - 2 det C and nu_minus^2 = t - sqrt(t^2 - det M)
    (Serafini, Illuminati & De Siena, J. Phys. B 37, L21, 2004); det M is the
    Leibniz sum over all 24 permutations.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = [[decimal.Decimal(float(x)) for x in row] for row in cm.m]

        def det2(i, j):
            return m[i][j] * m[i + 1][j + 1] - m[i][j + 1] * m[i + 1][j]

        det_m = decimal.Decimal(0)
        for perm in itertools.permutations(range(4)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = math.prod((m[i][j] for i, j in enumerate(perm)), start=decimal.Decimal(1))
            det_m += -term if inversions % 2 else term
        t = (det2(0, 0) + det2(2, 2) - 2 * det2(0, 2)) / 2
        nu_sq = t - (t * t - det_m).sqrt()
        return max(0.0, float(-nu_sq.ln() / (2 * decimal.Decimal(2).ln())))


def pair_matrix(inp: GeneralBipartiteInput) -> np.ndarray:
    """8x8 CM of the two input pairs, modes ordered (q1,p1,...,q4,p4)."""
    v = np.zeros((8, 8))
    v[0:2, 0:2] = inp.a * np.eye(2)
    v[2:4, 2:4] = inp.b * np.eye(2)
    v[0:2, 2:4] = v[2:4, 0:2] = np.diag([inp.c_plus, inp.c_minus])
    v[4:6, 4:6] = inp.d * np.eye(2)
    v[6:8, 6:8] = inp.e * np.eye(2)
    v[4:6, 6:8] = v[6:8, 4:6] = np.diag([inp.f_plus, inp.f_minus])
    return v


def swap_conditional_oracle(inp: GeneralBipartiteInput) -> np.ndarray:
    """Bell measurement of modes 2 and 3 by explicit Gaussian conditioning.

    The balanced beam splitter sends the pair to u = (x2 - x3)/sqrt(2) and
    w = (x2 + x3)/sqrt(2); homodyne reads q of the u port and p of the w port.
    """
    v = pair_matrix(inp)
    x_idx = [0, 1, 6, 7]
    t = np.zeros((2, 8))
    t[0, 2], t[0, 4] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    t[1, 3], t[1, 5] = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    sxx = v[np.ix_(x_idx, x_idx)]
    sxy = v[x_idx, :] @ t.T
    syy = t @ v @ t.T
    return sxx - sxy @ np.linalg.solve(syy, sxy.T)


def swap_displaced_oracle(inp: GeneralBipartiteInput, g1: float, g4: float) -> np.ndarray:
    """Outcome-averaged CM of the displaced kept modes, by congruence.

    Stations displace with the raw (unnormalized) measured combinations
    u = q2 - q3 and w = p2 + p3:
        q1 -> q1 - g1 u,  p1 -> p1 + g1 w,  q4 -> q4 + g4 u,  p4 -> p4 + g4 w.
    Averaged over outcomes the displaced state is Gaussian with CM M V M^T.
    """
    v = pair_matrix(inp)
    sel = np.zeros((4, 8))
    sel[0, 0] = sel[1, 1] = 1.0
    sel[2, 6] = sel[3, 7] = 1.0
    meas = np.zeros((2, 8))
    meas[0, 2], meas[0, 4] = 1.0, -1.0
    meas[1, 3], meas[1, 5] = 1.0, 1.0
    gains = np.array([[-g1, 0.0], [0.0, g1], [g4, 0.0], [0.0, g4]])
    m = sel + gains @ meas
    return m @ v @ m.T


def random_standard_input(rng: np.random.Generator) -> GeneralBipartiteInput:
    """Random physical pair of phase-symmetric inputs (c+ = -c-, f+ = -f-)."""
    def pair():
        sq = Squeezing(rng.uniform(0.05, 2.0))
        cm = add_excess_noise(
            apply_loss(tmsv_cm(sq), 1.0, rng.uniform(0.0, 1.0)),
            rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3),
        )
        return cm.m[0, 0], cm.m[2, 2], cm.m[0, 2]

    a, b, c = pair()
    e, d, f = pair()
    return GeneralBipartiteInput(a=a, b=b, c_plus=c, c_minus=-c,
                                 d=d, e=e, f_plus=f, f_minus=-f)


def random_general_input(rng: np.random.Generator) -> GeneralBipartiteInput:
    """Random physical input pair with independent c+ and c- (rejection sampled)."""
    def pair():
        while True:
            a = 1.0 + rng.uniform(0.0, 4.0)
            b = 1.0 + rng.uniform(0.0, 4.0)
            bound = math.sqrt((a - 1.0) * (b - 1.0)) + math.sqrt((a + 1.0) * (b + 1.0))
            cp, cm_ = rng.uniform(-bound, bound, 2)
            try:
                from cvsat.gaussian import StandardFormCM

                StandardFormCM(a=a, b=b, c_plus=cp, c_minus=cm_).to_cm()
            except Exception:
                continue
            return a, b, cp, cm_

    a, b, cp, cm_ = pair()
    d, e, fp, fm = pair()
    return GeneralBipartiteInput(a=a, b=b, c_plus=cp, c_minus=cm_,
                                 d=d, e=e, f_plus=fp, f_minus=fm)


def fading_cdf(ch: FadingChannel, eta) -> np.ndarray:
    """P(transmittance <= eta), from the Rayleigh deflection law."""
    eta = np.asarray(eta, dtype=float)
    out = np.zeros_like(eta)
    inside = (eta > 0.0) & (eta < ch.eta0)
    d = ch.l_scale * (2.0 * np.log(ch.eta0 / eta[inside])) ** (1.0 / ch.lambda_shape)
    out[inside] = np.exp(-d * d / (2.0 * ch.sigma_b**2))
    out[eta >= ch.eta0] = 1.0
    return out


def dense_channel_average(ch: FadingChannel, f, n: int = 400_000) -> float:
    """Channel average of f(eta) by dense trapezoid in the deflection domain."""
    d = np.linspace(0.0, 14.0 * ch.sigma_b, n)
    eta = ch.eta0 * np.exp(-0.5 * (d / ch.l_scale) ** ch.lambda_shape)
    pdf = (d / ch.sigma_b**2) * np.exp(-0.5 * (d / ch.sigma_b) ** 2)
    return float(np.trapezoid(f(eta) * pdf, d))


def mc_ratio(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Ratio of means and its standard error via the influence function."""
    ratio = num.mean() / den.mean()
    phi = (num - ratio * den) / den.mean()
    return float(ratio), float(phi.std(ddof=1) / math.sqrt(phi.size))


def _gauss1(x, var: float):
    return np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


def _gauss2(x, y, cov: np.ndarray):
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    quad = (cov[1, 1] * x * x - 2.0 * cov[0, 1] * x * y + cov[0, 0] * y * y) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def tap_moments_wigner(v: float, zeta: float, tap_t: float, q_th: float,
                       chi: float = 0.0, nodes: int = 160) -> dict:
    """Selection-weighted q moments by brute-force 3D integration.

    The post-channel q-sector density of (q_A, q_B) times a vacuum tap mode is
    integrated in the rotated frame (q_A, q_B', q_t), where the beam splitter
    gives q_B = sqrt(T) q_B' + sqrt(R) q_t and q_vac = sqrt(R) q_B' - sqrt(T) q_t.
    """
    b_q = 1.0 + zeta * (v - 1.0) + chi
    c_q = math.sqrt(zeta * (v * v - 1.0))
    cov = np.array([[v, c_q], [c_q, b_q]])
    root_t, root_r = math.sqrt(tap_t), math.sqrt(1.0 - tap_t)

    half = 10.0 * math.sqrt(max(v, b_q, 1.0))
    xs, ws = np.polynomial.legendre.leggauss(nodes)

    def stretch(lo, hi):
        return 0.5 * (hi - lo) * xs + 0.5 * (hi + lo), 0.5 * (hi - lo) * ws

    qa, wa = stretch(-half, half)
    qb, wb = stretch(-half, half)
    lo_t = max(q_th, -half)
    if lo_t >= half:
        raise ValueError("threshold beyond integration box")
    qt, wt = stretch(lo_t, half)

    a3 = qa[:, None, None]
    b3 = qb[None, :, None]
    t3 = qt[None, None, :]
    q_b_orig = root_t * b3 + root_r * t3
    q_vac = root_r * b3 - root_t * t3
    dens = _gauss2(a3, q_b_orig, cov) * _gauss1(q_vac, 1.0)
    w3 = wa[:, None, None] * wb[None, :, None] * wt[None, None, :]

    def moment(f):
        return float(np.sum(w3 * f * dens))

    return {
        "p_select": moment(np.ones_like(dens)),
        "q_a": moment(a3 * np.ones_like(dens)),
        "q_b": moment(b3 * np.ones_like(dens)),
        "q_a_sq": moment(a3 * a3 * np.ones_like(dens)),
        "q_b_sq": moment(b3 * b3 * np.ones_like(dens)),
        "q_ab": moment(a3 * b3 * np.ones_like(dens)),
    }


def classical_selection_sums_tensor(ch_up: FadingChannel, ch_down: FadingChannel,
                                    quad: QuadratureSpec, zeta_th: float) -> tuple[float, float, float]:
    """(P_s, sum w zeta, sum w sqrt(zeta)) of classical post-selection as a sum over node pairs.

    The uplink's table ends on zeta_th / eta0', and each of its nodes eta
    pairs with a downlink rule of its own that ends on d_c, the deflection of
    zeta_th / eta, so every node pair lies in the kept region zeta = eta eta'
    > zeta_th.  That rule is the downlink's unit rule (LinkRule.unit) scaled
    onto [0, d_c].  A row whose weights miss the Rayleigh mass below d_c by more
    than 1e-9 is under-resolved and raises NumericalError, as a cut table of
    transmittance_nodes does.
    """
    eta, w = transmittance_nodes(ch_up, quad, zeta_th / ch_down.eta0)
    eta0, sigma = ch_down.eta0, ch_down.sigma_b
    cut = zeta_th / eta if zeta_th > 0.0 else np.zeros_like(eta)
    if ch_down.point_mass:
        kept = w * (eta0 > cut)
        zeta = eta * eta0
        return float(kept.sum()), float(kept @ zeta), float(kept @ np.sqrt(zeta))
    down = LinkRule(ch_down, quad)
    t, wt = down.unit
    d_c = np.full(eta.size, down.edges[-1])
    if zeta_th > 0.0:
        d_c = np.minimum(d_c, deflection_of_eta(ch_down, np.clip(cut, np.finfo(float).tiny, eta0)))
    sums = np.zeros(3)
    # blocks of about 2**20 node pairs
    for rows in np.array_split(np.arange(eta.size), 1 + eta.size * t.size // (1 << 20)):
        d = d_c[rows, None] * t
        w_d = d_c[rows, None] * wt * rayleigh_pdf(d, sigma)
        miss = np.abs(w_d.sum(axis=1) + np.expm1(-0.5 * (d_c[rows] / sigma) ** 2)).max()
        if miss > 1e-9:
            raise NumericalError(f"under-resolved cut downlink rule: weights miss by {miss:.2e}")
        zeta = eta[rows, None] * eta_of_deflection(ch_down, d)
        sums += w[rows] @ np.stack([w_d.sum(axis=1), (w_d * zeta).sum(axis=1),
                                    (w_d * np.sqrt(zeta)).sum(axis=1)], axis=1)
    return tuple(sums.tolist())


def quantum_postselect_tensor(v: float, ch_up: FadingChannel, ch_down: FadingChannel,
                              quad: QuadratureSpec, tap_t: float, q_th: float,
                              chi: float = 0.0) -> tuple[float, np.ndarray]:
    """(P_s, distilled CM) of quantum post-selection from the full node-pair sum.

    _tap_moments (checked against tap_moments_wigner) is evaluated at every
    pair of the two links' transmittance tables, one uplink node at a time,
    and the sums are assembled into the central moments of the kept ensemble.
    The erfc inside is scipy's ufunc rather than the package's elementwise
    math.erfc, which would cost one Python call per node pair.
    """
    eta_u, w_u = LinkRule(ch_up, quad).table
    eta_d, w_d = LinkRule(ch_down, quad).table
    sums = np.zeros(8)
    with mock.patch.object(postselect, "_erfc", special.erfc):
        for eu, wu in zip(eta_u, w_u):
            q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q = _tap_moments(
                v, eu * eta_d, tap_t, q_th, chi)
            vals = (p_sel, q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel * (tap_t * b_q + 1.0 - tap_t),
                    -p_sel * math.sqrt(tap_t) * c_q)
            sums += wu * (np.array(vals) @ w_d)
    p_s, s_a, s_b, s_aa, s_bb, s_ab, s_pb, s_pab = sums
    mean_a, mean_b = s_a / p_s, s_b / p_s
    a_q, b_q, c_q = s_aa / p_s - mean_a**2, s_bb / p_s - mean_b**2, s_ab / p_s - mean_a * mean_b
    return float(p_s), np.array([[a_q, 0, c_q, 0], [0, v, 0, s_pab / p_s],
                                 [c_q, 0, b_q, 0], [0, s_pab / p_s, 0, s_pb / p_s]])


def swap_eta_integrals_tensor(ch_a: FadingChannel, ch_b: FadingChannel, vs,
                              quad: QuadratureSpec) -> tuple[float, list[list[float]]]:
    """The swap transmittivity pass summed over every node pair of the full tables.

    Returns (separable_mass, [[eta_a, eta_b, signed_eta_a, signed_eta_b,
    kernel] per v]) from the closed forms as the reduction first gives them,
    num_a = -(s - 1)(v - 1) / (eta (1 - v) + 2 (eta' - 1)), its mirror num_b,
    and the kernel eta eta' / (s (v - 1) + 2), s = eta + eta', one A-side
    node at a time.  At v = 1 the closed forms vanish wherever they are
    defined, so they are taken as 0 there.

    1 - eta and 1 - eta' enter as c = max(1 - eta, 1e-300), with s - 1 =
    eta - c' in num_a and eta' - c in num_b.  The subtraction is exact where
    eta >= 1/2, so no digit of s - 1 is lost where eta0 lies within 1e-13 of 1
    (beta/W above 3), as it would be from the rounded s.  The floor reads an
    eta that rounds to 1 as 1 - 1e-300, the convention the effective pass
    states for x and y; without it a node with eta' = 1 makes num_a 0/0
    against eta = 0.
    """
    eta_a, w_a = LinkRule(ch_a, quad).table
    eta_b, w_b = LinkRule(ch_b, quad).table
    c_b = np.maximum(1.0 - eta_b, 1e-300)
    separable = 0.0
    sums = np.zeros((len(vs), 5))
    for e, wa in zip(eta_a, w_a):
        s = e + eta_b
        c_a = max(1.0 - e, 1e-300)
        separable += wa * float(w_b @ (s < 1.0))
        for i, v in enumerate(vs):
            if v == 1.0:
                num_a = num_b = np.zeros_like(s)
            else:
                num_a = -(e - c_b) * (v - 1.0) / (e * (1.0 - v) - 2.0 * c_b)
                num_b = -(eta_b - c_a) * (v - 1.0) / (eta_b * (1.0 - v) - 2.0 * c_a)
            kernel = e * eta_b / (s * (v - 1.0) + 2.0)
            sums[i] += wa * np.array([w_b @ f for f in (
                np.maximum(num_a, 0.0), np.maximum(num_b, 0.0), num_a, num_b, kernel)])
    return separable, sums.tolist()


def swap_ensemble_tensor(ch_a: FadingChannel, ch_b: FadingChannel, quad: QuadratureSpec, vs,
                         chi: float = 0.0) -> list[np.ndarray]:
    """Swap ensemble CMs, one per v, from the shared factor summed over every node pair of the full tables.

    G = (v^2 - 1)/(2 + s (v - 1) + 2 chi), s = eta + eta', in the form the
    swap reduction first gives it, enters the entries E[v - eta G],
    E[v - eta' G] and E[sqrt(eta eta') G]; the sums run one A-side node at a
    time over the whole B-side table, for every v at once.
    """
    eta_a, w_a = LinkRule(ch_a, quad).table
    eta_b, w_b = LinkRule(ch_b, quad).table
    v = np.asarray(vs, dtype=float)[:, None]
    sums = np.zeros((v.size, 3))
    for e, wa in zip(eta_a, w_a):
        g = (v * v - 1.0) / (2.0 + (e + eta_b) * (v - 1.0) + 2.0 * chi)
        sums += wa * np.stack([g @ (w_b * e), g @ (w_b * eta_b), g @ (w_b * np.sqrt(e * eta_b))], axis=1)
    mass = w_a.sum() * w_b.sum()
    cms = []
    for v_i, (s_a, s_b, s_c) in zip(vs, sums):
        a, b = v_i * mass - s_a, v_i * mass - s_b
        cms.append(np.array([[a, 0, s_c, 0], [0, a, 0, -s_c], [s_c, 0, b, 0], [0, -s_c, 0, b]]))
    return cms
