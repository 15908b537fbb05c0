"""Reference values and exact moments used by the output checks.

The moments are computed from the fBm covariance with plain numpy, never
through fbmvar, so a defect in the package cannot move its own yardstick.
The recorded values were produced by fbmvar 0.1.0 at commit 1f2268c;
``python3 perfbench/reference.py`` recomputes every one of them (about half
a minute) and prints old and new side by side.
"""

from __future__ import annotations

import math

import numpy as np

# `fbmvar constants --H h --q q` payloads (seed echo removed), recorded at the
# parent commit.  Floats must match to 1e-9 relative, everything else exactly.
CONSTANTS: dict[tuple[float, int], dict] = {
    (0.2, 2): {"regime": "SMALL_H", "renorm_exponent": "2^(n(qH-1))", "conjectural": False,
               "sigma": 0.7864791264143518, "sigma_tilde": 1.5729582528287036,
               "c_qH": None, "truncation_radius": 1024, "tail_bound": 3.932395684596333e-14},
    (0.6, 2): {"regime": "CLT", "renorm_exponent": "2^(-n/2)", "conjectural": False,
               "sigma": 0.7355714855412567, "sigma_tilde": 1.4711429710825135,
               "c_qH": None, "truncation_radius": 1024, "tail_bound": 3.6812057757249424e-14},
    (0.75, 2): {"regime": "CRITICAL_HIGH", "renorm_exponent": "n^(-1/2) 2^(-n/2)",
                "conjectural": False, "sigma": None, "sigma_tilde": None, "c_qH": None,
                "truncation_radius": None, "tail_bound": None},
    (0.9, 2): {"regime": "NONCENTRAL", "renorm_exponent": "2^(n(q(1-H)-1))",
               "conjectural": False, "sigma": None, "sigma_tilde": None, "c_qH": 0.27,
               "truncation_radius": None, "tail_bound": None},
    # sigma_tilde(0.3, 3) runs its chaos-1 series out to radius 2^22 and
    # returns converged=False: a known defect, kept so it stays visible.
    (0.3, 3): {"regime": "CLT", "renorm_exponent": "2^(-n/2)", "conjectural": False,
               "sigma": 0.40234951307190064, "sigma_tilde": 2.414097078431407,
               "c_qH": None, "truncation_radius": 1024, "tail_bound": 2.1305879228681607e-14},
}

# sigma_clt(0.6, 2), which every clt report carries as summary.sigma2.
CLT_SIGMA2 = 0.5410654103413712
CLT_TRUNCATION_RADIUS = 1024

# mc-noncentral, level 6 (fine level 12), H = 0.9, q = 2, weight cos:1.0:
# exact E[v^2] of the renormalised weighted variation (cos_weighted_h2_msq)
# and the per-replicate standard deviation of v^2, estimated from 16384
# replicates of the package's sampler (seed 1000, streams 0..16383).
NONCENTRAL_MSQ6 = 0.19048148371744195
NONCENTRAL_MSQ6_SD = 0.21737163364366702


def rho(lags, hurst: float) -> np.ndarray:
    """rho_H(r) = |r+1|^2H + |r-1|^2H - 2|r|^2H."""
    r = np.abs(np.asarray(lags, dtype=float))
    a = 2.0 * hurst
    return (r + 1.0) ** a + np.abs(r - 1.0) ** a - 2.0 * r**a


def _corr_power_sum(hurst: float, level: int, p: int) -> float:
    """sum over k, l = 1..2^n of (rho_H(k - l) / 2)^p."""
    n = 2**level
    j = np.arange(1, n)
    return n + 2.0 * math.fsum((n - j) * (0.5 * rho(j, hurst)) ** p)


def chaos2_sd(hurst: float, level: int) -> float:
    """Standard deviation of S = sum_k (X_k^2 - 1), X_k = 2^(nH) dB_k."""
    return math.sqrt(2.0 * _corr_power_sum(hurst, level, 2))


def h2_variance(hurst: float, level: int) -> float:
    """Exact E[(2^(-n/2) V_n^(2)(1))^2], V_n^(2)(1) = sum_k H_2(X_k)."""
    return _corr_power_sum(hurst, level, 2) / 2.0 / 2**level


def cos_weighted_h2_msq(hurst: float, fine_level: int, freq: float = 1.0) -> float:
    """Exact E[v^2], v = 2^(m(2(1-H)-1)) sum_k cos(a B_(k-1)h) H_2(X_k), h = 2^-m.

    For centred jointly Gaussian (Y, X1, X2) with Var Y = s2, Cov(Y, Xi) = ai,
    Var Xi = 1 and Cov(X1, X2) = r, shifting X by i*a under exp(iY) gives
    E[cos(Y) He_2(X1) He_2(X2)] = exp(-s2/2) (2 r^2 - 4 a1 a2 r + a1^2 a2^2),
    and cos(x) cos(y) = (cos(x + y) + cos(x - y)) / 2.  O(4^m): m = 12 takes
    a few seconds.
    """
    n = 2**fine_level
    a2h = 2.0 * hurst
    pw = np.arange(n + 1, dtype=float) ** a2h  # j^2H
    h2h = 2.0 ** (-fine_level * a2h)  # h^2H
    half_c = 0.5 * 2.0 ** (-fine_level * hurst)  # 2^(mH) h^2H / 2

    def cov_bx(i, l):  # Cov(B_ih, X_l), X_l over [(l-1)h, lh]
        return half_c * (pw[l] - pw[l - 1] - pw[np.abs(i - l)] + pw[np.abs(i - l + 1)])

    ks = np.arange(1, n + 1)
    diag = cov_bx(ks - 1, ks)  # Cov(B_(k-1)h, X_k)
    var_b = h2h * pw[ks - 1]
    total = 0.0
    for lo in range(0, n, 256):
        k = ks[lo : lo + 256, None]
        l = ks[None, :]
        c_kl = 0.5 * h2h * (pw[k - 1] + pw[l - 1] - pw[np.abs(k - l)])
        a_kl = cov_bx(k - 1, l)  # Cov(B_(k-1)h, X_l)
        b_kl = cov_bx(l - 1, k)  # Cov(B_(l-1)h, X_k)
        r = 0.5 * rho(k - l, hurst)
        ck, cl = diag[k - 1], diag[l - 1]
        for sign in (1.0, -1.0):
            s2 = freq**2 * (var_b[k - 1] + var_b[l - 1] + 2.0 * sign * c_kl)
            a1 = freq * (ck + sign * b_kl)
            a2 = freq * (a_kl + sign * cl)
            term = np.exp(-0.5 * s2) * (2.0 * r * r - 4.0 * a1 * a2 * r + (a1 * a2) ** 2)
            total += math.fsum(term.ravel())
    scale = 2.0 ** (fine_level * (2.0 * (1.0 - hurst) - 1.0))
    return scale**2 * total / 8.0


def main() -> None:
    """Recompute every recorded value from the package in ``src``."""
    import contextlib
    import io
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fbmvar import cli, fbm
    from fbmvar.constants import sigma_clt
    from fbmvar.variations import hermite_variation_rows
    from fbmvar.weights import Cosine

    for (hurst, q), want in CONSTANTS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["constants", "--H", str(hurst), "--q", str(q)])
        got = {k: v for k, v in json.loads(buf.getvalue()).items() if k in want}
        print((hurst, q), "same" if got == want else f"recorded {want}\n  now {got}")

    s = sigma_clt(0.6, 2)
    print("CLT_SIGMA2", CLT_SIGMA2, s.value**2, "radius", s.radius)
    print("NONCENTRAL_MSQ6", NONCENTRAL_MSQ6, cos_weighted_h2_msq(0.9, 12))
    hurst, m, rows = 0.9, 12, []
    for start in range(0, 16384, 512):
        inc = fbm.sample_increments_circulant(hurst, m, 1000, start, 512)
        vals = np.zeros((512, inc.shape[1] + 1))
        np.cumsum(inc, axis=1, out=vals[:, 1:])
        v = 2.0 ** (m * (2.0 * (1.0 - hurst) - 1.0)) * hermite_variation_rows(
            vals, hurst, m, Cosine(1.0), 2)
        rows.append(v * v)
    y = np.concatenate(rows)
    print("NONCENTRAL_MSQ6_SD", NONCENTRAL_MSQ6_SD, float(y.std(ddof=1)),
          "Monte Carlo mean", float(y.mean()), "+-", float(y.std(ddof=1) / math.sqrt(len(y))))


if __name__ == "__main__":
    main()
