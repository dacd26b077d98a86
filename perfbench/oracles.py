"""Reference values computed from the benchmark's own description of each
input (arrays of endpoints and values), with numpy and closed forms,
independently of llab's code paths.  Tolerances are relative.
"""

from __future__ import annotations

import functools
import math

import numpy as np

REL = 1e-9


def close(got: float, want: float, rel: float = REL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# -- step functions given as arrays lo, hi, val (disjoint pieces) -------------


def prefix_integral(lo, hi, val, ys) -> np.ndarray:
    """Integral of the step function over (-inf, y) for each y."""
    ys = np.asarray(ys, dtype=float)
    return (np.clip(ys[:, None] - lo[None, :], 0.0, (hi - lo)[None, :]) * val[None, :]).sum(1)


def maximal(lo, hi, val, x: float) -> float:
    """Max over endpoint pairs a <= x <= b of the average over (a, b)."""
    cands = np.unique(np.concatenate([lo, hi, [x]]))
    F = prefix_integral(lo, hi, val, cands)
    left, right = cands <= x, cands >= x
    a, Fa = cands[left], F[left]
    b, Fb = cands[right], F[right]
    width = b[None, :] - a[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(width > 0.0, (Fb[None, :] - Fa[:, None]) / width, 0.0)
    return float(max(avg.max(), 0.0))


def _log_terms(x: float, a, b) -> np.ndarray:
    return np.log(np.abs(x - a)) - np.log(np.abs(x - b))


def hilbert(lo, hi, val, x: float) -> float:
    """(1/pi) sum v (log|x - lo| - log|x - hi|), the principal value."""
    return float((val * _log_terms(x, lo, hi)).sum() / math.pi)


def truncated(lo, hi, val, x: float, eps) -> np.ndarray:
    """Integral of f(y)/(x - y) over |x - y| > eps, for each eps (no 1/pi)."""
    eps = np.asarray(eps, dtype=float)[:, None]
    cut_lo, cut_hi = x - eps, x + eps
    left = np.where(lo < cut_lo, _log_terms(x, lo, np.minimum(hi, cut_lo)), 0.0)
    right = np.where(hi > cut_hi, _log_terms(x, np.maximum(lo, cut_hi), hi), 0.0)
    return ((left + right) * val).sum(1)


def hilbert_maximal(lo, hi, val, x: float) -> float:
    """max(pi |Hf(x)|, |T(eps)| at every endpoint distance) / pi.

    T(eps) has derivative (f(x + eps) - f(x - eps)) / eps, of constant sign
    between consecutive endpoint distances, so its supremum sits at one of
    them or at eps -> 0+.
    """
    dists = np.unique(np.abs(x - np.concatenate([lo, hi])))
    best = max(abs(hilbert(lo, hi, val, x)) * math.pi, float(np.abs(truncated(lo, hi, val, x, dists)).max()))
    return best / math.pi


def abs_mass(lo, hi) -> np.ndarray:
    """Integral of |x| over (lo, hi)."""
    return (hi * np.abs(hi) - lo * np.abs(lo)) / 2.0


def _abs_ratio(t: float, x):
    """u((x+1-t, x+1)) / u((x, x+1)) for u = |x|: u(I)/u(S) with S = (x, x+1)
    when t > 1, u(S)/u(I) with I = (x, x+1) when t < 1."""
    return abs_mass(x + 1.0 - t, x + 1.0) / abs_mass(x, x + 1.0)


@functools.lru_cache(maxsize=None)
def abs_sup(t: float, upper: bool) -> float:
    """Supremum over single pairs of u(I)/u(S) (upper, |I| = t|S|) or
    u(S)/u(I) (lower, |S| = t|I|) for u = |x| on the line.

    The ratio is scale invariant, and for a fixed inner interval the outer
    one's mass is convex in its position, so the optimum puts the extra
    length on one side; by the symmetry x -> -x one side suffices.  The
    remaining position is found on a dense grid, then by golden section.
    """
    span = t + 2.0 if upper else 3.0
    xs = np.linspace(-span, span, 200001)
    r = _abs_ratio(t, xs)
    i = int(np.argmax(r))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        if _abs_ratio(t, c) > _abs_ratio(t, d):
            hi = d
        else:
            lo = c
    return float(max(r[i], _abs_ratio(t, 0.5 * (lo + hi))))


def power_primitive(t, a: float):
    """W(t) for w = t^a."""
    return np.asarray(t, dtype=float) ** (a + 1.0) / (a + 1.0)


def lorentz_pair(lo, hi, val, a: float, p: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(breakpoints, values, strong norm, weak norm) of f for u = |x|, w = t^a."""
    order = np.argsort(-val)
    t = np.concatenate([[0.0], np.cumsum(abs_mass(lo, hi)[order])])
    v = val[order]
    W = power_primitive(t, a)
    strong = float((v**p * np.diff(W)).sum() ** (1.0 / p))
    weak = float((v * W[1:] ** (1.0 / p)).max())
    return t, v, strong, weak


# -- interval sets given as arrays lo, hi --------------------------------------


def overlap(slo, shi, a: float, b: float) -> float:
    """|S ∩ (a, b)|."""
    return float(np.clip(np.minimum(shi, b) - np.maximum(slo, a), 0.0, None).sum())


def extremal_norm_p(s_measure: float, s: float, a: float, p: float) -> float:
    """p-th power of the Λ^p_u(w) norm of the extremal function for u = 1,
    w = t^a: |{F >= lam}| = |S|/lam on [1/s, 1] and |I| = s |S| below 1/s."""
    flat = s**-p * (s * s_measure) ** (a + 1.0) / (a + 1.0)
    e = p - 2.0 - a  # exponent of lam in p lam^{p-1} W(|S|/lam), up to constants
    if abs(e + 1.0) < 1e-12:
        integral = math.log(s)
    else:
        integral = (1.0 - s ** -(e + 1.0)) / (e + 1.0)
    return flat + p * s_measure ** (a + 1.0) / (a + 1.0) * integral
