"""Closed-form damped moments I_n = int_0^inf s^n exp(-b s - a s^2) ds.

Every library integrand of the form polynomial * exp(-b s - a s^2) is a
finite sum of these moments: the purity, the momentum density and the
damped spectral weight of the cross-section.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np


class QuadratureError(ArithmeticError):
    """Numerical integration failed: the cross-section's reduced integral
    (scattering._reduced_integrals) raises it for the first angle it cannot
    trust. An ArithmeticError, like every numeric failure of the library."""


#: |mu|^2 up to which the upward recurrence from J_0 keeps 1e-13
_UPWARD_MU_SQ = 6.0
#: largest start index of the backward recurrence
_MILLER_CAP = 4000
#: ln 2^53: how far the dominant solution must outgrow J for an error of 1
#: in the backward recurrence's start to fall below double-precision roundoff
_LN_EPS = 53.0 * math.log(2.0)
#: factors of the asymptotic series that _series_factors tabulates per n; the
#: series branch, |mu|^2 >= 170 + 14 n, adds at most 52 terms (_series_terms)
_SERIES_TERMS = 64
#: the array type damped_moments evaluates elementwise; an exact type test
#: keeps the dispatch far below the cost of a scalar call
_ARRAY = np.ndarray
#: sqrt(pi) / 2: J_0 = (sqrt(pi)/2) w(i mu/2)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
#: L = sqrt(N / sqrt(2)) and the N = 40 coefficients of p, highest power
#: first, of Weideman's rational approximation of w; written by
#: tests/make_faddeeva_coeffs.py
_FADDEEVA_L = 5.3182958969449885
_FADDEEVA_COEFFS = (
    -1.7356980998791865e-15,
    1.201674910759281e-15,
    1.1519170220749485e-14,
    -5.231716366324404e-15,
    -7.071088022159408e-14,
    1.3778224047664046e-14,
    4.5341448909434655e-13,
    1.203330952919568e-13,
    -2.90771851041427e-12,
    -2.7277735625830245e-12,
    1.771418567386718e-11,
    3.4727420938907015e-11,
    -9.055138860958323e-11,
    -3.5632350403602684e-10,
    2.1085990731251058e-10,
    3.017780425551564e-09,
    3.249746582945079e-09,
    -1.8315616834296834e-08,
    -6.351773483015411e-08,
    1.419864237295343e-08,
    5.912136953029057e-07,
    1.4835661133172014e-06,
    -1.066013898416273e-06,
    -1.8007447144723407e-05,
    -5.5913092642348794e-05,
    -3.939363145483805e-05,
    0.000439807015986967,
    0.002705405633073729,
    0.010048186242783535,
    0.02920291647124188,
    0.07182361779074328,
    0.15504263802479504,
    0.2998943799615006,
    0.5266528988277086,
    0.8472174576593815,
    1.2563815675765133,
    1.7253830848179779,
    2.201513794878312,
    2.6160541527618597,
    2.899624509389705,
)
#: largest y for which w(iy) is exp(y^2) erfc(y): erfc(y) is a normal
#: double up to y = 26.5, and exp(y^2) finite up to 26.6
_ERFCX_MAX = 26.0


def _faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, z a Python complex or a
    complex numpy array, by Weideman's rational approximation
    (SIAM J. Numer. Anal. 31, 1497 (1994)) with N = 40:

        w(z) = 2 p(Z) / (L - iz)^2 + (1/sqrt(pi)) / (L - iz),
        Z = (L + iz) / (L - iz),

    p of degree 39, by Horner's rule. |Z| <= 1 on the closed upper
    half-plane. Within 2e-15 relative of mpmath for |z| <= 20, the real
    axis included (tests/test_faddeeva.py); 1.3e-15 measured out to
    |z| = 200.

    The arithmetic runs on real and imaginary parts, so a scalar and an
    array element round alike: numpy's complex product may fuse a multiply
    and an add where Python's does not, and past the Miller cap the moment
    recurrence amplifies a last-bit difference in w to 3e-11."""
    x, y = z.real, z.imag
    # 1 / (L - iz) = (L + y + ix) / ((L + y)^2 + x^2)
    u = _FADDEEVA_L + y
    scale = 1.0 / (u * u + x * x)
    e_re, e_im = u * scale, x * scale
    # Z = (L - y + ix) / (L - iz)
    v = _FADDEEVA_L - y
    z_re, z_im = v * e_re - x * e_im, v * e_im + x * e_re
    p_re, p_im = _FADDEEVA_COEFFS[0], 0.0
    for c in _FADDEEVA_COEFFS[1:]:
        p_re, p_im = p_re * z_re - p_im * z_im + c, p_re * z_im + p_im * z_re
    # w = (2 p / (L - iz) + 1/sqrt(pi)) / (L - iz)
    t_re = 2.0 * (p_re * e_re - p_im * e_im) + _INV_SQRT_PI
    t_im = 2.0 * (p_re * e_im + p_im * e_re)
    return (t_re * e_re - t_im * e_im) + 1j * (t_re * e_im + t_im * e_re)


def _erfcx(y: float) -> float:
    """w(iy) = exp(y^2) erfc(y) for 0 <= y <= _ERFCX_MAX. y^2 is split into
    hi^2 + (y - hi)(y + hi) with hi on 26 bits, so hi^2 is exact: exp(y * y)
    would carry the rounding of y^2 into the result, up to 3e-14 relative
    at y = 16. Within 1e-15 relative of mpmath on [0, 20]."""
    hi = math.floor(y * 1048576.0) / 1048576.0
    return math.exp(hi * hi) * math.exp((y - hi) * (y + hi)) * math.erfc(y)


@functools.lru_cache(maxsize=32)
def _series_factors(n: int) -> tuple:
    """(n+2k-1)(n+2k)/k for k = 1.._SERIES_TERMS: the ratio of the k-th term
    of _asymptotic_moments's series for I_n to the previous one, over -a/b^2."""
    return tuple((n + 2 * k - 1) * (n + 2 * k) / k for k in range(1, _SERIES_TERMS + 1))


def _asymptotic_moments(b: complex, a: float, top: int) -> list:
    """I_(top-1) and I_top by sum_k (-a)^k (n+2k)! / (k! b^(n+2k+1)), each
    truncated at its smallest term."""
    inv_b = 1.0 / b
    ratio = -a * inv_b * inv_b
    moments = []
    for n in (top - 1, top):
        term = math.factorial(n) * inv_b ** (n + 1)
        total = term
        size = abs(term)
        # the sum stays within 25% of its first term where this series is used
        limit = 2.0**-57 * size
        for factor in _series_factors(n):
            if not size > limit:
                break
            term *= ratio * factor
            next_size = abs(term)
            if next_size >= size:
                break
            total += term
            size = next_size
        moments.append(total)
    return moments


def _series_terms(n: int, mu_sq: float) -> int:
    """How many terms _asymptotic_moments adds for I_n at |mu|^2 = mu_sq:
    up to the first below 2^-57 of the leading one, or up to the smallest."""
    size, k = 1.0, 0
    while size > 2.0**-57:
        ratio = (n + 2 * k + 1) * (n + 2 * k + 2) / ((k + 1) * mu_sq)
        if ratio >= 1.0:
            break
        size *= ratio
        k += 1
    return k


def _asymptotic_pairs(b: np.ndarray, a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """_asymptotic_moments(b, a, n) elementwise, for m = n-1 and n:
    I_m = m!/b^(m+1) times the polynomial sum_k (m+2k)!/(m! k!) y^k in
    y = -a/b^2, by Horner's rule. The elements are banded by
    |mu|^2 = 1/|y| within factors of 2, the last band open above 2^16, and
    each band takes the terms its smallest |mu|^2 needs for I_n; the terms
    past an element's own stop are smaller still."""
    inv_b = 1.0 / b
    y = -a * inv_b * inv_b
    with np.errstate(divide="ignore", over="ignore"):
        mu_sq = 1.0 / np.abs(y)
    band = np.minimum(np.floor(np.log2(mu_sq)), 16.0)
    sums = np.empty((2,) + y.shape, dtype=complex)
    for key in np.unique(band):
        members = np.flatnonzero(band == key)
        terms = _series_terms(n, float(mu_sq[members].min()))
        for row, m in enumerate((n - 1, n)):
            coeffs = [1.0]
            for k in range(1, terms + 1):
                coeffs.append(coeffs[-1] * (m + 2 * k - 1) * (m + 2 * k) / k)
            total = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                total = total * y[members] + c
            sums[row, members] = total
    low = math.factorial(n - 1) * inv_b**n
    return low * sums[0], n * low * inv_b * sums[1]


def _dominance(mu, n: float):
    """ln|L_n / J_n| up to a constant, L a dominant solution of the moment
    recurrence: the Liouville-Green sum of ln|(w_k + mu)/(w_k - mu)|,
    w_k = sqrt(mu^2 + 8k), over k <= n, integrated in closed form.
    Elementwise for an array mu."""
    if n == 0:
        return (mu * mu).real / 4.0
    if type(mu) is _ARRAY:
        w = np.sqrt(mu * mu + 8.0 * n)
        return n * (2.0 * np.log(np.abs(w + mu)) - math.log(8.0 * n)) + (mu * w).real / 4.0
    w = cmath.sqrt(mu * mu + 8.0 * n)
    return n * (2.0 * math.log(abs(w + mu)) - math.log(8.0 * n)) + (mu * w).real / 4.0


def _seed(mu, n):
    """g_n = 2 J_(n+1) / J_n by two Liouville-Green terms: with
    w = sqrt(mu^2 + 8(n+1)), g_n (mu + g_(n+1)) = 2(n + 1) gives
    g_n = (w - mu)/2 (1 - 2/w^2 + ...). Elementwise for arrays mu, n."""
    if type(mu) is _ARRAY:
        w = np.sqrt(mu * mu + 8.0 * (n + 1))
    else:
        w = cmath.sqrt(mu * mu + 8.0 * (n + 1))
    return 0.5 * (w - mu) * (1.0 - 2.0 / (w * w))


def _seed_gain(mu, w):
    """-ln of _seed's relative error at w = sqrt(mu^2 + 8n). The next
    Liouville-Green term is g_n (2w + 10 mu) / w^5, so the error is
    |2w + 10 mu| / |w|^5, about 1/(32 n^2) for large n; measured against
    the converged ratio it holds within a few percent from n = 50 on.
    Elementwise for arrays."""
    if type(mu) is _ARRAY:
        return np.log(np.abs(w) ** 5 / np.abs(2.0 * w + 10.0 * mu))
    return math.log(abs(w) ** 5 / abs(2.0 * w + 10.0 * mu))


def _miller_start(mu: complex, n_max: int) -> int | None:
    """Start N of the backward recurrence, or None for the upward one.

    N is the smallest index with _dominance(N) - _dominance(n_max) >=
    ln 2^53 minus _seed_gain(N): the backward recurrence from _seed(N) is
    then within roundoff at n_max. Newton's method finds N stepping in
    sqrt(n), along which the dominance grows about linearly far out (like
    Re(mu) sqrt(2n), which makes N grow like 1/Re(mu)^2), and takes the
    gain's slope as 2/n, its large-n form. Both terms are concave in sqrt(n)
    far out, so the iterates approach N from below; near the turning point
    n = -Re(mu^2)/8 one can overshoot N, and the rule keeps it rather than
    step back. Past _MILLER_CAP the choice is _cap_wins'."""
    target = _dominance(mu, n_max) + _LN_EPS
    mu_mu, ten_mu = mu * mu, 10.0 * mu
    x = float(max(n_max, 1))
    while x <= _MILLER_CAP:
        eight_x = 8.0 * x
        w = cmath.sqrt(mu_mu + eight_x)
        slope = 2.0 * math.log(abs(w + mu)) - math.log(eight_x)
        if slope <= 0.0:
            break
        # x * slope + Re(mu w) / 4 is _dominance(mu, x), and slope its
        # derivative; the last term is _seed_gain(mu, w), inlined
        gain = x * slope + (mu * w).real / 4.0 + math.log(abs(w) ** 5 / abs(2.0 * w + ten_mu))
        step = (target - gain) / (slope + 2.0 / x)
        if step <= 0.5:
            return math.ceil(x + max(step, 0.0)) + 1
        # the same Newton step taken in sqrt(x)
        x += step + step * step / (4.0 * x)
    return _MILLER_CAP if _cap_wins(mu, n_max) else None


def _cap_wins(mu, n_max: int):
    """Past the cap: whether the backward recurrence from _seed at the cap
    has a smaller predicted ln(error / roundoff) than the upward one.
    Elementwise for arrays."""
    sqrt = np.sqrt if type(mu) is _ARRAY else cmath.sqrt
    gain = _seed_gain(mu, sqrt(mu * mu + 8.0 * _MILLER_CAP))
    capped_loss = _LN_EPS - gain - (_dominance(mu, _MILLER_CAP) - _dominance(mu, n_max))
    return capped_loss < _dominance(mu, n_max) - _dominance(mu, 0)


def _miller_starts(mu: np.ndarray, n_max: int) -> np.ndarray:
    """_miller_start elementwise, with 0 for the upward recurrence."""
    x = np.full(mu.shape, float(max(n_max, 1)))
    starts = np.zeros(mu.shape, dtype=int)
    past_cap = np.zeros(mu.shape, dtype=bool)
    target = _dominance(mu, n_max) + _LN_EPS
    live = np.flatnonzero(x <= _MILLER_CAP)
    while live.size:
        m, xl = mu[live], x[live]
        w = np.sqrt(m * m + 8.0 * xl)
        slope = 2.0 * np.log(np.abs(w + m)) - np.log(8.0 * xl)
        rising = slope > 0.0
        past_cap[live[~rising]] = True
        live, m, w, xl, slope = live[rising], m[rising], w[rising], xl[rising], slope[rising]
        gain = xl * slope + (m * w).real / 4.0 + _seed_gain(m, w)
        step = (target[live] - gain) / (slope + 2.0 / xl)
        done = step <= 0.5
        starts[live[done]] = np.ceil(xl[done] + np.maximum(step[done], 0.0)).astype(int) + 1
        x[live] = xl + step + step * step / (4.0 * xl)
        live = live[~done]
        beyond = x[live] > _MILLER_CAP
        past_cap[live[beyond]] = True
        live = live[~beyond]
    starts[past_cap] = np.where(_cap_wins(mu[past_cap], n_max), _MILLER_CAP, 0)
    return starts


def _upward(mu, j0, n_max: int) -> list:
    """J_0..J_n_max by mu J_n + 2 J_{n+1} = n J_{n-1} + [n = 0]; elementwise
    for arrays, as is _backward."""
    js = [j0]
    if n_max >= 1:
        js.append(0.5 * (1.0 - mu * j0))
    for n in range(1, n_max):
        js.append(0.5 * (n * js[n - 1] - mu * js[n]))
    return js


def _backward(mu, j0, n_max: int, start: int, g) -> list:
    """J_0..J_n_max from J_0 and the ratios J_{n+1}/J_n = g_n / 2 of
    Miller's backward recurrence g_{n-1} = 2n / (mu + g_n) from g_start = g.
    Scaling by 2 is exact, so this rounds as the recurrence for the ratios
    themselves does, one multiplication per step fewer."""
    for n in range(2 * start, 2 * n_max, -2):
        g = n / (mu + g)
    gs = []
    for n in range(2 * n_max, 0, -2):
        g = n / (mu + g)
        gs.append(g)
    js = [j0]
    for g in reversed(gs):
        js.append(js[-1] * g * 0.5)
    return js


def _backward_array(mu: np.ndarray, j0: np.ndarray, n_max: int, starts: np.ndarray) -> list:
    """_backward elementwise, each element from _seed at its own start:
    sorted by start, the elements still running at index n are a prefix of
    the arrays, so every step updates one slice."""
    order = np.argsort(-starts, kind="stable")
    running = np.searchsorted(-starts[order], -np.arange(starts.max() + 1), side="right")
    mu_sorted = mu[order]
    g = _seed(mu_sorted, starts[order])
    for n in range(int(starts.max()), n_max, -1):
        k = running[n]
        g[:k] = 2.0 * n / (mu_sorted[:k] + g[:k])
    g[order] = g.copy()
    return _backward(mu, j0, n_max, n_max, g)


def damped_moments(b, a, n_max: int):
    """I_n = int_0^inf s^n exp(-b s - a s^2) ds for n = 0..n_max;
    Re b > 0, a >= 0, both finite.

    For scalar b and a the result is a list of n_max + 1 complex numbers.
    If b or a is a numpy.ndarray (not a subclass), the two are broadcast
    together and give an array of shape (n_max + 1,) + that shape. Each
    element takes the branch and the backward-recurrence start its scalar
    call takes, and the elements of a
    branch are evaluated together. The two agree to a few units in the last
    place, and past the cap to what the recurrence makes of that, because
    numpy rounds complex products differently from Python and the array
    form sums the asymptotic series by Horner's rule
    (tests/test_xsection_engine.py). Scalars pick their branch by plain
    comparisons, since the array masks cost more than a whole scalar call.

    With mu = b / sqrt(a), J_n = a^((n+1)/2) I_n obeys
    mu J_n + 2 J_{n+1} = n J_{n-1} (n >= 1), and
    J_0 = (sqrt(pi)/2) w(i mu/2) with w the Faddeeva function, computed in
    this module and seeding every branch but the first two below. For a
    real mu (real b, as for the purity and the Taylor branch of the
    momentum density) w(i mu/2) is erfcx(mu/2) = exp(mu^2/4) erfc(mu/2),
    within 1e-15 relative (``_erfcx``); otherwise, and for every element of
    an array, it is Weideman's N = 40 rational approximation, within 2e-15
    relative (``_faddeeva``; both in tests/test_faddeeva.py). The branch
    follows |mu|:

    * a = 0: the exact n! / b^(n+1);
    * |mu|^2 >= 170 + 14 n_max: the asymptotic series
      sum_k (-a)^k (n+2k)! / (k! b^(n+2k+1)) for the two highest n,
      truncated at its smallest term, which is below 1e-17 relative there,
      and the recurrence downwards from them;
    * |mu|^2 <= 6: upward recurrence from J_0;
    * otherwise Miller's backward recurrence for J_n / J_(n-1), normalised
      by J_0 (Gautschi, SIAM Rev. 9, 24 (1967)). It starts at an index N
      from two Liouville-Green terms of the ratio (Gil, Segura & Temme,
      Numerical Methods for Special Functions, SIAM 2007, ch. 4):
      J_(N+1)/J_N = (w - mu)/4 (1 - 2/w^2) with w = sqrt(mu^2 + 8(N+1))
      (``_seed``). The seed is off by the next term, |2w + 10 mu| / |w|^5
      relative, about 1/(32 N^2); N is where the dominant solution has
      outgrown J past n_max by 2^53 times that error (``_miller_start``).
      N grows like 1/Re(mu)^2 and is capped at 4000;
    * past the cap, which only Re(mu) < 0.5 reaches: the upward recurrence
      or the backward one from the seed at the cap, whichever has the
      smaller predicted loss.

    Accuracy against mpmath (tests/test_moments.py, and over the whole
    Miller branch tests/test_properties.py): at most 1e-13 relative for
    n <= 6 wherever Re(mu) >= 0.5. Past the cap the error stays within
    about twice the predicted loss. Measured for Re(mu) in [0.01, 0.5), it
    stays below 2e-14 for |mu|^2 <= 16 and peaks near Re(mu) = 0.015,
    |mu|^2 = 60 at 3e-12 for n <= 3 and 1.5e-10 for n = 6.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if type(b) is _ARRAY or type(a) is _ARRAY:
        return _damped_moments_array(b, a, n_max)
    b = complex(b)
    a = float(a)
    if not (cmath.isfinite(b) and math.isfinite(a)):
        raise ValueError(f"damped moments need finite b and a, got b={b!r}, a={a!r}")
    if b.real <= 0.0 or a < 0.0:
        raise ValueError(f"damped moments need Re b > 0 and a >= 0, got b={b!r}, a={a!r}")
    if a == 0.0:
        inv_b = 1.0 / b
        return [math.factorial(n) * inv_b ** (n + 1) for n in range(n_max + 1)]
    root = math.sqrt(a)
    mu = b / root
    # a product, not ** 2, which raises OverflowError past |mu| ~ 1.3e154
    mu_abs = abs(mu)
    mu_sq = mu_abs * mu_abs
    if mu_sq >= 170.0 + 14.0 * n_max:
        # from there on the series of every I_n, n <= n_max, has a smallest
        # term below 1e-17 relative; the two highest moments come from it,
        # the rest from the recurrence downwards, the stable direction
        top = max(n_max, 1)
        low, high = _asymptotic_moments(b, a, top)
        moments = [high, low]
        two_a = 2.0 * a
        for n in range(top - 1, 0, -1):
            low, high = (b * low + two_a * high) / n, low
            moments.append(low)
        moments.reverse()
        return moments[: n_max + 1]
    if mu.imag == 0.0 and mu.real <= 2.0 * _ERFCX_MAX:
        # real b: w(i mu/2) in closed form, over ten times cheaper than _faddeeva
        j0 = complex(_HALF_SQRT_PI * _erfcx(0.5 * mu.real))
    else:
        j0 = _HALF_SQRT_PI * _faddeeva(0.5j * mu)
    start = None if mu_sq <= _UPWARD_MU_SQ else _miller_start(mu, n_max)
    if start is None:
        js = _upward(mu, j0, n_max)
    else:
        js = _backward(mu, j0, n_max, start, _seed(mu, start))
    scale = 1.0 / root
    moments = []
    for j in js:
        moments.append(j * scale)
        scale /= root
    return moments


def _damped_moments_array(b, a, n_max: int) -> np.ndarray:
    b, a = np.broadcast_arrays(np.asarray(b, dtype=complex), np.asarray(a, dtype=float))
    shape = b.shape
    b, a = b.ravel(), a.ravel()
    if not (np.isfinite(b).all() and np.isfinite(a).all()):
        raise ValueError("damped moments need finite b and a")
    if (b.real <= 0.0).any() or (a < 0.0).any():
        raise ValueError("damped moments need Re b > 0 and a >= 0")
    out = np.empty((n_max + 1, b.size), dtype=complex)

    def put(idx, moments):
        for row, moment in zip(out, moments):
            row[idx] = moment

    def put_scaled(idx, js, root):
        scale = 1.0 / root
        for row, j in zip(out, js):
            row[idx] = j * scale
            scale = scale / root

    exact = np.flatnonzero(a == 0.0)
    inv_b = 1.0 / b[exact]
    put(exact, [math.factorial(n) * inv_b ** (n + 1) for n in range(n_max + 1)])
    damped = np.flatnonzero(a != 0.0)
    root = np.sqrt(a[damped])
    # b / root part by part, as Python divides a complex by a float
    mu = b[damped].copy()
    mu.real /= root
    mu.imag /= root
    with np.errstate(over="ignore"):
        mu_sq = np.abs(mu) ** 2
    series = mu_sq >= 170.0 + 14.0 * n_max
    idx = damped[series]
    bs, as_ = b[idx], a[idx]
    top = max(n_max, 1)
    moments = list(_asymptotic_pairs(bs, as_, top))
    for n in range(top - 1, 0, -1):
        moments.insert(0, (bs * moments[0] + 2.0 * as_ * moments[1]) / n)
    put(idx, moments[: n_max + 1])
    rest = ~series
    if rest.any():
        idx, mu, mu_sq, root = damped[rest], mu[rest], mu_sq[rest], root[rest]
        j0 = _HALF_SQRT_PI * _faddeeva(0.5j * mu)
        starts = np.zeros(mu.shape, dtype=int)
        miller = mu_sq > _UPWARD_MU_SQ
        starts[miller] = _miller_starts(mu[miller], n_max)
        up = starts == 0
        if up.any():
            put_scaled(idx[up], _upward(mu[up], j0[up], n_max), root[up])
        back = ~up
        if back.any():
            js = _backward_array(mu[back], j0[back], n_max, starts[back])
            put_scaled(idx[back], js, root[back])
    return out.reshape((n_max + 1,) + shape)
