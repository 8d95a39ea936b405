"""Closed-form damped moments I_n = int_0^inf s^n exp(-b s - a s^2) ds.

Every library integrand of the form polynomial * exp(-b s - a s^2) is a
finite sum of these moments: the purity, the momentum density and the
damped spectral weight of the cross-section.
"""

from __future__ import annotations

import cmath
import math

from ._numpy import np

class QuadratureError(ArithmeticError):
    """Numerical integration failed: the cross-section's reduced integral
    (scattering._reduced_integrals) raises it for the first angle it cannot
    trust. An ArithmeticError, like every numeric failure of the library."""


#: the smallest normal double: a running scale of the recurrences below it
#: has lost bits
_SMALLEST_NORMAL = 2.0**-1022
#: largest start index of the backward recurrence
_MILLER_CAP = 4000
#: largest n_max of damped_moments: the a -> 0 limit n! / b^(n+1) needs
#: n! as a double, and 171! is past the largest one
_MAX_ORDER = 170
#: ln 2^53: how far the dominant solution must outgrow J for an error of 1
#: in the backward recurrence's start to fall below double-precision roundoff
_LN_EPS = 53.0 * math.log(2.0)
#: ln 2, the step of the binary exponent in _closed_start
_LN_2 = math.log(2.0)
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
#: the Liouville-Green coefficients c_k(mu) = mu^((k+1) mod 2) (p + q mu^2)
#: of the long seed g_n = W/2 - mu/2 + sum_k c_k W^-k, as (p, q) for
#: k = 1..10: c_1..c_8 make up _seed_long, and c_9, c_10 give its error;
#: written by tests/make_seed_coeffs.py
_SEED_COEFFS = (
    (-1, 0), (1, 0), (1, 0), (4, 0), (10, -5),
    (-20, 0), (-21, -50), (-368, 60), (-798, 534), (1696, 960),
)
(
    (_C1, _), (_C2, _), (_C3, _), (_C4, _), (_C5, _C5_MU2),
    (_C6, _), (_C7, _C7_MU2), (_C8, _C8_MU2), (_C9, _C9_MU2), (_C10, _C10_MU2),
) = _SEED_COEFFS
#: the long seed's gain at a typical Newton-region start, in nats: the
#: start search begins where Re(mu) sqrt(2N) makes up the rest of ln 2^53
_LONG_GAIN_GUESS = 20.0
#: sqrt(2 * _MILLER_CAP): Re(mu) sqrt(2N) at the cap
_SQRT_2CAP = math.sqrt(2.0 * _MILLER_CAP)
#: the largest Newton step of the start search after which it stops: an
#: iteration costs as much as about ten backward steps, and the step after
#: one of 4 is at most about 2.6 (0.16 step^2 measured)
_NEWTON_LAST_STEP = 4.0


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
    and an add where Python's does not, and an upward moment recurrence
    past the Miller cap amplifies a last-bit difference in w to 3e-11.
    Backward runs normalise themselves and do not call it."""
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
    """w(iy) = exp(y^2) erfc(y) for 0 <= y <= 26. y^2 is split into
    hi^2 + (y - hi)(y + hi) with hi on 26 bits, so hi^2 is exact: exp(y * y)
    would carry the rounding of y^2 into the result, up to 3e-14 relative
    at y = 16. Within 1e-15 relative of mpmath on [0, 20]."""
    hi = math.floor(y * 1048576.0) / 1048576.0
    return math.exp(hi * hi) * math.exp((y - hi) * (y + hi)) * math.erfc(y)


def _sqrt(z):
    """The square root in z's own arithmetic: a Python complex, a float or
    a complex array. cmath.sqrt of a real positive complex rounds as
    math.sqrt does, so the float path rounds as the complex one would."""
    if type(z) is complex:
        return cmath.sqrt(z)
    if type(z) is float:
        return math.sqrt(z)
    return np.sqrt(z)


def _dominance(mu, n: float):
    """ln|L_n / J_n| up to a constant, L a dominant solution of the moment
    recurrence: the Liouville-Green sum of ln|(w_k + mu)/(w_k - mu)|,
    w_k = sqrt(mu^2 + 8k), over k <= n, integrated in closed form.
    Elementwise for an array mu."""
    if n == 0:
        return (mu * mu).real / 4.0
    w = _sqrt(mu * mu + 8.0 * n)
    if type(mu) is complex or type(mu) is float:
        return n * (2.0 * math.log(abs(w + mu)) - math.log(8.0 * n)) + (mu * w).real / 4.0
    return n * (2.0 * np.log(np.abs(w + mu)) - math.log(8.0 * n)) + (mu * w).real / 4.0


def _seed(mu, n):
    """g_n = 2 J_(n+1) / J_n by two Liouville-Green terms, the seed of the
    closed-form starts: with w = sqrt(mu^2 + 8(n+1)),
    g_n (mu + g_(n+1)) = 2(n + 1) gives g_n = (w - mu)/2 - 1/w + mu/w^2 + ...
    (c_1 and c_2 of _SEED_COEFFS), summed as 4(n + 1)/(w + mu) (1 - 2/w^2):
    Re w >= 0 and Re mu > 0, so w + mu does not cancel, where w - mu cancels
    to 0 once |mu|^2 >> 8n. Off by |2w + 10 mu| / |w|^5 relative, c_3 and
    c_4 (tests/test_moments.py). Elementwise for arrays mu, n."""
    w = _sqrt(mu * mu + 8.0 * (n + 1))
    return 4.0 * (n + 1) / (w + mu) * (1.0 - 2.0 / (w * w))


def _seed_long(mu, n):
    """g_n = 2 J_(n+1) / J_n by eight Liouville-Green terms, the seed of the
    Newton-searched starts and of the cap: with
    W = sqrt(mu^2 + 8(n+1)), g_n = 4(n+1)/(W + mu) + sum_(k=1..8) c_k W^-k,
    the c_k of _SEED_COEFFS, summed by Horner's rule in 1/W^2, the terms
    odd and even in mu apart. Off by about the first terms left out,
    |c_9 + c_10 / W| / |W|^9 relative to g_n (_long_gain): 5e-9 at n = 40
    and 5e-12 at n = 150 for mu = 1 - 3i, where _seed is off by 3e-5 and
    2e-6 (tests/test_moments.py). Elementwise for arrays mu, n."""
    mu_mu = mu * mu
    w = _sqrt(mu_mu + 8.0 * (n + 1))
    x = 1.0 / w
    y = x * x
    odd = (((_C7 + _C7_MU2 * mu_mu) * y + _C5 + _C5_MU2 * mu_mu) * y + _C3) * y + _C1
    even = (((_C8 + _C8_MU2 * mu_mu) * y + _C6) * y + _C4) * y + _C2
    return 4.0 * (n + 1) / (w + mu) + x * (odd + mu * x * even)


def _long_gain(mu, w, x):
    """-ln of _seed_long's relative error at start x, w = sqrt(mu^2 + 8x):
    ln(4x |w|^10 / (|c_9 w + c_10| |w + mu|)), the first terms it leaves
    out against g = 4x / (w + mu). About 5 ln x far out. Elementwise for
    arrays."""
    mu_mu = mu * mu
    tail = (_C9 + _C9_MU2 * mu_mu) * w + mu * (_C10 + _C10_MU2 * mu_mu)
    if type(mu) is complex or type(mu) is float:
        return math.log(4.0 * x * abs(w) ** 10 / (abs(tail) * abs(w + mu)))
    return np.log(4.0 * x * np.abs(w) ** 10 / (np.abs(tail) * np.abs(w + mu)))


def _newton_guess(mu, target, floor: float):
    """Where the start search of a complex mu begins: the x at which
    Re(mu) sqrt(2x), the dominance far out, reaches target less the long
    seed's typical gain, within [floor, _MILLER_CAP], floor = max(n_max, 1).
    The same operations in both forms, so a scalar and an array element
    begin alike; a Re(mu) that underflows to 0 begins at the cap."""
    if type(mu) is complex or type(mu) is float:
        reach = max(target - _LONG_GAIN_GUESS, 0.0)
        root2x = min(reach / max(mu.real, 1e-300), _SQRT_2CAP)
        return max(min(0.5 * root2x * root2x, _MILLER_CAP), floor)
    reach = np.maximum(target - _LONG_GAIN_GUESS, 0.0)
    root2x = np.minimum(reach / np.maximum(mu.real, 1e-300), _SQRT_2CAP)
    return np.maximum(np.minimum(0.5 * root2x * root2x, _MILLER_CAP), floor)


def _miller_start(mu, n_max: int) -> int | None:
    """Start N of the backward recurrence of mu, a float or a complex, from
    _seed_long, or None for the upward one; a float mu stays in float
    arithmetic and picks the N its complex form picks.

    N is the smallest index with _dominance(N) - _dominance(n_max) >=
    ln 2^53 minus _long_gain(N): the backward recurrence from _seed_long(N)
    is then within roundoff at n_max. Newton's method finds N stepping in
    sqrt(n), along which the dominance grows about linearly far out (like
    Re(mu) sqrt(2n), which makes N grow like 1/Re(mu)^2), and takes the
    gain's slope as 5/n, its large-n form. It begins at _newton_guess.
    Both terms are concave in sqrt(n) far out, so from above the guess one
    Newton step, the only one taken downwards, lands below N, and from
    below the iterates approach N from below; near the turning point
    n = -Re(mu^2)/8 one can overshoot N, and the rule keeps it rather than
    step back again. Once a step is at most _NEWTON_LAST_STEP the search
    stops a step early, at the next iterate plus that step again. Past
    _MILLER_CAP the choice is _cap_wins'."""
    target = _dominance(mu, n_max) + _LN_EPS
    floor = float(max(n_max, 1))
    x = _newton_guess(mu, target, floor)
    mu_mu = mu * mu
    tail_w = _C9 + _C9_MU2 * mu_mu
    tail_1 = mu * (_C10 + _C10_MU2 * mu_mu)
    first = True
    while x <= _MILLER_CAP:
        eight_x = 8.0 * x
        w = _sqrt(mu_mu + eight_x)
        reach = abs(w + mu)
        slope = math.log(reach * reach / eight_x)
        if slope <= 0.0:
            break
        # x * slope + Re(mu w) / 4 is _dominance(mu, x), and slope its
        # derivative, 2 ln|w + mu| - ln 8x; the last term is
        # _long_gain(mu, w, x), inlined
        gain = (x * slope + (mu * w).real / 4.0
                + math.log(4.0 * x * abs(w) ** 10 / (abs(tail_w * w + tail_1) * reach)))
        step = (target - gain) / (slope + 5.0 / x)
        if first and step < -0.5 and x > floor:
            x = max(x + step, floor)
        elif step <= _NEWTON_LAST_STEP:
            # the next step is well below this one: N is the next iterate
            # plus this step again
            step = max(step, 0.0)
            return math.ceil(x + 2.0 * step + step * step / (4.0 * x)) + 1
        else:
            # the same Newton step taken in sqrt(x)
            x += step + step * step / (4.0 * x)
        first = False
    return _MILLER_CAP if _cap_wins(mu, n_max) else None


def _closed_start(mu_sq, n_max: int):
    """Start N of the backward recurrence from |mu|^2 >= 170 + 14 n_max on,
    in closed form and elementwise for arrays, rounding alike in both forms.

    Where |mu|^2 >> 8N, g_n is about 2(n + 1)/mu, and a step from g_n to
    g_(n-1) shrinks the relative error of g_n by |mu|^2 / (2(n + 1)); k
    steps of at least |mu|^2 / (2N) each leave an error of 1 in the seed
    below roundoff once k ln(|mu|^2 / (2N)) >= ln 2^53. With
    l(x) = (binary exponent of x - 1) ln 2 <= ln x, from frexp:
    k_0 = ln 2^53 / l(|mu|^2 / (2(n_max + 1))) and
    N = n_max + 1 + ceil(ln 2^53 / l(|mu|^2 / (2(n_max + 1 + k_0)))).
    Near the threshold with arg(mu) near -+pi/2, 8N is not small against
    |mu|^2: there the converged ratios damp an error of 1 in g_N only by
    e^-34, 2.7 nats short of 2^-53, and _seed's own error is below 1.
    On 126,000 draws (n_max in {1, 3, 4, 6, 7, 12}, |mu|^2 up to 1e20, any
    arg(mu)) N was never below the smallest start at which _seed's own
    error, |2w + 10 mu| / |w|^5, is damped below roundoff, 2.3 steps above
    it on average and 18 at most; these runs are about 9 steps long, so
    neither a Newton search nor the long seed would pay for itself."""
    scalar = type(mu_sq) is float
    frexp = math.frexp if scalar else np.frexp
    first = _LN_EPS / ((frexp(mu_sq / (2.0 * (n_max + 1)))[1] - 1) * _LN_2)
    steps = _LN_EPS / ((frexp(mu_sq / (2.0 * (n_max + 1 + first)))[1] - 1) * _LN_2)
    if scalar:
        return n_max + 1 + math.ceil(steps)
    return n_max + 1 + np.ceil(steps).astype(int)


#: by n_max: |mu|^2 from which the moments are the exact a = 0 limit, where
#: the first correction a (n+1)(n+2) / b^2 is below half an ulp
_EXACT_FROM = tuple(2.0**54 * ((n + 1) * (n + 2)) for n in range(_MAX_ORDER + 1))
#: by n_max: |mu|^2 from which Miller's recurrence starts at _closed_start,
#: from the two-term _seed
_CLOSED_FROM = tuple(170.0 + 14.0 * n for n in range(_MAX_ORDER + 1))
#: by n_max: |mu|^2 up to which the upward recurrence from J_0 runs; its
#: error grows with n, so past n_max = 12 _miller_start decides alone
_UPWARD_TO = tuple(6.0 if n <= 12 else 0.0 for n in range(_MAX_ORDER + 1))


def _cap_wins(mu, n_max: int):
    """Past the cap: whether the backward recurrence from _seed_long at the
    cap has a smaller predicted ln(error / roundoff) than the upward one.
    Elementwise for arrays."""
    gain = _long_gain(mu, _sqrt(mu * mu + 8.0 * _MILLER_CAP), _MILLER_CAP)
    capped_loss = _LN_EPS - gain - (_dominance(mu, _MILLER_CAP) - _dominance(mu, n_max))
    return capped_loss < _dominance(mu, n_max) - _dominance(mu, 0)


def _miller_starts(mu: np.ndarray, n_max: int) -> np.ndarray:
    """_miller_start elementwise, with 0 for the upward recurrence."""
    floor = float(max(n_max, 1))
    target = _dominance(mu, n_max) + _LN_EPS
    x = _newton_guess(mu, target, floor)
    starts = np.zeros(mu.shape, dtype=int)
    past_cap = x > _MILLER_CAP
    live = np.flatnonzero(~past_cap)
    first = True
    while live.size:
        m, xl = mu[live], x[live]
        w = np.sqrt(m * m + 8.0 * xl)
        reach = np.abs(w + m)
        slope = np.log(reach * reach / (8.0 * xl))
        rising = slope > 0.0
        past_cap[live[~rising]] = True
        live, m, w, xl, slope = live[rising], m[rising], w[rising], xl[rising], slope[rising]
        gain = xl * slope + (m * w).real / 4.0 + _long_gain(m, w, xl)
        step = (target[live] - gain) / (slope + 5.0 / xl)
        down = (step < -0.5) & (xl > floor) if first else np.zeros(step.shape, dtype=bool)
        done = (step <= _NEWTON_LAST_STEP) & ~down
        last, x_last = np.maximum(step[done], 0.0), xl[done]
        stop = np.ceil(x_last + 2.0 * last + last * last / (4.0 * x_last))
        starts[live[done]] = stop.astype(int) + 1
        up = xl + step + step * step / (4.0 * xl)
        x[live] = np.where(down, np.maximum(xl + step, floor), up)
        live = live[~done]
        beyond = x[live] > _MILLER_CAP
        past_cap[live[beyond]] = True
        live = live[~beyond]
        first = False
    starts[past_cap] = np.where(_cap_wins(mu[past_cap], n_max), _MILLER_CAP, 0)
    return starts


def _upward(mu, j0, n_max: int, root) -> list:
    """I_0..I_n_max, I_n = J_n / root^(n+1), from J_0 by the upward
    recurrence mu J_n + 2 J_{n+1} = n J_{n-1} + [n = 0]; elementwise for
    arrays, as is _backward. Each moment is J_n times the scale s_n, with
    s_0 = 1/root and s_n = s_(n-1)/root, as it comes: the same operations in
    the same order as a list of J_n rescaled afterwards (tests/oracles.py),
    so the moments are bit for bit those, wherever the scale stays a normal
    double (_two_factors)."""
    scale = 1.0 / root
    moments = [j0 * scale]
    if n_max >= 1:
        j_prev, j = j0, 0.5 * (1.0 - mu * j0)
        scale = scale / root
        moments.append(j * scale)
        for n in range(1, n_max):
            j_prev, j = j, 0.5 * (n * j_prev - mu * j)
            scale = scale / root
            moments.append(j * scale)
    if _SMALLEST_NORMAL <= scale < math.inf:
        return moments
    half = math.sqrt(root)
    return _two_factors(_upward(mu, j0, n_max, half), half)


def _backward(mu, n_max: int, start: int, g, root) -> list:
    """I_0..I_n_max, I_n = J_n / root^(n+1), from the ratios
    g_n = 2 J_{n+1} / J_n of Miller's backward recurrence
    g_{n-1} = 2n / (mu + g_n) from g_start = g, and J_0 = 1 / (mu + g_0),
    the n = 0 relation mu J_0 + 2 J_1 = 1 (Gautschi, SIAM Rev. 9, 24
    (1967)). The normalisation has condition number |g_0 J_0| = 2|J_1|, at
    most 2 int_0^inf s exp(-s^2) ds = 1 for Re mu >= 0, so nothing cancels.
    Scaling by 2 is exact, so this rounds as the recurrence for the ratios
    themselves does, one multiplication per step fewer. On the way up
    J_n = J_(n-1) g_(n-1) / 2 is scaled as _upward scales it, so the
    moments are bit for bit those of a list of J_n rescaled afterwards
    (tests/oracles.py), wherever the scale stays a normal double
    (_two_factors). Elementwise for arrays."""
    g_start = g
    for n in range(2 * start, 2 * n_max, -2):
        g = n / (mu + g)
    gs = []
    for n in range(2 * n_max, 0, -2):
        g = n / (mu + g)
        gs.append(g)
    j = 1.0 / (mu + g)
    scale = 1.0 / root
    moments = [j * scale]
    for g in reversed(gs):
        j = j * g * 0.5
        scale = scale / root
        moments.append(j * scale)
    if _SMALLEST_NORMAL <= scale < math.inf:
        return moments
    half = math.sqrt(root)
    return _two_factors(_backward(mu, n_max, start, g_start, half), half)


def _two_factors(moments: list, half: float) -> list:
    """The moments J_n / half^(n+1) that _upward or _backward gave at
    root = half^2, scaled once more by 1 / half^(n+1): the scale
    1 / root^(n+1) in two factors, for where it leaves the normal doubles
    by n_max (1 / a^((n+1)/2) overflows past 1e308 at a = 1e-50 and
    n = 12) while the moments need not. Each factor is within the range
    wherever the scale is within its square. The two roundings, with the
    rounding of sqrt(root), move I_n by at most 2.3 (n + 1) ulps against
    one factor (3,000 draws up to n = 170 with both in range). Where a factor
    leaves the range as well, the recurrence at half splits it again."""
    scale = 1.0 / half
    out = []
    for moment in moments:
        out.append(moment * scale)
        scale = scale / half
    return out


def _backward_array(mu: np.ndarray, n_max: int, starts: np.ndarray, seeds: np.ndarray,
                    root: float) -> list:
    """_backward elementwise, each element from its seed at its own start:
    sorted by start, the elements still running at index n are a prefix of
    the arrays, so every step updates one slice."""
    order = np.argsort(-starts, kind="stable")
    running = np.searchsorted(-starts[order], -np.arange(starts.max() + 1), side="right")
    mu_sorted = mu[order]
    g = seeds[order]
    for n in range(int(starts.max()), n_max, -1):
        k = running[n]
        g[:k] = 2.0 * n / (mu_sorted[:k] + g[:k])
    g[order] = g.copy()
    return _backward(mu, n_max, n_max, g, root)


def _exact(b, n_max: int) -> list:
    """The a = 0 moments n! (1/b)^(n+1), n = 0..n_max: for a scalar b, a
    float or a complex, by _power, and elementwise for an array b by
    numpy's power. A scalar moment past the double range is inf: for a
    real b that is what the float arithmetic gives, and for a complex b,
    where the complex products turn the overflow into nan parts, it is
    the infinity in the moment's direction, cmath.rect(inf, -(n+1) arg b)."""
    inv_b = 1.0 / b
    if type(inv_b) is not float and type(inv_b) is not complex:
        return [math.factorial(n) * inv_b ** (n + 1) for n in range(n_max + 1)]
    moments = []
    for n in range(n_max + 1):
        moment = math.factorial(n) * _power(inv_b, n + 1)
        if moment != moment:
            moment = cmath.rect(math.inf, -(n + 1) * cmath.phase(b))
        moments.append(moment)
    return moments


def _power(x, n: int):
    """x^n for a float or complex x and n >= 1 by binary powering, the
    rule by which Python raises a complex to an int power up to 100: so a
    float x rounds as complex(x) would, and a complex x as x**n does up to
    n = 100. Past the double range the power overflows to inf, or to nan
    in a part of a complex power, where x**n raises OverflowError."""
    power = 1.0
    while n:
        if n & 1:
            power *= x
        x *= x
        n >>= 1
    return power


def damped_moments(b, a: float, n_max: int):
    """I_n = int_0^inf s^n exp(-b s - a s^2) ds for n = 0..n_max;
    Re b > 0, a >= 0, both finite, and 0 <= n_max <= 170 (_MAX_ORDER),
    else ValueError. Up to 170 every I_n is finite at a = 1, where
    I_n = J_n, over mu from 1e-300 to 1e12 on and off the real axis, and at
    a = 644.3 (tests/test_moments.py); at 171 the a -> 0 limit's 171! is
    past the largest double. Past the range the recurrences break down as
    well: at mu = 2.5 and a = 644.3 J_n overflows from n = 355 on.

    b and a are scalars: Python ints, floats and complex numbers, numpy
    scalars, or anything else complex() and float() take, so the call never
    loads numpy. An array b or a, of one dimension or more, raises
    TypeError from that conversion. A real b (a float, an int, or a complex
    whose imaginary part is 0, as for the purity and the momentum density
    at q = 0) runs the rule of a complex b in float arithmetic and gives a
    list of n_max + 1 floats, each the real part the complex arithmetic
    gives with J_0 from erfcx (tests/test_moments.py); any other b gives a
    list of complex numbers. Scalars pick their branch by plain
    comparisons against per-order tables of the thresholds. The purity,
    the momentum density and tau_transform all take their moments from
    _moments, the kernel behind the checks, in every branch: the first two
    call it directly, tau_transform through these checks. The cross-section
    scan calls the array kernel, _damped_moments_array, whose elements take
    the branch, start and seed of their scalar calls.

    Both recurrences scale each J_n to I_n as they go, with the operations
    of a list of J_n rescaled afterwards in the same order, so every form
    gives the moments of those list-based recurrences bit for bit
    (tests/oracles.py, tests/test_properties.py). Where that running scale
    a^(-(n+1)/2) leaves the normal doubles by n_max, as it overflows at
    a = 1e-50 and n = 12 and underflows at a = 1e4 from n = 153 on, it is
    applied in two factors (``_two_factors``): the moments then stay
    finite wherever they are doubles, within 2.3 (n + 1) ulps of the
    one-factor rounding (I_12 = 4.8e216 at b = 1e-16, a = 1e-50 backward,
    I_12 = 3.6e-307 at b = 1, a = 3e47 upward and I_170 = 3.1e-225 at
    b = 250, a = 1e4, tests/test_moments.py).

    With mu = b / sqrt(a), J_n = a^((n+1)/2) I_n obeys
    mu J_n + 2 J_{n+1} = n J_{n-1} + [n = 0]. The branch follows |mu|:

    * a = 0, or |mu|^2 >= 2^54 (n_max + 1)(n_max + 2), |mu| past the
      largest double included, where the first correction a (n+1)(n+2) / b^2
      to the a = 0 limit is below half an ulp:
      the exact n! (1/b)^(n+1) (``_exact``), which no J_n underflows, with
      (1/b)^(n+1) by binary powering (``_power``) for a real b and a
      complex one alike, at every order. A moment past the double range is
      inf, for a complex b in the moment's direction, and never raises;
    * |mu|^2 <= 6 and n_max <= 12 (``_UPWARD_TO``): the upward recurrence
      (``_upward``) from J_0 = (sqrt(pi)/2) w(i mu/2), w the Faddeeva
      function, computed in this module. For a real b it is
      erfcx(mu/2) = exp(mu^2/4) erfc(mu/2), within 1e-15 relative
      (``_erfcx``); otherwise, and for every element of an array, it is
      Weideman's N = 40 rational approximation, within 2e-15 relative
      (``_faddeeva``; both in tests/test_faddeeva.py);
    * otherwise Miller's backward recurrence for g_n = 2 J_(n+1) / J_n,
      normalised by J_0 = 1 / (mu + g_0) (``_backward``; Gautschi, SIAM
      Rev. 9, 24 (1967)), from a Liouville-Green seed g_N at a start N
      (Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM
      2007, ch. 4). Below |mu|^2 = 170 + 14 n_max N is where the dominant
      solution has outgrown J past n_max by 2^53 times the seed's own
      error, the first Liouville-Green terms it leaves out, and is capped at
      4000; N grows like 1/Re(mu)^2. There the seed is eight terms of the
      ratio, g_N = 4(N+1)/(W + mu) + sum_(k=1..8) c_k W^-k with
      W = sqrt(mu^2 + 8(N+1)) (``_seed_long``), off by about
      |c_9 + c_10/W| / |W|^9 relative, and a Newton search from a
      closed-form estimate finds N (``_miller_start``), for a real b as
      for a complex one. From |mu|^2 = 170 + 14 n_max on, where runs are
      about 9 steps, N is a closed form in |mu|^2 that damps an error of 1
      in the two-term seed, g_N = 4(N+1)/(W + mu) (1 - 2/W^2) (``_seed``),
      below roundoff (``_closed_start``);
    * past the cap, which a complex b reaches once Re(mu) is so small that
      the dominance's slope rounds to 0 past the turning point
      n = -Re(mu^2)/8 (1e-14 at |mu| = 2.5 and 5; up to n_max = 170 the
      start stayed below 3500 for any Re(mu) down to 1e-8), and a real b
      never, as that takes an n_max past the cap itself: the upward
      recurrence or the backward one from the seed at the cap, whichever
      has the smaller predicted loss.

    Accuracy against mpmath (tests/test_moments.py, and over the whole
    backward branch tests/test_properties.py): in Miller's branch at most
    1e-13 relative for n <= 6 wherever Re(mu) >= 0.5 (1.0e-15 measured over
    340 draws below |mu|^2 = 170 + 14 n_max), and at most 1e-14 for
    n <= 12 from there on at any arg(mu) (1.8e-15 measured over 900 draws
    up to |mu|^2 = 1e40). Below Re(mu) = 0.5, on 288 points with Re(mu) in
    [0.01, 0.49] and |mu|^2 in [6.5, 250] (starts up to about 1500), it is
    at most 2.8e-15 for n <= 3 and 3.9e-15 for n = 6;
    tests/test_moments.py gates 1e-14 there. The upward recurrence grows
    the error of J_0 with n: at most 5e-13 for n <= 6 and 2e-11 for
    7 <= n <= 12. On some 7,400 draws at n_max = 12 the worst were 1.6e-13
    and 4.3e-12 for a real b (1.67e-12 at mu^2 = 6) and 2.8e-13 and
    7.6e-12 for a complex one, all near |mu|^2 = 6 with Re(mu) about 2.4
    (tests/test_moments.py). Past n = 12 it loses more (2.3e2 at
    mu = 2.449, n_max = 170), so from n_max = 13 on _miller_start decides
    below the closed-form start: 1.0e-15 at four points where the upward
    run lost 2.4e-9 to 2.3e2 (tests/test_moments.py gates 1e-13). Past
    the cap the error stays within about twice the predicted loss: at most
    7.5e-15 for n_max <= 12 at mu = 1e-17 - 5i, 1e-300 - 9i and
    1e-300 - 2.5i (tests/test_moments.py gates 1e-14).
    """
    if not 0 <= n_max <= _MAX_ORDER:
        raise ValueError(f"n_max must lie in [0, {_MAX_ORDER}], got {n_max!r}")
    if type(b) is not float:
        b = complex(b)
        if b.imag == 0.0:
            b = b.real
    a = float(a)
    if b.real > 0.0 and cmath.isfinite(b) and 0.0 <= a < math.inf:
        return _moments(b, a, n_max)
    raise ValueError(f"damped moments need finite b, Re b > 0 and finite a >= 0, got a={a!r}")


def _moments(b, a: float, n_max: int) -> list:
    """damped_moments for a float or complex b with Re b > 0 and a finite
    a >= 0, unchecked: the purity and the momentum density call it, and
    tau_transform through damped_moments. The complex operations on real
    positive numbers round as their float forms do, so a float b rounds as
    complex(b) would (tests/oracles.py)."""
    if a == 0.0:
        return _exact(b, n_max)
    root = math.sqrt(a)
    mu = b / root
    try:
        mu_abs = abs(mu)
    except OverflowError:  # a complex |mu| past the largest double
        return _exact(b, n_max)
    # a product, not ** 2, which raises OverflowError past |mu| ~ 1.3e154
    mu_sq = mu_abs * mu_abs
    if mu_sq >= _EXACT_FROM[n_max]:
        return _exact(b, n_max)
    if mu_sq <= _UPWARD_TO[n_max]:
        start = None
    elif mu_sq >= _CLOSED_FROM[n_max]:
        start = _closed_start(mu_sq, n_max)
        g = _seed(mu, start)
    else:
        start = _miller_start(mu, n_max)
        g = _seed_long(mu, start) if start is not None else None
    if start is not None:
        return _backward(mu, n_max, start, g, root)
    if type(mu) is float:
        # w(i mu/2) in closed form, over ten times cheaper than _faddeeva: a
        # float mu runs upward only for mu^2 <= 6, since past the cap the
        # backward run always wins for it
        w = _erfcx(0.5 * mu)
    else:
        w = _faddeeva(0.5j * mu)
    return _upward(mu, _HALF_SQRT_PI * w, n_max, root)


def _damped_moments_array(b: np.ndarray, a: float, n_max: int) -> np.ndarray:
    """damped_moments at every element of a 1-D complex array b, as an
    array of shape (n_max + 1, b.size), unchecked: its one caller, the
    cross-section scan (scattering._damped_weight), builds b finite with
    Re b = 2 and a finite a > 0, as it takes the closed form at a = 0
    (scattering._rest_weight). Each element takes the branch, start and
    seed of its scalar call (J_0 from the Faddeeva function, a real b too),
    and the elements of a branch are evaluated together. The two forms
    agree to a few units in the last place, and past the cap to what the
    recurrence makes of that, as numpy rounds complex products differently
    from Python (tests/test_xsection_engine.py)."""
    root = math.sqrt(a)
    out = np.empty((n_max + 1, b.size), dtype=complex)
    # b / root part by part, as Python divides a complex by a float
    mu = b.copy()
    mu.real /= root
    mu.imag /= root
    with np.errstate(over="ignore"):
        mu_sq = np.abs(mu) ** 2
    exact = mu_sq >= _EXACT_FROM[n_max]
    if exact.any():
        out[:, exact] = _exact(b[exact], n_max)
    closed_from = _CLOSED_FROM[n_max]
    far = (mu_sq >= closed_from) & ~exact
    starts = np.zeros(b.shape, dtype=int)
    starts[far] = _closed_start(mu_sq[far], n_max)
    miller = (mu_sq > _UPWARD_TO[n_max]) & (mu_sq < closed_from)
    starts[miller] = _miller_starts(mu[miller], n_max)
    up = np.flatnonzero((starts == 0) & ~exact)
    if up.size:
        j0 = _HALF_SQRT_PI * _faddeeva(0.5j * mu[up])
        out[:, up] = _upward(mu[up], j0, n_max, root)
    back = np.flatnonzero(starts)
    if back.size:
        mu_back, starts_back = mu[back], starts[back]
        # the two-term seed at the closed-form starts, the long one elsewhere,
        # each computed on its own elements only
        closed = far[back]
        newton = ~closed
        seeds = np.empty(back.size, dtype=complex)
        seeds[closed] = _seed(mu_back[closed], starts_back[closed])
        seeds[newton] = _seed_long(mu_back[newton], starts_back[newton])
        out[:, back] = _backward_array(mu_back, n_max, starts_back, seeds, root)
    return out
