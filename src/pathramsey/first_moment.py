"""First-moment rate functions for the zero-edge subset-pair count, an
exact log-factorial oracle, and the constrained product minimization.

The expected count of bad subset pairs factors as f * exp(g * n).  g is
affine in the degree d, so the binding constraint g = 0 reduces the
two-variable minimization of c*d to a one-dimensional golden-section
search over c.
"""

import math
from dataclasses import dataclass, field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def c1_ratio(r: int, c: float) -> float:
    """Confinement ratio (2c + 1 - 2^r) / 2^(r+1); (2c-7)/16 for r = 3."""
    if r < 3:
        raise ValueError("need r >= 3")
    return (2.0 * c + 1.0 - 2 ** r) / 2 ** (r + 1)


def c_domain_min(r: int) -> float:
    """Smallest admissible c (where the confinement ratio hits zero)."""
    return (2 ** r - 1) / 2.0


def _check_domain(r: int, c: float, d: float | None = None):
    c1 = c1_ratio(r, c)
    if c1 <= 0:
        raise ValueError(f"c = {c} gives nonpositive confinement ratio")
    if c - 2 * c1 <= 0:
        raise ValueError(f"c = {c} gives nonpositive c - 2*c1")
    if d is not None and d <= 0:
        raise ValueError("d must be positive")
    return c1


def g_affine_parts(r: int, c: float):
    """(A, B) with g(c, d) = A(c) + d * B(c)."""
    c1 = _check_domain(r, c)
    A = (2 * c * math.log(c)
         - 2 * c1 * math.log(c1)
         - 2 * (c - c1) * math.log(c - c1))
    B = (2 * (c - c1) * math.log(c - c1)
         - (c - 2 * c1) * math.log(c - 2 * c1)
         - c * math.log(c))
    return A, B


def g_rate(r: int, c: float, d: float) -> float:
    """Exponential growth rate of the expected bad-pair count."""
    if d <= 0:
        raise ValueError("d must be positive")
    A, B = g_affine_parts(r, c)
    return A + d * B


def f_prefactor(r: int, c: float, d: float, n: float) -> float:
    """Polynomial prefactor (1/2pi) * (1/(c1*n)) * sqrt(c/(c - 2*c1))."""
    c1 = _check_domain(r, c, d)
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 / (2.0 * math.pi)) * (1.0 / (c1 * n)) * math.sqrt(c / (c - 2 * c1))


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        raise ValueError(f"invalid binomial C({n}, {k})")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def exact_log_moment(r: int, c: float, d: float, n: int) -> float:
    """(1/n) * ln of the exact bad-pair expectation, no Stirling step.

    Each count is rounded to the nearest integer independently; the
    resulting slack is O(ln n / n).
    """
    c1 = _check_domain(r, c, d)
    cn = round(c * n)
    c1n = round(c1 * n)
    t_top = round((c - c1) * d * n)
    t_sub = round(c1 * d * n)
    t_mid = round((c - 2 * c1) * d * n)
    t_all = round(c * d * n)
    for name, val in (("c1*n", c1n), ("(c-2c1)*d*n", t_mid)):
        if val < 1:
            raise ValueError(f"{name} rounds below 1 at n = {n}")
    if t_sub > t_top or c1n > cn:
        raise ValueError("rounded binomial has top < bottom")
    ln_x = (2 * _log_comb(cn, c1n)
            + 2 * _log_comb(t_top, t_sub)
            + 2 * math.lgamma(t_sub + 1)
            + math.lgamma(t_mid + 1)
            - math.lgamma(t_all + 1))
    return ln_x / n


def binding_degree(r: int, c: float) -> float | None:
    """Smallest d with g(c, d) <= 0, or None when no d > 0 works."""
    A, B = g_affine_parts(r, c)
    if B >= 0:
        return None
    return -A / B


@dataclass
class OptimizationResult:
    r: int
    c_star: float
    d_star: float
    cd_star: float
    g_at_star: float
    integer_degree_cost: float      # ceil(d_star) * c_star
    trace: list = field(default_factory=list)


def _cd_objective(r: int, c: float) -> float:
    try:
        d = binding_degree(r, c)
    except ValueError:
        return math.inf
    return c * d if d is not None else math.inf


def optimize_constants(r: int, tolerance: float = 1e-9,
                       scan_points: int = 4000) -> OptimizationResult:
    """Minimize c*d subject to g(c, d) <= 0.

    A coarse scan over c in (lo, 41*lo] brackets the minimum of c * d(c)
    on the binding curve; golden-section search then refines c to the
    tolerance.  A minimum at the scan's upper edge raises ValueError
    instead of being returned clipped to the edge.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    lo = c_domain_min(r)
    trace = []
    cs = [lo + (40.0 * lo) * (i + 1) / scan_points for i in range(scan_points)]
    vals = [_cd_objective(r, c) for c in cs]
    best = min(range(len(cs)), key=lambda i: vals[i])
    if not math.isfinite(vals[best]):
        raise ValueError(f"empty feasible region for r = {r}")
    if best == len(cs) - 1:
        raise ValueError(f"minimum of c*d for r = {r} is at the scan edge "
                         f"c = {cs[-1]}; the true minimum lies beyond it")
    a = cs[best - 1] if best > 0 else lo + 1e-12
    b = cs[best + 1]
    trace.append(("scan", cs[best], vals[best]))

    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1 = _cd_objective(r, x1)
    f2 = _cd_objective(r, x2)
    while b - a > tolerance:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = _cd_objective(r, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = _cd_objective(r, x2)
        trace.append(("golden", (a + b) / 2.0, min(f1, f2)))
    c_star = (a + b) / 2.0
    d_star = binding_degree(r, c_star)
    cd_star = c_star * d_star
    return OptimizationResult(
        r=r, c_star=c_star, d_star=d_star, cd_star=cd_star,
        g_at_star=g_rate(r, c_star, d_star),
        integer_degree_cost=math.ceil(d_star) * c_star,
        trace=trace,
    )


THREE_COLOR_REPORTED_C = 8.2919
THREE_COLOR_REPORTED_D = 82.1405      # inconsistent with the reported product
THREE_COLOR_CORRECTED_D = 92.1405
THREE_COLOR_REPORTED_BOUND = 764.1


def three_color_misprint_report() -> dict:
    """Evaluate the reported three-color constants both as printed and
    with the degree corrected by +10, flagging which pair is consistent."""
    c = THREE_COLOR_REPORTED_C
    reported = {
        "c": c,
        "d": THREE_COLOR_REPORTED_D,
        "cd": c * THREE_COLOR_REPORTED_D,
        "g": g_rate(3, c, THREE_COLOR_REPORTED_D),
    }
    corrected = {
        "c": c,
        "d": THREE_COLOR_CORRECTED_D,
        "cd": c * THREE_COLOR_CORRECTED_D,
        "g": g_rate(3, c, THREE_COLOR_CORRECTED_D),
    }
    return {
        "reported": reported,
        "corrected": corrected,
        "reported_bound": THREE_COLOR_REPORTED_BOUND,
        "reported_is_consistent": reported["g"] <= 0
        and abs(reported["cd"] - THREE_COLOR_REPORTED_BOUND) < 1.0,
        "corrected_is_consistent": corrected["g"] <= 1e-3
        and abs(corrected["cd"] - THREE_COLOR_REPORTED_BOUND) < 1.0,
    }


def g_surface(r: int, c_range, d_range, steps: int):
    """Grid rows (c, d, g, cd, valid) over the rectangle."""
    c_lo, c_hi = c_range
    d_lo, d_hi = d_range
    if steps < 2:
        raise ValueError("need at least 2 steps")
    rows = []
    for i in range(steps):
        c = c_lo + (c_hi - c_lo) * i / (steps - 1)
        for j in range(steps):
            d = d_lo + (d_hi - d_lo) * j / (steps - 1)
            try:
                g = g_rate(r, c, d)
                rows.append((c, d, g, c * d, True))
            except ValueError:
                rows.append((c, d, math.nan, c * d, False))
    return rows


def moment_convergence(r: int, c: float, d: float, ns) -> list:
    """Rows (n, exact, rate, |exact - rate| * n / ln n) for the oracle
    agreement table."""
    g = g_rate(r, c, d)
    out = []
    for n in ns:
        exact = exact_log_moment(r, c, d, n)
        out.append((n, exact, g, abs(exact - g) * n / math.log(n)))
    return out
