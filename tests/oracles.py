"""Reference implementations that the tests check the library against.

Each is the plain, slow way to do a job the library does faster. Orbits and
exact interval images step with ref_eval, which reads only a map's
breakpoints and values; mixing seeds are laid out in Fraction arithmetic and
their traces run to the cap; cycles are listed one by one by depth-first
search, and counted from every power of the adjacency matrix in turn
(census_by_trace_formula); fixed points of f^n are counted a second way, as closed paths in
Hofbauer's diagram of intervals (interval_diagram). Only a floating mixing
trace evaluates through PLMap.eval, for its clamp of round-off at the
domain's ends.

The floating branch pass is the exception: its results depend on every
rounding, so its reference is the plain loop it was tuned from, kept here
statement for statement (float_refine, float_fixed_points and the per-point
float_return_time walk), which the engine must match bit for bit; so must
PLMap.eval match eval_by_index. The exact sign-change scan of Fix(f^n) has
its two-pass form kept here too, exact_fixed_points, which builds the values
of f^n(x) - x at every end first and then walks the ends again, and so has
stefan_map's own check of its anchors, which PLMap's validation replaced
(stefan_map_by_dict).

An exact map is held as ints from the moment its text is parsed; the Fraction
formulas that lattice replaced are kept here as its second method:
fraction_from_str parses a scalar, fraction_slopes and fraction_lattice give
a map's slopes and its engine's integers, and slope_at_least_minimal is the
Horner check of a slope against the minimal one. The bracket of the minimal
slope, now decided by exact integer signs, keeps its float-Horner bisection
here (float_horner_bracket), which it must match bit for bit for p <= 105.
Polynomials are evaluated only here, by Horner's rule (horner), and the slope
polynomial's coefficients are written out here again (slope_poly_value), so
no oracle reads the library's minimal-slope code.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from intervalmaps import BranchBudgetError, Interval, OrbitNotClosedError, PLMap
from intervalmaps.kernel import FLOAT_TOL, as_scalar
from intervalmaps.plmap import MERGE_TOL, _IdentityBranch


def ref_eval(m, x):
    """f(x) by linear interpolation between the breakpoints around x."""
    bps, vals = m.breakpoints, m.values
    j = min(bisect_right(bps, x) - 1, len(bps) - 2)
    return vals[j] + (x - bps[j]) * (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])


def ref_image(m, lo, hi, evaluate):
    """The extrema of evaluate at both ends and the breakpoints inside."""
    ys = [evaluate(x) for x in (lo, hi, *(b for b in m.breakpoints if lo < b < hi))]
    return min(ys), max(ys)


def iterate(m, x, n):
    """f^n(x), n steps of ref_eval."""
    for _ in range(n):
        x = ref_eval(m, x)
    return x


def mixing_trace(m, seed, cap):
    """Iterate images of seed until one is the whole domain.

    Returns (the first n with f^n(seed) = domain, or None if the cap comes
    first; the images f^1(seed), f^2(seed), ...). Rational ends on a rational
    map step with ref_eval and must equal the domain's; any other trace steps
    with PLMap.eval, which clamps float round-off back into the domain, and
    covers within FLOAT_TOL at each end.
    """
    lo, hi = m.breakpoints[0], m.breakpoints[-1]
    if all(type(x) is Fraction for x in (*m.breakpoints, *m.values, seed.lo, seed.hi)):
        evaluate = partial(ref_eval, m)

        def covers(iv):
            return iv.lo == lo and iv.hi == hi
    else:
        evaluate = m.eval

        def covers(iv):
            return iv.lo <= lo + FLOAT_TOL and iv.hi >= hi - FLOAT_TOL

    cur, images = seed, []
    while not covers(cur):
        if len(images) == cap:
            return None, images
        cur = Interval(*ref_image(m, cur.lo, cur.hi, evaluate))
        images.append(cur)
    return len(images), images


def mixing_seeds(m, width, grid):
    """The seeds of verify_mixing in Fraction arithmetic: intervals of the
    given width centred at (2i+1)/(2*grid) across the domain, clipped to it."""
    lo, hi = m.breakpoints[0], m.breakpoints[-1]
    span = hi - lo
    seeds = []
    for i in range(grid):
        center = lo + span * Fraction(2 * i + 1, 2 * grid)
        seeds.append(Interval(max(lo, center - width / 2), min(hi, center + width / 2)))
    return tuple(seeds)


def interval_diagram(m, budget=1000):
    """Hofbauer's Markov diagram of m over its breakpoint partition, as the
    arrow lists of its nodes in the order they are found.

    The nodes are open intervals, the root (node 0) being the open domain.
    Every interior breakpoint is a cut, so f is monotone on each piece of a
    node between the cuts inside it; the node has one arrow per piece, to
    the node of that piece's image, so equal images count with multiplicity.
    The diagram is built until no new node appears, and one past budget
    nodes raises RuntimeError."""
    bps = m.breakpoints
    cuts = bps[1:-1]
    nodes = [(bps[0], bps[-1])]
    index = {nodes[0]: 0}
    arrows = []
    for u, v in nodes:  # runs on over the nodes appended below
        ends = [u, *(c for c in cuts if u < c < v), v]
        row = []
        for a, b in zip(ends, ends[1:]):
            image = tuple(sorted((ref_eval(m, a), ref_eval(m, b))))
            if image not in index:
                if len(nodes) == budget:
                    raise RuntimeError(f"the diagram has more than {budget} nodes")
                index[image] = len(nodes)
                nodes.append(image)
            row.append(index[image])
        arrows.append(row)
    return arrows


def diagram_fix_counts(m, n_max, budget=1000):
    """tr(A^n) for n = 1..n_max, where A counts the arrows between nodes of
    interval_diagram(m, budget): the closed paths of length n, which the
    fixed points of f^n match up to orbits through the cuts."""
    arrows = interval_diagram(m, budget)
    size = len(arrows)
    power = [[int(i == j) for j in range(size)] for i in range(size)]  # A^0
    traces = []
    for _ in range(n_max):
        nxt = [[0] * size for _ in range(size)]
        for i, row in enumerate(power):
            for k, count in enumerate(row):
                if count:
                    for j in arrows[k]:
                        nxt[i][j] += count
        power = nxt
        traces.append(sum(power[i][i] for i in range(size)))
    return traces


def census_by_trace_formula(graph, max_len):
    """Primitive cycle counts from the powers of the adjacency matrix, each
    A^n formed as the dense product A^(n-1) times A and read by its diagonal,
    where primitive_cycle_census steps rows over successor lists. An arrow
    listed twice counts twice here, once there. Closed walks of length n
    are tr(A^n); Moebius inversion over the divisors removes repetitions,
    and dividing by n collapses rotations.
    """
    labels = graph.labels()
    index = {name: i for i, name in enumerate(labels)}
    size = len(labels)
    mat = [[0] * size for _ in range(size)]
    for a, b, _ in graph.edges:
        mat[index[a]][index[b]] += 1

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]

    powers = {1: mat}
    for n in range(2, max_len + 1):
        powers[n] = matmul(powers[n - 1], mat)

    def trace(n):
        return sum(powers[n][i][i] for i in range(size))

    def moebius(n):
        result, m = 1, n
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    out = {}
    for n in range(1, max_len + 1):
        total = sum(
            moebius(n // d) * trace(d) for d in range(1, n + 1) if n % d == 0
        )
        assert total % n == 0
        out[n] = total // n
    return out


def primitive_cycles(graph, max_len):
    """All primitive cycles of length <= max_len, each as its canonical
    (lexicographically minimal) rotation. Full and partial arrows both count."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    labels = graph.labels()
    index = {name: i for i, name in enumerate(labels)}
    succ = [[] for _ in labels]
    for a, b, _kind in graph.edges:
        succ[index[a]].append(index[b])
    for lst in succ:
        lst.sort()

    out = []
    path = []

    def extend(start, length):
        if len(path) == length:
            if start in succ[path[-1]]:
                seq = tuple(path)
                if _is_canonical(seq) and _is_primitive(seq):
                    named = tuple(labels[i] for i in seq)
                    out.append(
                        min(named[i:] + named[:i] for i in range(len(named)))
                    )
            return
        for nxt in succ[path[-1]]:
            if nxt >= start:  # the canonical rotation starts at the least vertex
                path.append(nxt)
                extend(start, length)
                path.pop()

    for length in range(1, max_len + 1):
        for start in range(len(labels)):
            path[:] = [start]
            extend(start, length)
    return out


def _is_canonical(seq):
    n = len(seq)
    return all(seq <= seq[i:] + seq[:i] for i in range(1, n))


def _is_primitive(seq):
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return False
    return True


# ---------------------------------------------------------------- exact scan


def exact_fixed_points(e, it):
    """Fix(f^n) of the exact iterate it on the engine e's lattice, in two
    passes: (f^n(x) - x) * D*sx*sy at every end into one list, then each pair
    of neighbouring ends. A zero end is a fixed point, a sign change between
    two ends the zero of the branch's line between them, as a reduced
    (num, den) pair; a branch zero at both ends is an _IdentityBranch."""
    sx, sy = e.L ** (it.n - 1), e.R ** (it.n - 1)
    X = e.D * sx
    xs = it.xs
    g = [y * sx - x * sy for x, y in zip(xs, it.ys)]
    out = []
    if g[0] == 0:
        d = math.gcd(xs[0], X)
        out.append((xs[0] // d, X // d))
    for P, Q, g0, g1 in zip(xs, xs[1:], g, g[1:]):
        if g1 == 0:
            if g0 == 0:
                return _IdentityBranch(Fraction(P, X), Fraction(Q, X))
            num, den = Q, X
        elif g0 == 0 or (g0 < 0) == (g1 < 0):
            continue
        else:
            num, den = P * (g0 - g1) + (Q - P) * g0, X * (g0 - g1)
            if den < 0:
                num, den = -num, -den
        d = math.gcd(num, den)
        out.append((num // d, den // d))
    return out


# ---------------------------------------------------------------- floating pass


class FloatIterate(NamedTuple):
    """The branches of f^n: x -> slope[k]*x + offset[k] on [lo[k], hi[k]]."""

    n: int
    lo: list
    hi: list
    slope: list
    offset: list


def float_first(m):
    """f^1 as the floating pass starts it."""
    bps, vals, slopes = m.breakpoints, m.values, m.slopes
    offsets = [vals[j] - slopes[j] * bps[j] for j in range(len(slopes))]
    return FloatIterate(1, list(bps[:-1]), list(bps[1:]), list(slopes), offsets)


def float_refine(m, it, cap):
    """f^(n+1) from f^n: cut each branch at the preimages of breakpoints
    interior to its image, then compose with the piece of f each fragment's
    midpoint lands in."""
    bps, vals, slopes = m.breakpoints, m.values, m.slopes
    top = len(bps) - 2  # the last piece index
    lo: list = []
    hi: list = []
    slope: list = []
    offset: list = []
    for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
        c, d = s * a + o, s * b + o
        if not c <= d:
            c, d = d, c
        first, last = bisect_right(bps, c), bisect_left(bps, d)
        if first >= last:
            cuts = (a, b)
        else:
            idx = range(first, last)
            if s < 0:
                idx = reversed(idx)
            cuts = [a]
            cuts.extend((bps[i] - o) / s for i in idx)
            cuts.append(b)
        u = cuts[0]
        for v in cuts[1:]:
            if not u < v:  # float collapse; nothing to keep
                u = v
                continue
            j = bisect_right(bps, s * ((u + v) / 2) + o) - 1
            if j < 0:
                j = 0
            elif j > top:
                j = top
            t = slopes[j]
            lo.append(u)
            hi.append(v)
            slope.append(t * s)
            offset.append(t * o + vals[j] - t * bps[j])
            u = v
        if len(lo) > cap:
            raise BranchBudgetError(cap, it.n)
    return FloatIterate(it.n + 1, lo, hi, slope, offset)


def float_fixed_points(it):
    """Fix(f^n) sorted, each branch solved from its affine formula and
    duplicates within MERGE_TOL merged, or the first branch on which f^n is
    the identity as an _IdentityBranch."""
    raw = []
    for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
        if s == 1:
            if o == 0:
                return _IdentityBranch(a, b)
            continue  # translation: no fixed point on this branch
        x = o / (1 - s)
        if a - MERGE_TOL <= x <= b + MERGE_TOL:
            raw.append(x)
    raw.sort()
    merged: list = []
    for x in raw:
        if merged and abs(x - merged[-1]) <= MERGE_TOL:
            continue
        merged.append(x)
    return merged


def eval_by_index(m, x):
    """f(x) as PLMap.eval computes it, from the piece index by bisection over
    all breakpoints, with the right end and breakpoints as separate cases."""
    x = m._clamp(as_scalar(x))
    bps, vals = m.breakpoints, m.values
    j = bisect_right(bps, x) - 1
    if j >= len(bps) - 1:
        return vals[-1]
    if x == bps[j]:
        return vals[j]
    return vals[j] + (x - bps[j]) * m.slopes[j]


def float_return_time(m, x, n):
    """The least j <= n with f^j(x) within the map's tol of x, or None: eval
    inlined, clamping only a point outside the domain."""
    tol = m.tol
    bps, vals, slopes = m.breakpoints, m.values, m.slopes
    lo, hi, last = bps[0], bps[-1], len(bps) - 1
    y = x
    for j in range(1, n + 1):
        if not lo <= y <= hi:
            y = m._clamp(y)
        k = bisect_right(bps, y) - 1
        if k >= last:
            y = vals[-1]
        elif y == bps[k]:
            y = vals[k]
        else:
            y = vals[k] + (y - bps[k]) * slopes[k]
        if abs(y - x) <= tol:
            return j
    return None


def float_periodic_points(m, points, q):
    """Each of the fixed points of f^q with its return time; the first that
    does not return raises OrbitNotClosedError."""
    out = []
    for x in points:
        j = float_return_time(m, x, q)
        if j is None:
            raise OrbitNotClosedError(f"point {x!r} failed to close up after {q} steps")
        out.append((x, j))
    return out


def left_to_right_orbit_and_t(p, s):
    """orbit_and_t's formulas with every sum added left to right from 0."""

    def total(terms):
        acc = 0
        for term in terms:
            acc = acc + term
        return acc

    one = 1.0 if type(s) is float else Fraction(1)
    xs = [one] * p
    for i in range(p - 3):
        xs[i] = ((-1) ** i) * total((-s) ** j for j in range(p - i - 2)) / s ** (p - i - 2)
    xs[p - 3] = one / s
    xs[p - 2] = one - one
    t = (s ** (p - 1) - total((-s) ** j for j in range(p - 2))) / s ** (p - 1)
    return tuple(xs), t


def stefan_map_by_dict(p):
    """stefan_map as first written: the anchors collapse through a dict that
    refuses two values at one point, and become Fractions one by one."""
    n = (p - 1) // 2
    anchors = [(0, 2 * n), (n - 1, n + 1), (n, n - 1), (2 * n - 1, 0), (2 * n, n)]
    seen = {}
    for x, v in anchors:
        if x in seen and seen[x] != v:
            raise RuntimeError("internal: inconsistent anchor collapse")
        seen[x] = v
    xs = sorted(seen)
    return PLMap(tuple(Fraction(x) for x in xs), tuple(Fraction(seen[x]) for x in xs))


# ---------------------------------------------------------------- Fraction formulas


def fraction_from_str(text):
    """A rational scalar's text as Fraction(int(num), int(den))."""
    num, _, den = text.strip().partition("/")
    return Fraction(int(num), int(den))


def horner(coeffs, x):
    """The polynomial with coeffs[i] the coefficient of x**i, at x by Horner's
    rule: exact for rational x, in binary64 for float x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def slope_poly_value(p, x):
    """X^p - 2 X^(p-2) - 1 at x, by horner."""
    return horner([-1] + [0] * (p - 3) + [-2, 0, 1], x)


def slope_at_least_minimal(p, s):
    """s > 0 and the slope polynomial X^p - 2 X^(p-2) - 1 is >= 0 at s, by
    Horner's rule in Fractions."""
    return s > 0 and slope_poly_value(p, s) >= 0


def float_horner_bracket(p):
    """minimal_slope_bracket as first written: bisection from [sqrt(2), 2]
    deciding each float midpoint by the sign of the slope polynomial's
    binary64 Horner value. Its low end lies above lambda_p from p = 107 on,
    where Horner's values near the root are rounding noise."""
    lo, hi = math.sqrt(2.0), 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v = slope_poly_value(p, mid)
        if v == 0.0:
            return (mid, mid)
        if v < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def fraction_slopes(m):
    """Each piece's slope as a quotient of Fraction differences."""
    bps, vals = m.breakpoints, m.values
    return tuple((vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j]) for j in range(len(bps) - 1))


def fraction_lattice(m):
    """(D, B, V, L, R, A) of the exact engine, from Fractions: D the lcm of
    the denominators of the breakpoints and values, B and V those over D, L
    and R the lcms of the slopes' |numerators| and denominators, and A the
    slopes over R."""
    bps, vals, slopes = m.breakpoints, m.values, fraction_slopes(m)
    D = math.lcm(*(x.denominator for x in bps + vals))
    R = math.lcm(*(s.denominator for s in slopes))
    return (
        D,
        [b * D for b in bps],
        [v * D for v in vals],
        math.lcm(*(abs(s.numerator) for s in slopes)),
        R,
        [s * R for s in slopes],
    )
