"""Reference implementations that the tests check the library against.

Each is the plain, slow way to do a job the library does faster. Orbits and
exact interval images step with ref_eval, which reads only a map's
breakpoints and values; mixing seeds are laid out in Fraction arithmetic and
their traces run to the cap; cycles are listed one by one by depth-first
search. Only a floating mixing trace
evaluates through PLMap.eval, for its clamp of round-off at the domain's ends.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import partial

from intervalmaps import Interval
from intervalmaps.kernel import FLOAT_TOL


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
