"""The moment graph of Gr(m,n): an independent route to curve neighborhoods.

``qk verify --checks graph`` checks the engine's curve-neighborhood index and
distances against this graph.  Everything here is deliberately naive:
breadth-first search over fixed points, no memoized algebra.  The check
rests on this route being independent of the localization engine, so none
of this code may call into its restriction tables or index maps.

The moment-graph model uses degree-1 one-dimensional torus orbits only,
which is exact for type-A Grassmannians; revisit if other types are added.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from qkcomin.weyl import partition_to_subset, partitions_in_box


class MomentGraph(namedtuple("MomentGraph", "m n")):
    """Fixed points and degree-1 torus curves of a Grassmannian Gr(m,n)."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple:
        return _vertices(self.m, self.n)

    def neighbors(self, v: tuple) -> tuple:
        return _neighbors(self.m, self.n)[v]

    def up_set(self, lam: tuple) -> frozenset:
        """Fixed points of the opposite Schubert variety indexed by lam."""
        base = partition_to_subset(lam, self.m)
        return frozenset(
            v for v in self.vertices if all(x >= y for x, y in zip(v, base))
        )

    def down_set(self, lam: tuple) -> frozenset:
        """Fixed points of the B-stable Schubert variety indexed by lam."""
        base = partition_to_subset(lam, self.m)
        return frozenset(
            v for v in self.vertices if all(x <= y for x, y in zip(v, base))
        )

    def gamma(self, start: frozenset, d: int) -> frozenset:
        """Vertices reachable by curve chains of total degree at most d."""
        seen = set(start)
        frontier = set(start)
        for _ in range(d):
            nxt = set()
            for v in frontier:
                for u in self.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.add(u)
            frontier = nxt
        return frozenset(seen)

    def neighborhood_partition(self, lam: tuple, d: int) -> tuple:
        """Index of the curve neighborhood of the opposite variety of lam.

        Asserts that the reachable set is again the fixed-point set of an
        opposite Schubert variety and returns its partition.
        """
        reached = self.gamma(self.up_set(lam), d)
        candidates = [
            mu
            for mu in partitions_in_box(self.m, self.n - self.m)
            if self.up_set(mu) == reached
        ]
        if len(candidates) != 1:
            raise AssertionError(f"curve neighborhood of {lam} at degree {d} is not Schubert")
        return candidates[0]

    def dist(self, u: tuple, v: tuple) -> int:
        """Minimal total degree of a curve chain joining the two varieties."""
        targets = self.down_set(v)
        reached = self.up_set(u)
        d = 0
        while not (reached & targets):
            reached = self.gamma(reached, 1)
            d += 1
            if d > self.m * (self.n - self.m):
                raise AssertionError("distance search did not terminate")
        return d


@lru_cache(maxsize=None)
def _vertices(m: int, n: int) -> tuple:
    import itertools

    return tuple(itertools.combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def _neighbors(m: int, n: int) -> dict:
    out = {}
    for v in _vertices(m, n):
        sv = set(v)
        nbrs = []
        for x in v:
            for y in range(1, n + 1):
                if y not in sv:
                    nbrs.append(tuple(sorted(sv - {x} | {y})))
        out[v] = tuple(nbrs)
    return out
