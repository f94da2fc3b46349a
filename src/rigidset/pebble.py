"""The plane engine of rigidity's greedy scan: the (2,3)-pebble game, which
decides generic independence of plane edge sets by Laman's count with no
arithmetic. linalg.RowSpace is the other engine; rigidity._engine picks
between them by dimension.
"""

from __future__ import annotations

from collections import Counter

from .graphs import _as_int


class PebbleGame:
    """The (2,3)-pebble game with rigid components on vertices 1..n
    (Jacobs & Hendrickson 1997; Lee & Streinu 2008).

    Each vertex holds two pebbles. An accepted edge is covered by a pebble of
    one end and directed away from it, so a vertex's free pebbles are two
    minus its out-degree, and a free pebble is moved to a vertex by reversing
    a directed path from it to the pebble. An edge uv is independent of the
    accepted edges exactly when four pebbles can be gathered on u and v
    (Laman's count: no k vertices span more than 2k - 3 edges), and then one
    of them covers it. When the gathering fails, u and v keep three pebbles,
    and the vertices that cannot reach a free pebble elsewhere span 2k - 3
    accepted edges on their k vertices: that is the rigid component of u
    and v, and it is recorded. No k vertices ever span more than 2k - 3
    accepted edges, so a recorded component stays rigid, and a later
    candidate with both ends in one is rejected without a search.
    """

    def __init__(self, n_vertices: int):
        n_vertices = _as_int(n_vertices, "n_vertices", 1)
        self.rank = 0
        self._out: list[list[int]] = [[] for _ in range(n_vertices + 1)]
        self._in: list[set[int]] = [set() for _ in range(n_vertices + 1)]
        # the ids of the recorded components holding each vertex that lies in
        # one, and the vertices of each
        self._comps: dict[int, set[int]] = {}
        self._members: dict[int, set[int]] = {}
        self._next_id = 0

    def add(self, edge) -> bool:
        """Accept the edge if it is independent of those accepted so far."""
        u, v = edge
        comps = self._comps
        if u in comps and v in comps and not comps[u].isdisjoint(comps[v]):
            return False
        out = self._out
        for a, b in ((u, v), (v, u)):
            while out[a] and self._fetch(a, b):
                pass
        if out[u] or out[v]:
            self._record(u, v)
            return False
        out[u].append(v)
        self._in[v].add(u)
        self.rank += 1
        return True

    def _fetch(self, root: int, pinned: int) -> bool:
        """Move a free pebble to root along a directed path that avoids
        pinned; False if none is reachable."""
        out, ins = self._out, self._in
        parent = {root: root, pinned: pinned}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if len(out[y]) < 2:
                    while y != root:
                        x = parent[y]
                        out[x].remove(y)
                        ins[y].discard(x)
                        out[y].append(x)
                        ins[x].add(y)
                        y = x
                    return True
                stack.append(y)
        return False

    def _record(self, u: int, v: int) -> None:
        """Record the rigid component of u and v after a failed gathering,
        when they hold three pebbles: the vertices that reach no other free
        pebble. Every such vertex reaches u or v through vertices without a
        free pebble, since a closed set of k vertices with no free pebble
        would span 2k edges, so the search starts there and goes backwards."""
        out, ins = self._out, self._in
        # u and v hold three pebbles, so neither has two out-edges
        stuck: set[int] = set()
        stack = [u, v]
        while stack:
            for w in ins[stack.pop()]:
                if len(out[w]) == 2 and w not in stuck:
                    stuck.add(w)
                    stack.append(w)
        # any other vertex reaches a free pebble elsewhere, so a stuck vertex
        # pointing at one escapes, as does every vertex pointing at an escaped one
        ends = {u, v}
        stack = [w for w in stuck if any(y not in stuck and y not in ends for y in out[w])]
        escaped = set(stack)
        while stack:
            for w in ins[stack.pop()]:
                if w in stuck and w not in escaped:
                    escaped.add(w)
                    stack.append(w)
        component = (stuck - escaped) | ends
        # a recorded component sharing two vertices with this one lies in it
        comps, members = self._comps, self._members
        shared = Counter(c for w in component for c in comps.get(w, ()))
        for c, count in shared.items():
            if count > 1:
                for w in members.pop(c):
                    comps[w].discard(c)
        self._next_id += 1
        members[self._next_id] = component
        for w in component:
            comps.setdefault(w, set()).add(self._next_id)
