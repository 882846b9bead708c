"""Local rewrites of rotation systems.

A Surgeon holds a mutable copy of a graph's rotation table, addressed by
dart *tokens*.  Existing darts keep their ids as tokens; fresh tokens are
allocated in aligned pairs so that the reverse of any token is ``t ^ 1``.
After editing, ``freeze`` renumbers everything densely and returns the new
graph together with the token -> new dart translation.
"""

from __future__ import annotations

from .maps import PlaneGraph


class Surgeon:
    def __init__(self, g: PlaneGraph):
        self.rot = [list(g.darts_at(v)) for v in range(g.n)]
        self._fresh = 2 * g.ne

    def fresh_pair(self) -> tuple[int, int]:
        t = self._fresh
        self._fresh += 2
        return t, t + 1

    def new_vertex(self, tokens: list[int]) -> int:
        self.rot.append(list(tokens))
        return len(self.rot) - 1

    def insert_after(self, v: int, anchor: int, tokens: list[int]) -> None:
        i = self.rot[v].index(anchor)
        self.rot[v][i + 1:i + 1] = tokens

    def insert_before(self, v: int, anchor: int, tokens: list[int]) -> None:
        i = self.rot[v].index(anchor)
        self.rot[v][i:i] = tokens

    def freeze(self, outer_token: int) -> tuple[PlaneGraph, dict[int, int]]:
        trans: dict[int, int] = {}
        k = 0
        for row in self.rot:
            for t in row:
                if t not in trans:
                    trans[t] = 2 * k
                    trans[t ^ 1] = 2 * k + 1
                    k += 1
        g = PlaneGraph([[trans[t] for t in row] for row in self.rot],
                       trans[outer_token])
        return g, trans
