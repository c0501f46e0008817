"""Small shared helpers."""
from __future__ import annotations


def backtrack(keys, choices, ok, cur):
    """Depth-first search: slot i sets ``cur[keys[i]]`` to each value of
    ``choices(i)`` in turn and goes deeper only where ``ok(i)`` holds. Yields
    ``cur`` itself at every complete assignment, in lexicographic order of
    the choice sequences (zero slots yield once). ``ok(i)`` and each yield see
    the initial entries plus slots 0..i; a slot's entry is removed when its
    values run out, so exhaustion leaves only the initial entries."""
    n = len(keys)
    if not n:
        yield cur
        return
    stack = [iter(choices(0))]
    while stack:
        i = len(stack) - 1
        key = keys[i]
        for v in stack[i]:
            cur[key] = v
            if ok(i):
                break
        else:
            stack.pop()
            cur.pop(key, None)
            continue
        if i + 1 == n:
            yield cur
        else:
            stack.append(iter(choices(i + 1)))


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        """Partition as {root: sorted members}; roots re-picked as the least member."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        out = {}
        for members in groups.values():
            members.sort()
            out[members[0]] = members
        return out
