"""Census values computed without enumerating classes.

Independent of the ``interweave`` package: nothing here imports it.
The brute-force self-test borrows the benchmark's own word moves from
``inputs.py``.

* ``q_count`` (weavable n-by-n matrices) is the inclusion-exclusion sum
  over the sets of rows S and columns T forced constant,
  sum (-1)^(s+t) C(n,s) C(n,t) f(s,t), with f(s,t) the number of
  matrices whose s rows and t columns are constant.
* ``q_bar``, ``m_bar`` and ``r_bar`` come from twisted Burnside: for
  h = identity, mirror or quarter turn, the number of shift classes that
  h maps to themselves is the mean over shift pairs g of the weavable
  matrices fixed by h∘g (h normalises the shift group).  The fixed
  weavable matrices of one cell permutation are counted by
  inclusion-exclusion over forced-constant rows and columns, with
  union-find over the permutation's cycles.

``python3 perfbench/census.py`` checks both against brute force over
every matrix of orders 2 to 4 and prints the order-5 values.
"""

from __future__ import annotations

import sys
from math import comb

from inputs import mirror_words, shift_words


def q_count(n: int) -> int:
    """Number of n-by-n 0/1 matrices whose rows and columns all mix 0 and 1."""
    total = 0
    for s in range(n + 1):
        for t in range(n + 1):
            if s and t:
                # Every forced row meets every forced column: one shared colour.
                forced = 2
            else:
                forced = 2 ** (s + t)
            f = forced * 2 ** ((n - s) * (n - t))
            total += (-1) ** (s + t) * comb(n, s) * comb(n, t) * f
    return total


def _shift(n, k, l):
    """Source-cell map of "rows up k, then columns right l"."""
    return lambda i, j: ((i + k) % n, (j - l) % n)


def _identity(n):
    return lambda i, j: (i, j)


def _mirror(n):
    return lambda i, j: (i, n - 1 - j)


def _quarter_turn(n):
    return lambda i, j: (j, n - 1 - i)


def _fixed_weavable(n: int, source) -> int:
    """Weavable matrices A with A[c] == A[source(c)] for every cell c."""
    # Cycles of the cell permutation become the nodes.
    cycle = [-1] * (n * n)
    cycles = 0
    for start in range(n * n):
        if cycle[start] >= 0:
            continue
        c = start
        while cycle[c] < 0:
            cycle[c] = cycles
            i, j = source(*divmod(c, n))
            c = i * n + j
        cycles += 1
    row_nodes = [sorted({cycle[i * n + j] for j in range(n)}) for i in range(n)]
    col_nodes = [sorted({cycle[i * n + j] for i in range(n)}) for j in range(n)]

    total = 0
    for rows in range(1 << n):
        for cols in range(1 << n):
            parent = list(range(cycles))
            components = cycles

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for line, mask in ((row_nodes, rows), (col_nodes, cols)):
                for idx in range(n):
                    if mask >> idx & 1:
                        nodes = line[idx]
                        root = find(nodes[0])
                        for other in nodes[1:]:
                            r = find(other)
                            if r != root:
                                parent[r] = root
                                components -= 1
            sign = -1 if (bin(rows).count("1") + bin(cols).count("1")) & 1 else 1
            total += sign * (1 << components)
    return total


def _classes_fixed_by(n: int, h) -> int:
    """Shift classes of weavable matrices mapped to themselves by h."""
    hn = h(n)
    total = 0
    for k in range(n):
        for l in range(n):
            g = _shift(n, k, l)
            total += _fixed_weavable(n, lambda i, j: g(*hn(i, j)))
    count, remainder = divmod(total, n * n)
    if remainder:
        raise ArithmeticError(f"twisted Burnside sum not divisible at order {n}")
    return count


def census(n: int) -> dict:
    """q_count, q_bar, m_bar and r_bar of order n, by counting formulas."""
    return {
        "q_count": q_count(n),
        "q_bar": _classes_fixed_by(n, _identity),
        "m_bar": _classes_fixed_by(n, _mirror),
        "r_bar": _classes_fixed_by(n, _quarter_turn),
    }


def brute_force_census(n: int) -> dict:
    """The same four values by visiting every n-by-n matrix once."""
    full = (1 << n) - 1

    def quarter(rows):
        # entry (i, j) <- (j, n-1-i)
        return tuple(
            sum(((rows[j] >> i) & 1) << (n - 1 - j) for j in range(n))
            for i in range(n)
        )

    seen = set()
    out = {"q_count": 0, "q_bar": 0, "m_bar": 0, "r_bar": 0}
    for code in range(1 << (n * n)):
        rows = tuple((code >> (n * i)) & full for i in range(n))
        ored = anded = rows[0]
        for w in rows:
            ored |= w
            anded &= w
        if ored != full or anded != 0 or 0 in rows or full in rows:
            continue
        out["q_count"] += 1
        if rows in seen:
            continue
        orbit = {shift_words(rows, k, l) for k in range(n) for l in range(n)}
        seen |= orbit
        out["q_bar"] += 1
        out["m_bar"] += mirror_words(rows) in orbit
        out["r_bar"] += quarter(rows) in orbit
    return out


def self_test(orders=(2, 3, 4)) -> list[str]:
    """Orders at which the formulas and brute force disagree, described."""
    return [
        f"order {n}: formula {formula} != brute force {brute}"
        for n in orders
        if (formula := census(n)) != (brute := brute_force_census(n))
    ]


if __name__ == "__main__":
    failures = self_test()
    print(*failures or ["census formulas agree with brute force at orders 2-4"], sep="\n")
    print("order 5:", census(5))
    sys.exit(1 if failures else 0)
