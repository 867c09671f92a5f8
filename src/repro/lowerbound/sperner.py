"""Sperner-capacity machinery behind Lemma 11 and Theorem 9.

Theorem 9 (adapted from Calderbank et al.): any set ``S`` of strings in
``[0, q-1]^n`` that is *pairwise confusable-free* under the cycle relation —
for every pair there is a coordinate where ``V`` differs from both ``W`` and
``W + 1 (mod q)``, and symmetrically — has ``|S| <= rank(M)^n`` for every
matrix ``M`` with ones on the diagonal, zeros at distances 2..q-1 around the
cycle, and arbitrary values on the superdiagonal/corner.

Lemma 11 instantiates ``M`` with ``-1`` on the free entries, shows
``rank(M) = q - 1``, and concludes that EQUALITYCP's 1-entries need at least
``q^n / (q-1)^n`` monochromatic rectangles — hence
``R_0^pri(EQUALITYCP) >= n log(1 + 1/(q-1)) >= n / (q - 1)``.

This module builds ``M``, verifies its rank numerically and symbolically,
computes the lemma's bound, and — for tiny ``(n, q)`` — exhaustively
verifies Theorem 9 itself with a maximum-clique search over the
compatibility graph.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING, Iterable, List, Sequence, Set, Tuple

if TYPE_CHECKING:  # imported on first use: numpy adds ~13 MB resident
    import numpy as np


def sperner_matrix(q: int, free_value: float = -1.0) -> np.ndarray:
    """The ``q x q`` matrix of Theorem 9 with the paper's choice of entries.

    ``M[i][i] = 1``; ``M[i][j] = 0`` whenever ``(j - i) mod q`` is in
    ``{2, .., q-1}``; the remaining entries (``M[i][(i+1) mod q]``) are set
    to ``free_value`` (Lemma 11 uses ``-1``).
    """
    import numpy as np

    if q < 2:
        raise ValueError("q >= 2 required")
    m = np.zeros((q, q))
    for i in range(q):
        m[i][i] = 1.0
        m[i][(i + 1) % q] = free_value
    return m


def sperner_rank(q: int, free_value: float = -1.0) -> int:
    """Numerical rank of :func:`sperner_matrix` — Lemma 11 claims ``q - 1``
    when ``free_value = -1``."""
    import numpy as np

    return int(np.linalg.matrix_rank(sperner_matrix(q, free_value)))


def rank_is_q_minus_1(q: int) -> bool:
    """Lemma 11's two-step rank argument, checked exactly.

    (i) all ``q`` rows sum to the zero row (so rank <= q-1), and (ii) the
    first ``q - 1`` rows are linearly independent (checked via the rank of
    the integer submatrix computed exactly over the rationals with
    ``fractions``-free Gaussian elimination on integers).
    """
    import numpy as np

    m = sperner_matrix(q).astype(int)
    if not np.all(m.sum(axis=0) == 0):
        return False
    sub = [list(row) for row in m[: q - 1]]
    return _integer_rank(sub) == q - 1


def _integer_rank(rows: List[List[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < n_cols:
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                a, b = rows[rank][col], rows[r][col]
                rows[r] = [a * x - b * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def lemma11_bound(n: int, q: int) -> float:
    """Lemma 11's lower bound on ``R_0^pri(EQUALITYCP)``:
    ``n * log2(1 + 1/(q-1))`` (which is at least ``n / (q - 1)`` natural-log
    bits; the paper states the weaker ``n/(q-1)`` form)."""
    if q < 2:
        raise ValueError("q >= 2 required")
    return n * math.log2(1 + 1 / (q - 1))


def confusable(v: Sequence[int], w: Sequence[int], q: int) -> bool:
    """Whether ``(v, w)`` FAILS the Theorem 9 pair condition.

    ``v`` and ``w`` may share a monochromatic rectangle (are "confusable")
    unless there exist coordinates ``i`` and ``j`` with
    ``v_i != w_i, v_i != w_i + 1 (mod q)`` and ``w_j != v_j,
    w_j != v_j + 1 (mod q)``.
    """
    if tuple(v) == tuple(w):
        return False
    cond_i = any(
        vi != wi and vi != (wi + 1) % q for vi, wi in zip(v, w)
    )
    cond_j = any(
        wj != vj and wj != (vj + 1) % q for vj, wj in zip(v, w)
    )
    return not (cond_i and cond_j)


def max_sperner_family_size(n: int, q: int) -> int:
    """Exhaustive maximum size of a Theorem 9-compliant family ``S``.

    Branch-and-bound maximum clique over the compatibility graph on
    ``q^n`` strings.  Only feasible for tiny ``(n, q)`` — the tests and the
    Sperner bench use it to confirm ``|S| <= (q-1)^n``.
    """
    strings = list(product(range(q), repeat=n))
    count = len(strings)
    compatible = [
        set(
            j
            for j in range(count)
            if j != i and not confusable(strings[i], strings[j], q)
        )
        for i in range(count)
    ]
    best = [0]

    def extend(clique_size: int, candidates: Set[int]) -> None:
        if clique_size + len(candidates) <= best[0]:
            return
        if not candidates:
            best[0] = max(best[0], clique_size)
            return
        pool = sorted(candidates)
        while pool:
            if clique_size + len(pool) <= best[0]:
                return
            v = pool.pop()
            extend(clique_size + 1, set(pool) & compatible[v])

    extend(0, set(range(count)))
    return best[0]


def theorem9_bound(n: int, q: int) -> int:
    """The bound Theorem 9 + Lemma 11 give on the family size: ``(q-1)^n``."""
    return (q - 1) ** n
