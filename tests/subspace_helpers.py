"""Brute-force enumeration shared by the tests: every k-subspace of a
small space, the oracle the enumerators are checked against."""

from itertools import combinations

import numpy as np


def all_subspaces_of_dim(fv, dim: int, k: int, block: int = 1 << 14):
    """All k-subspaces of fv^dim as RREF matrices, yielded in blocks
    (cell-by-cell over pivot-column patterns).  Small q only."""
    elems = fv.elements()
    q = len(elems)
    for pivots in combinations(range(dim), k):
        free = []
        for i, pc in enumerate(pivots):
            for col in range(pc + 1, dim):
                if col not in pivots:
                    free.append((i, col))
        nfree = len(free)
        total = q**nfree
        for start in range(0, total, block):
            stop = min(total, start + block)
            idx = np.arange(start, stop, dtype=np.int64)
            mats = np.zeros((stop - start, k, dim), dtype=np.int64)
            for i, pc in enumerate(pivots):
                mats[:, i, pc] = 1
            for t, (i, col) in enumerate(free):
                mats[:, i, col] = elems[(idx // q ** (nfree - 1 - t)) % q]
            yield mats
