"""The dense matrix-vector product: the oracle of ``intlinalg.sparse_matvec``
and of the Smith-transform rows that ``deligne`` reads, and the product the
tests check their solves with."""


def matvec(mat, vec):
    return [sum(r * x for r, x in zip(row, vec)) for row in mat]
