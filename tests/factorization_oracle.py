"""The oracle that the factorization tests check horizontal_factorization
against: the exact product of a factorization's dilated generators."""


def evaluate_factorization(group, fact) -> tuple:
    """The exact product, in group's graded law, of the dilated generators
    delta_a(s_idx) of fact's terms (idx, a), each float a read exactly:
    s_idx is the idx-th degree-one coordinate direction for idx < d, and
    the inverse of s_{idx-d} above."""
    d, m = group.abelian_dim, group.dim
    acc = group.law_graded.identity()
    for idx, a in fact.terms:
        j, c = (idx, a) if idx < d else (idx - d, -a)
        acc = group.law_graded.mul(acc, tuple(c if k == j else 0 for k in range(m)))
    return acc
