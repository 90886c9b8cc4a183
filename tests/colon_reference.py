"""The colon ideals that gb.is_nonzerodivisor replaced, kept for the tests
as a reference.

Every colon-stability step (the regular sequences of the symbol checks,
s-regularity and the HOM_u appendix check) computed (I : g) as the first
coordinates of syz(g, f_1, ..., f_k) and then compared it with I by two
containments; saturate iterated that colon to stability.
"""

from fpowers.gb import IdealHandle, syzygies


def ideal_colon(I, g):
    """(I : g) = {p : p*g in I}, g nonzero: the first coordinates of
    syz(g, f_1, ..., f_k), f_i the generators of I (Greuel and Pfister, A
    Singular Introduction to Commutative Algebra, ch. 1)."""
    if g.is_zero():
        raise ValueError("colon by zero")
    syz = syzygies([(g,)] + [(f,) for f in I.gens])
    return IdealHandle([s[0] for s in syz], ctx=I.ctx)


def saturate(I, g):
    """(I : g^inf) by iterating colon to stability; returns (ideal, steps)."""
    steps = 0
    cur = I
    while True:
        nxt = ideal_colon(cur, g)
        if nxt.equals(cur):
            return cur, steps
        cur = nxt
        steps += 1


def colon_stable(I, g):
    """(I : g) = I, the colon-stability step as it was decided: the colon
    inside I (it always contains I)."""
    return I.contains_ideal(ideal_colon(I, g))
