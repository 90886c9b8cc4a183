"""Self-tests of the benchmark's closed forms and independent checks.

Run with `python3 fpbench/test_oracle.py` (or pytest on this file).  The
recorded strings below are fpowers' printed (monic) Bernstein-Sato
generators at the commit that introduced the benchmark; the expanded closed
forms must equal them.
"""

from fractions import Fraction

import oracle as O

S1 = ["s1"]


def univariate(forms):
    return O.expand(forms, 1)


def test_brieskorn_pham_x2_y3():
    b = univariate(O.brieskorn_pham([2, 3]))
    assert b == O.parse("s1^3 + 3*s1^2 + 107/36*s1 + 35/36", S1)


def test_brieskorn_pham_repeated_alpha_keeps_s_plus_one_twice():
    # x^2 + y^4: alpha in {3/4, 1, 5/4}, so (s+1)^2 appears
    forms = O.brieskorn_pham([2, 4])
    assert len(forms) == 4
    assert sum(1 for f in forms if f[1] == 1) == 2


def test_brieskorn_pham_recorded_outputs():
    recorded = {
        (2, 5): "s1^5 + 5*s1^4 + 99/10*s1^3 + 97/10*s1^2 + 47009/10000*s1"
                " + 9009/10000",
        (3, 4): "s1^7 + 7*s1^6 + 499/24*s1^5 + 815/24*s1^4"
                " + 227563/6912*s1^3 + 43627/2304*s1^2"
                " + 4461779/746496*s1 + 595595/746496",
        (2, 2, 2): "s1^2 + 5/2*s1 + 3/2",
        (2, 2, 3): "s1^3 + 4*s1^2 + 47/9*s1 + 20/9",
    }
    for exps, text in recorded.items():
        assert univariate(O.brieskorn_pham(list(exps))) == O.parse(text, S1), exps


def test_generic_lines_match_recorded_and_three_lines_cubic():
    three = univariate(O.generic_lines(3))
    assert three == O.parse("s1^4 + 4*s1^3 + 53/9*s1^2 + 34/9*s1 + 8/9", S1)
    # x^3 + y^3 is three lines over C
    assert three == univariate(O.brieskorn_pham([3, 3]))
    four = univariate(O.generic_lines(4))
    assert four == O.parse("s1^6 + 6*s1^5 + 235/16*s1^4 + 75/4*s1^3"
                           " + 841/64*s1^2 + 153/32*s1 + 45/64", S1)


def test_maisonobe_three_lines_matches_recorded():
    names = ["s1", "s2", "s3"]
    B = O.expand(O.generic_lines_factored(3), 3)
    recorded = (
        "s1^4*s2*s3 + 3*s1^3*s2^2*s3 + 3*s1^2*s2^3*s3 + s1*s2^4*s3"
        " + 3*s1^3*s2*s3^2 + 6*s1^2*s2^2*s3^2 + 3*s1*s2^3*s3^2"
        " + 3*s1^2*s2*s3^3 + 3*s1*s2^2*s3^3 + s1*s2*s3^4 + s1^4*s2"
        " + 3*s1^3*s2^2 + 3*s1^2*s2^3 + s1*s2^4 + s1^4*s3 + 16*s1^3*s2*s3"
        " + 30*s1^2*s2^2*s3 + 16*s1*s2^3*s3 + s2^4*s3 + 3*s1^3*s3^2"
        " + 30*s1^2*s2*s3^2 + 30*s1*s2^2*s3^2 + 3*s2^3*s3^2 + 3*s1^2*s3^3"
        " + 16*s1*s2*s3^3 + 3*s2^2*s3^3 + s1*s3^4 + s2*s3^4 + s1^4"
        " + 13*s1^3*s2 + 24*s1^2*s2^2 + 13*s1*s2^3 + s2^4 + 13*s1^3*s3"
        " + 83*s1^2*s2*s3 + 83*s1*s2^2*s3 + 13*s2^3*s3 + 24*s1^2*s3^2"
        " + 83*s1*s2*s3^2 + 24*s2^2*s3^2 + 13*s1*s3^3 + 13*s2*s3^3 + s3^4"
        " + 10*s1^3 + 56*s1^2*s2 + 56*s1*s2^2 + 10*s2^3 + 56*s1^2*s3"
        " + 162*s1*s2*s3 + 56*s2^2*s3 + 56*s1*s3^2 + 56*s2*s3^2 + 10*s3^3"
        " + 35*s1^2 + 94*s1*s2 + 35*s2^2 + 94*s1*s3 + 94*s2*s3 + 35*s3^2"
        " + 50*s1 + 50*s2 + 50*s3 + 24")
    assert B == O.parse(recorded, names)


def test_x_2x2yz_pair_matches_recorded():
    B = O.expand(O.x_2x2yz_pair(), 2)
    recorded = ("s1^4*s2 + 6*s1^3*s2^2 + 12*s1^2*s2^3 + 8*s1*s2^4 + s1^4"
                " + 19*s1^3*s2 + 66*s1^2*s2^2 + 68*s1*s2^3 + 8*s2^4 + 13*s1^3"
                " + 113*s1^2*s2 + 202*s1*s2^2 + 56*s2^3 + 59*s1^2 + 249*s1*s2"
                " + 142*s2^2 + 107*s1 + 154*s2 + 60")
    assert B == O.parse(recorded, ["s1", "s2"])


def test_disjoint_product_four_factors():
    # (x, y, z, x+y) = (x, y, x+y) on s1, s2, s4 times (z) on s3
    forms = O.disjoint_product([(O.generic_lines_factored(3), [0, 1, 3]),
                                (O.generic_lines(1), [2])], 4)
    B = O.expand(forms, 4)
    assert B[(0, 0, 0, 0)] == 24
    assert B[(4, 1, 1, 1)] == 1
    assert max(sum(e) for e in B) == 7
    # (x^2 + y^3, z), as printed by fpowers
    forms = O.disjoint_product([(O.brieskorn_pham([2, 3]), [0]),
                                (O.generic_lines(1), [1])], 2)
    assert O.expand(forms, 2) == O.parse(
        "s1^3*s2 + s1^3 + 3*s1^2*s2 + 3*s1^2 + 107/36*s1*s2 + 107/36*s1"
        " + 35/36*s2 + 35/36", ["s1", "s2"])


def test_single_factor_b_divides_diagonal():
    for single, multi, r in ((O.generic_lines(3), O.generic_lines_factored(3), 3),
                             (O.x_2x2yz_single(), O.x_2x2yz_pair(), 2)):
        b = univariate(single)
        diag = O.diagonal(O.expand(multi, r))
        assert O.univariate_divides(b, diag)
    assert not O.univariate_divides(univariate(O.generic_lines(4)),
                                    univariate(O.generic_lines(3)))


def test_parse_render_round_trip():
    names = ["x", "y", "z"]
    p = O.parse("-3/2*x^2*y + y*z - 7", names)
    assert p == {(2, 1, 0): Fraction(-3, 2), (0, 1, 1): Fraction(1),
                 (0, 0, 0): Fraction(-7)}
    assert O.parse(O.render(p, names), names) == p
    assert O.parse("0", names) == {}


def test_apply_operator_direct_differentiation():
    names = ["x", "y"]
    ops = ["x", "y", "dx", "dy"]
    p = O.parse("x^3*y + 2*y^2", names)
    euler = O.parse("x*dx + y*dy", ops)
    assert O.apply_operator(euler, 2, p) == O.parse("4*x^3*y + 4*y^2", names)
    # dx*x in normal order is x*dx + 1
    assert O.apply_operator(O.parse("x*dx + 1", ops), 2, p) == \
        O.parse("4*x^3*y + 2*y^2", names)


def test_phi_image_kills_known_kernel_elements():
    # F = (x): y1 -> s1, s1 -> x*s1, so x*y1 - s1 is in the kernel
    x = O.parse("x", ["x"])
    g = O.parse("x*y1 - s1", ["x", "y1", "s1"])
    assert O.phi_image(g, [x], 1) == {}
    assert O.phi_image(O.parse("y1", ["x", "y1", "s1"]), [x], 1) != {}
    # F = (x, y): y1 -> s1*y, y2 -> s2*x (f/f_k times d f_k)
    vc = ["x", "y"]
    fac = [O.parse("x", vc), O.parse("y", vc)]
    g = O.parse("x*y1 - s1", ["x", "y", "y1", "y2", "s1", "s2"])
    assert O.phi_image(g, fac, 2) == {}


def test_substitute_onto_hyperplane():
    names = ["s1", "s2", "s3"]
    B = O.expand(O.generic_lines_factored(3), 3)
    on_plane = O.parse("-s1 - s2 - 2", names)          # s1 + s2 + s3 + 2 = 0
    assert O.substitute(B, 2, on_plane) == {}
    assert O.substitute(B, 2, O.parse("-s1 - s2 - 7", names)) != {}
    assert O.substitute(O.parse("s1*s3 + s2", names), 2, {}) == \
        O.parse("s2", names)


def test_evaluate_on_hyperplanes():
    forms = O.x_2x2yz_pair()
    B = O.expand(forms, 2)
    assert O.evaluate(B, [Fraction(-1), Fraction(5)]) == 0
    assert O.evaluate(B, [Fraction(1), Fraction(-2)]) == 0   # s1 + 2 s2 + 3
    assert O.evaluate(B, [Fraction(1), Fraction(1)]) != 0


if __name__ == "__main__":
    count = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            count += 1
    print(f"{count} oracle self-tests passed")
