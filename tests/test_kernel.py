"""The integer division kernel (ring.reduce_in_place on integer images, one
rational scale per division, integer S-elements) against the division over
Fraction it replaced (tests/kernel_reference.py): the same remainders term
for term and in the same term order, the same quotients, step logs, bases,
basis logs and ResourceLimit messages; and a guard that the kernel's
products see only integers.  The kernel's sorted work queue and the left
multiples each computation keeps are checked against the rescanning
integer kernel and the per-call multiples they replaced, on random
divisions and on the B_F elimination bases, with a count of the work they
save."""

import random
from copy import copy
from fractions import Fraction
from math import gcd

import pytest

import engine_reference
import kernel_reference as ref
import weyl_reference as wref
from fpowers import gb, ring, weyl
from fpowers.bside import bs_ideal, elimination_basis, elimination_order
from fpowers.gb import Limits, ResourceLimit
from fpowers.logder import FactorizationSpec
from fpowers.ring import (
    Divisors, MonomialOrder, Poly, VarContext, divide_exact, integer_image,
    parse_poly,
)
from fpowers.weyl import WeylContext, WeylOp, parse_weyl

XYZ = VarContext([("X", ["x", "y", "z"])])
BLOCK = VarContext([("W", ["a", "b"]), ("X", ["x", "y", "z"])])
WS = WeylContext(["x", "y"], ["s1", "s2"])

# small, negative, non-dividing, and large coprime numerators and
# denominators
COEFFS = [1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
          Fraction(7, 10007), Fraction(-65537, 4099),
          Fraction(2 ** 61 - 1, 3 ** 20), Fraction(-1, 2 ** 31 - 1)]


def _orders():
    """(context, order): lex, grevlex, weighted and block."""
    return [(XYZ, MonomialOrder.lex()), (XYZ, MonomialOrder.grevlex()),
            (XYZ, MonomialOrder.weighted([2, 1, 3])),
            (BLOCK, MonomialOrder.block(BLOCK, ["W", "X"]))]


def _exp(rng, n, deg):
    e = [0] * n
    for _ in range(rng.randint(0, deg)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _poly(rng, ctx, deg=3, terms=4):
    return Poly(ctx, {_exp(rng, ctx.n, deg): rng.choice(COEFFS)
                      for _ in range(terms)})


def _op(rng, ctx=WS, deg=3, terms=4):
    return WeylOp(ctx, {_exp(rng, ctx.nv, deg): rng.choice(COEFFS)
                        for _ in range(terms)})


def _items(elements):
    """Terms in dict order, so equal lists mean equal elements whose terms
    also come in the same order."""
    return [list(q.terms.items()) for q in elements]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ResourceLimit as err:
        return ("ResourceLimit", str(err))


def _vec(rng, ctx, m, deg=2):
    return tuple(_poly(rng, ctx, deg, terms=2) for _ in range(m))


def _module_inputs():
    rng = random.Random(71)
    XY = VarContext([("X", ["x", "y"])])
    f = parse_poly("x^2*y + y^3 - x*y", XY) * Fraction(-7, 10007)
    yield [(f.diff("x"),), (f.diff("y"),), (-f,)], MonomialOrder.grevlex()
    for order in (MonomialOrder.grevlex(), MonomialOrder.lex(),
                  MonomialOrder.weighted([1, 2, 1])):
        yield [_vec(rng, XYZ, 2) for _ in range(3)], order


def _augmented(vecs):
    """The syzygy module's input: each vector with its unit coordinates."""
    ctx = vecs[0][0].ctx
    return [tuple(v) + tuple(Poly.const(ctx, int(i == k))
                             for k in range(len(vecs)))
            for i, v in enumerate(vecs)]


def _left_inputs():
    """B_F eliminations with scaled generators and a random left ideal,
    all with s-variables."""
    vc = VarContext([("X", ["x", "y"])])
    F = FactorizationSpec(["x", "y"], [parse_poly("x^2 + y^3", vc)])
    gens = F.theta_generators() + [F.f_xs.moved(F.weyl, WeylOp)]
    yield ([g * c for g, c in zip(gens, COEFFS[6:])],
           elimination_order(F.weyl))
    gens = [parse_weyl("x*dx + y*dy - s1 - 2*s2", WS) * Fraction(-3, 7),
            parse_weyl("5*y*dx - 3*x*dy", WS),
            parse_weyl("x^2 + 7/11*y^2", WS) * Fraction(2 ** 31 - 1, 6)]
    yield gens, elimination_order(WS)
    yield gens, MonomialOrder.block(WS.vc, ["X", "DX", "S"])
    rng = random.Random(72)
    yield [_op(rng, deg=2, terms=3) for _ in range(3)], MonomialOrder.grevlex()


# ---------------------------------------------------------------------------
# the divisions


def test_images_are_primitive_and_exact():
    rng = random.Random(70)
    for _ in range(30):
        terms = _poly(rng, XYZ, terms=5).terms
        image, tau = integer_image(terms)
        assert list(image) == list(terms) and tau > 0
        assert all(type(c) is int for c in image.values())
        assert {m: tau * c for m, c in image.items()} == terms
        assert gcd(*image.values()) == 1


def test_normal_forms_match_fraction_kernel():
    rng = random.Random(73)
    seen = 0
    for ctx, order in _orders():
        for case in range(10):
            basis = [_poly(rng, ctx) for _ in range(3)] + [Poly.zero(ctx)]
            if case == 0:
                basis.append(Poly.const(ctx, Fraction(-7, 3)))
            target = _poly(rng, ctx, deg=5, terms=6)
            want = ref.normal_form(target, basis, order)
            got = gb.normal_form(target, basis, order)
            assert _items([got]) == _items([want])
            nonzero = [g for g in basis if g.terms]
            divisors = ring.Divisors.of(ctx, nonzero, order.key)
            got = gb.normal_form(target, divisors, order)
            assert _items([got]) == _items([want])
            seen += not want.is_zero()
    assert seen > 10


def test_divide_exact_matches_fraction_kernel():
    rng = random.Random(74)
    divided = 0
    for _ in range(40):
        a, b = _poly(rng, XYZ, deg=2), _poly(rng, XYZ, deg=2, terms=3)
        for num in (a * b, a * b + _poly(rng, XYZ, deg=1, terms=1)):
            got, want = divide_exact(num, b), ref.divide_exact(num, b)
            assert (got is None) == (want is None)
            if want is not None:
                assert _items([got]) == _items([want])
                divided += 1
    c = Poly.const(XYZ, Fraction(-65537, 4099))
    assert _items([divide_exact(a, c)]) == _items([ref.divide_exact(a, c)])
    assert divided >= 40


def test_exact_quotient_is_integral_and_stops_on_a_remainder():
    # over Z by a primitive image: the quotient of a product comes out with
    # integer coefficients; a step whose coefficient the leading
    # coefficient does not divide, or whose monomial the lead does not
    # divide, ends the division with None
    from fpowers.ring import Divisors, exact_quotient
    rng = random.Random(75)
    key = MonomialOrder.grevlex().key
    for _ in range(30):
        a, b = _poly(rng, XYZ, deg=2), _poly(rng, XYZ, deg=2, terms=3)
        divisors = Divisors.of(XYZ, [b], key)
        image, _ = integer_image((a * b).terms)
        h = exact_quotient(dict(image), divisors)
        assert h is not None and all(type(c) is int for c in h.values())
        got = Poly(XYZ, {e: Fraction(c) for e, c in h.items()})
        assert got * Poly(XYZ, dict(divisors.images[0].terms)) == \
            Poly(XYZ, dict(image))
    F = Divisors.of(XYZ, [parse_poly("2*x + 1", XYZ)], key)
    assert F.images[0].terms[F.leads[0]] == 2
    for text, want in (("4*x^2 + 4*x + 1", {(1, 0, 0): 2, (0, 0, 0): 1}),
                       ("3*x^2 + x", None), ("2*x*y + 1", None),
                       ("2*x^2 + 3*x + 1", {(1, 0, 0): 1, (0, 0, 0): 1})):
        image, _ = integer_image(parse_poly(text, XYZ).terms)
        assert exact_quotient(dict(image), F) == want, text


def test_vector_normal_forms_match_fraction_kernel():
    rng = random.Random(75)
    for vecs, order in _module_inputs():
        for split in (0, 1):
            mo = gb._ModOrder(order, split=split)
            m = len(vecs[0])
            for _ in range(4):
                target = _vec(rng, vecs[0][0].ctx, m, deg=4)
                want = ref.vec_reduce(target, vecs, mo)
                got = gb._vec_reduce(target, vecs, mo)
                assert _items(got) == _items(want)


def test_left_normal_forms_and_steps_match_fraction_kernel(left_log):
    rng = random.Random(76)
    for gens, order in _left_inputs():
        ctx = gens[0].ctx
        with Limits(max_degree=12, max_basis=60):
            G = _outcome(weyl.weyl_left_gb, gens, order)
        bases = [list(gens)] + ([G] if isinstance(G, list) else [])
        for basis in bases:
            for _ in range(5):
                P = _op(rng, ctx, deg=4, terms=5)
                steps, ref_steps = [], []
                got = weyl.left_normal_form(P, basis, order, steps=steps)
                want = ref.left_normal_form(P, basis, order, steps=ref_steps)
                assert _items([got]) == _items([want])
                assert left_log(steps) == ref_steps
                assert all(type(p) is int and type(q) is int and q > 0
                           for _, _, p, q in steps)


# ---------------------------------------------------------------------------
# the bases: integer S-elements and integer divisions


def test_bases_match_fraction_kernel():
    rng = random.Random(77)
    for ctx, order in _orders():
        for _ in range(4):
            gens = [_poly(rng, ctx, deg=2, terms=3) for _ in range(3)]
            with Limits(max_degree=8, max_basis=60):
                got = _outcome(gb.groebner_basis, gens, order)
                want = _outcome(ref.groebner_basis, gens, order)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert _items(got) == _items(want)


def test_module_bases_match_fraction_kernel():
    for vecs, order in _module_inputs():
        aug = _augmented(vecs)
        mo = gb._ModOrder(order, split=len(vecs[0]))
        got, want = gb._module_gb(aug, mo), ref.module_gb(aug, mo)
        assert [_items(v) for v in got] == [_items(v) for v in want]
        assert len(want) > len(aug)


def test_left_bases_and_logs_match_fraction_kernel(left_log):
    logged = 0
    for gens, order in _left_inputs():
        with Limits(max_degree=12, max_basis=60):
            got = _outcome(weyl.weyl_left_gb, gens, order)
            want = _outcome(ref.weyl_left_gb, gens, order)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert _items(got) == _items(want)
        assert left_log(got) == left_log(want)
        logged += sum(map(len, got.steps))
    assert logged > 20


def test_resource_limits_match_fraction_kernel():
    # every division and basis raises where the Fraction kernel raises,
    # with the same message, at max_degree 2 to 6
    rng = random.Random(78)
    XY = VarContext([("X", ["x", "y"])])
    ideals = [([_poly(rng, ctx, deg=3) for _ in range(3)], order)
              for ctx, order in _orders()]
    ideals.append(([parse_poly("x^5 + y", XY), parse_poly("y^4 - 2/3*x", XY)],
                   MonomialOrder.grevlex()))
    divisions = [(_poly(rng, XYZ, deg=6, terms=5),
                  [_poly(rng, XYZ, deg=2) for _ in range(3)])
                 for _ in range(4)]
    modules = list(_module_inputs())
    lefts = list(_left_inputs())
    left_targets = [[_op(rng, gens[0].ctx, deg=5, terms=4) for _ in range(3)]
                    for gens, _ in lefts]

    def outcomes(lib):
        normal_form, vec_reduce, left_normal_form, groebner_basis, \
            module_gb, weyl_left_gb = lib
        out = []
        for d in (2, 3, 4, 5, 6):
            with Limits(max_degree=d, max_basis=60):
                for gens, order in ideals:
                    out.append(_outcome(groebner_basis, gens, order))
                for target, basis in divisions:
                    out.append(_outcome(normal_form, target, basis,
                                        MonomialOrder.lex()))
                for vecs, order in modules:
                    mo = gb._ModOrder(order, split=len(vecs[0]))
                    out.append(_outcome(module_gb, _augmented(vecs), mo))
                    big = tuple(q * q * q for q in vecs[0])
                    out.append(_outcome(vec_reduce, big, vecs, mo))
                for (gens, order), targets in zip(lefts, left_targets):
                    out.append(_outcome(weyl_left_gb, gens, order))
                    for P in targets:
                        out.append(_outcome(left_normal_form, P, gens, order))
        return [o if isinstance(o, tuple) and o[:1] == ("ResourceLimit",)
                else _canonical(o) for o in out]
    got = outcomes((gb.normal_form, gb._vec_reduce, weyl.left_normal_form,
                    gb.groebner_basis, gb._module_gb, weyl.weyl_left_gb))
    want = outcomes((ref.normal_form, ref.vec_reduce, ref.left_normal_form,
                     ref.groebner_basis, ref.module_gb, ref.weyl_left_gb))
    assert got == want
    raised = sum(o[:1] == ("ResourceLimit",) for o in want
                 if isinstance(o, tuple))
    assert 0 < raised < len(want)


def _canonical(result):
    """A division or basis result as nested term lists."""
    if isinstance(result, ring.TermMap):
        return list(result.terms.items())
    return [_canonical(x) for x in result]


# ---------------------------------------------------------------------------
# the degree bound names the degree left in the work


def test_normal_form_degree_message_names_the_degree():
    XY = VarContext([("X", ["x", "y"])])
    # the first step leaves x^4 (times 3/2) in the work: over the bound of 3
    target = parse_poly("3/2*x^5", XY)
    basis = [parse_poly("2*x - 7", XY)]
    for normal_form in (gb.normal_form, ref.normal_form):
        with pytest.raises(ResourceLimit) as err, Limits(max_degree=3):
            normal_form(target, basis, MonomialOrder.grevlex())
        assert str(err.value) == "total degree 4 exceeds bound 3"


def test_vector_normal_form_degree_message_names_the_first_component():
    # the step on component 0 leaves x^4 there, while component 1 holds
    # y^6: the message names the first component over the bound, 4, not 6
    XY = VarContext([("X", ["x", "y"])])
    v = (parse_poly("-5/3*x^5", XY), parse_poly("y^6", XY))
    basis = [(parse_poly("3*x + 1", XY), Poly.zero(XY))]
    mo = gb._ModOrder(MonomialOrder.grevlex(), split=1)
    for vec_reduce in (gb._vec_reduce, ref.vec_reduce):
        with pytest.raises(ResourceLimit) as err, Limits(max_degree=3):
            vec_reduce(v, basis, mo)
        assert str(err.value) == "total degree 4 exceeds bound 3"


# ---------------------------------------------------------------------------
# work guard: the kernel's products see integers only


def test_kernel_products_take_integer_coefficients(monkeypatch):
    # wrap the normal-ordered term product and every multiple callback the
    # kernel is given; a division that multiplies Fractions term by term
    # fails here on any Python version
    seen = {"term_product": 0, "multiple": 0, "work": 0}
    bad = []
    real_product = weyl._term_product
    real_kernel = ring.reduce_in_place

    def term_product(ctx, e1, c1, e2, c2):
        seen["term_product"] += 1
        if type(c1) is not int or type(c2) is not int:
            bad.append(("term_product", c1, c2))
        return real_product(ctx, e1, c1, e2, c2)

    def kernel(work, divisors, *args, **kwargs):
        seen["work"] += 1
        bad.extend(("work", c) for c in work.terms.values()
                   if type(c) is not int)
        multiple = divisors.multiple

        def checked(e, lead, image, b):
            seen["multiple"] += 1
            terms = multiple(e, lead, image, b)
            bad.extend(("multiple", b, c) for c in [b] + [c for _, c in terms]
                       if type(c) is not int)
            return terms
        divisors = copy(divisors)
        divisors.multiple = checked
        return real_kernel(work, divisors, *args, **kwargs)
    XY = VarContext([("X", ["x", "y"])])
    basis = [parse_poly("2/3*x^2 - 5/7*y", XY),
             parse_poly("3/5*x*y + 1/2", XY)]
    target = parse_poly("7/9*x^3*y^2 - 1/3*y^3", XY)
    # weyl._left_multiple normal-orders only the image terms with an x
    # where the multiplier has a d: the x*y of the second operator meets
    # the dx of the first one's lead in the basis loop's S-pair too
    ops = [parse_weyl("2/3*x*dx - 5/7*s1", WS),
           parse_weyl("3/4*dy^2 - x*y", WS)]
    P = parse_weyl("5/6*dx^2*dy^2*x^2 + 1/9", WS)
    monkeypatch.setattr(weyl, "_term_product", term_product)
    for mod in (ring, gb):
        monkeypatch.setattr(mod, "reduce_in_place", kernel)

    order = MonomialOrder.grevlex()
    assert not gb.normal_form(target, basis, order).is_zero()
    assert not weyl.left_normal_form(P, ops, order).is_zero()
    # the S-elements of the three basis loops, too
    gb.groebner_basis(basis, order)
    gb.syzygies([(basis[0],), (basis[1],)])
    before = seen["term_product"]
    weyl.weyl_left_gb(ops, order)
    assert seen["term_product"] > before
    assert bad == []
    assert min(seen.values()) > 5


# ---------------------------------------------------------------------------
# the sorted work queue and the kept left multiples against the rescanning
# kernel with multiples formed per call


def _division_cases():
    """(library divisors, reference divisors, targets): polynomials under
    each order, vectors, and operators with s, each divisor set shared by
    its targets so that the left multiples of one computation repeat."""
    rng = random.Random(80)
    for ctx, order in _orders():
        basis = [_poly(rng, ctx, deg=2, terms=3) for _ in range(3)]
        yield (Divisors.of(ctx, basis, order.key),
               Divisors.of(ctx, basis, order.key),
               [_poly(rng, ctx, deg=5, terms=6).terms for _ in range(4)])
    for vecs, order in _module_inputs():
        mo = gb._ModOrder(order, split=len(vecs[0]))
        ctx = gb._vec_ctx(vecs[0])
        yield (gb._vec_divisors(ctx, vecs, mo), gb._vec_divisors(ctx, vecs, mo),
               [gb._vec_terms(_vec(rng, vecs[0][0].ctx, len(vecs[0]), deg=4))
                for _ in range(4)])
    for gens, order in _left_inputs():
        ctx = gens[0].ctx
        with Limits(max_degree=12, max_basis=60):
            G = _outcome(weyl.weyl_left_gb, gens, order)
        for basis in [gens] + ([G] if isinstance(G, list) else []):
            yield (weyl._left_divisors(ctx, basis, order),
                   wref.per_term_divisors(ctx, basis, order),
                   [_op(rng, ctx, deg=5, terms=6).terms for _ in range(6)])


def _division(kernel, divisors, terms, bound):
    """A division's remainder terms and step log, or the monomials left in
    the work when the degree bound stopped it."""
    rem, steps = {}, []
    try:
        kernel(integer_image(terms), divisors, rem, steps, bound)
    except ring.DegreeBoundExceeded as err:
        return "bound", err.monomials, steps
    return list(rem.items()), steps


def test_queue_kernel_matches_rescanning_kernel():
    stopped = divided = 0
    for lib, old, targets in _division_cases():
        for terms in targets:
            for bound in (None, 3, 5, 7):
                got = _division(ring.reduce_in_place, lib, terms, bound)
                want = _division(ref.rescan_reduce_in_place, old, terms, bound)
                assert got == want
                stopped += got[0] == "bound"
                divided += len(got[-1])
    assert stopped > 10 and divided > 500


def _elimination_problems():
    """The factors of the B_F problems of the bs_ideals benchmark, with
    fixed scalars: Brieskorn-Pham curves and surfaces, line arrangements as
    one factor, and the three multi-factor inputs."""
    XY = VarContext([("X", ["x", "y"])])
    XYZ3 = VarContext([("X", ["x", "y", "z"])])
    for names, vc, factors in (
            ("xy", XY, ["-3/7*x^2 + y^3"]), ("xy", XY, ["x^2 - 2*y^5"]),
            ("xy", XY, ["x^3 + 5/3*y^4"]), ("xyz", XYZ3, ["x^2 - y^2 + z^2"]),
            ("xyz", XYZ3, ["x^2 + y^2 - 3*z^3"]),
            ("xy", XY, ["7*x*y*(x - 2*y)"]), ("xy", XY, ["x*y*(x + y)*(x - y)"]),
            ("xy", XY, ["-2*x", "5/3*y", "x + y"]),
            ("xyz", XYZ3, ["3*x", "2*x^2 + y*z"]),
            ("xyz", XYZ3, ["x^2 + y^3", "-z"])):
        yield FactorizationSpec(list(names), [parse_poly(f, vc) for f in factors])


def _reference_engine(m):
    """Run the basis loop and every left division on the rescanning kernel
    and the per-call left multiples."""
    m.setattr(gb, "reduce_in_place", ref.rescan_reduce_in_place)
    m.setattr(weyl, "_left_divisors", wref.per_term_divisors)


def test_elimination_bases_match_rescanning_kernel(monkeypatch):
    # the B_F bases of the bs_ideals problems: the same reduced basis and
    # log, read whole (the reference's inside its kernel), and the same
    # cofactor row of a B_F generator; the pure-S part elimination_basis
    # reduces is the prefix of the whole
    for F in _elimination_problems():
        order = elimination_order(F.weyl)
        gens = F.theta_generators() + [F.f_xs.moved(F.weyl, WeylOp)]
        pure = elimination_basis(F, order=order)
        got = weyl.weyl_left_gb(gens, order)
        with monkeypatch.context() as m:
            _reference_engine(m)
            want = weyl.weyl_left_gb(gens, order)
            items, final = _items(want), want.final
        assert _items(got) == items
        assert (got.origin, got.steps, got.final) == \
            (want.origin, want.steps, final)
        k = len(pure)
        assert k and (_items(pure), pure.final) == (items[:k], final[:k])
        assert not any(g.xd_free() for g in got[k:])
        b = pure[0]
        rows = []
        for basis in (pure, want):
            steps = []
            with monkeypatch.context() as m:
                if basis is want:
                    _reference_engine(m)
                assert weyl.left_normal_form(b, basis, order, steps).is_zero()
                rows.append(_items(basis.cofactors(steps)))
        assert rows[0] == rows[1]


def _whole_reduction(G, order):
    """The elements and `final` log of weyl.LeftBasis G reduced all at
    once, as weyl_left_gb did before its basis was read lazily
    (engine_reference.interreduce), as an engine_reference.ReducedLeftBasis."""
    tails = {}

    def divide(i, rest):
        tail = []
        r = weyl.left_normal_form(G.G[i], G.divisors.subset(rest), order,
                                  steps=tail)
        tails[i] = [(rest[k], *step) for k, *step in tail]
        return r
    out = engine_reference.interreduce(G.divisors, divide)
    return engine_reference.ReducedLeftBasis(
        [g for _, _, g in out], G.gens, G.origin, G.steps,
        [(i, c, tails[i]) for i, c, _ in out], G.lead, G.lc)


def test_pure_s_basis_is_the_prefix_of_the_whole_reduction():
    # the ten bs_ideals problems and the five fixtures: elimination_basis
    # tail-reduces only the elements free of x and d, and they, their
    # `final` log and the witness Q of a B_F generator are those of the
    # basis reduced whole
    from pathlib import Path
    from fpowers.bside import functional_equation_witness, s_context
    from fpowers.cli import load_problem
    data = Path(__file__).parent / "data"
    specs = list(_elimination_problems()) + [
        load_problem(str(path)).fspec for path in sorted(data.glob("*.json"))]
    for F in specs:
        order = elimination_order(F.weyl)
        pure = elimination_basis(F)
        gens = F.theta_generators() + [F.f_xs.moved(F.weyl, WeylOp)]
        whole = _whole_reduction(weyl.weyl_left_gb(gens, order), order)
        k = len(pure)
        assert k and all(g.xd_free() for g in pure)
        assert not any(g.xd_free() for g in whole[k:])
        assert _items(pure) == _items(whole[:k])
        assert pure.final == whole.final[:k]
        b = pure[0].moved(s_context(F), Poly)
        Q = functional_equation_witness(F, b)
        steps = []
        b_op = b.moved(F.weyl, WeylOp)
        assert weyl.left_normal_form(b_op, whole, order, steps).is_zero()
        assert _items([Q]) == _items([whole.cofactors(steps)[-1]])


def _kernel_work(monkeypatch, reference: bool) -> dict:
    """The order-key lookups made inside the division kernel and the
    _term_product calls while B_F of (x, y, x+y) is computed, on the
    library kernel or on the rescanning one with per-call multiples."""
    counts = {"keys": 0, "products": 0}
    inside = [False]

    class Keys(ring.KeyCache):
        __slots__ = ()

        def __getitem__(self, m):
            counts["keys"] += inside[0]
            return dict.__getitem__(self, m)
    kernel = ref.rescan_reduce_in_place if reference else ring.reduce_in_place

    def counted(*args):
        inside[0] = True
        try:
            return kernel(*args)
        finally:
            inside[0] = False
    real = weyl._term_product

    def product(*args):
        counts["products"] += 1
        return real(*args)
    XY = VarContext([("X", ["x", "y"])])
    F = FactorizationSpec(["x", "y"], [parse_poly(f, XY)
                                       for f in ("x", "y", "x + y")])
    with monkeypatch.context() as m:
        if reference:
            _reference_engine(m)
        m.setattr(ring, "KeyCache", Keys)
        m.setattr(gb, "reduce_in_place", counted)
        m.setattr(weyl, "_term_product", product)
        counts["B_F"] = [str(g) for g in bs_ideal(F).gb]
    return counts


def test_kernel_work_on_three_lines(monkeypatch):
    # the queue takes the largest monomial without a scan of the work, and
    # each d^c * image is normal-ordered once per computation: the
    # rescanning kernel with per-call multiples does over 6 times the key
    # lookups and term products on this B_F
    got = _kernel_work(monkeypatch, reference=False)
    want = _kernel_work(monkeypatch, reference=True)
    assert got["B_F"] == want["B_F"]
    assert got["keys"] <= 20000 < want["keys"]
    assert got["products"] <= 400 < want["products"]
