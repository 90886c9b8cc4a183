"""The hypothesis gate and the per-request theta_F setup against the
versions they replaced (tests/gate_reference.py): the same verdicts and
reasons, the same operators term for term, and less work."""

from fractions import Fraction
from pathlib import Path

import pytest

import gate_reference as ref
from fpowers import weyl
from fpowers.cli import load_problem, run_command
from fpowers.gb import IdealHandle, Limits, ResourceLimit, krull_dimension
from fpowers.logder import (
    FactorizationSpec, LogDerivation, log_derivations, psi_F,
    reducedness_check, saito_holonomic_check,
)
from fpowers.ring import Poly, VarContext, parse_poly
from fpowers.weyl import parse_weyl

DATA = Path(__file__).parent / "data"

# (variables, f, squarefree?)
BANK = [
    (["x"], "x", True),
    (["x"], "x^2", False),
    (["x"], "x^3 - x", True),
    (["x"], "x^2 + x", True),
    (["x"], "(x - 1)^2*(x + 2)", False),
    (["x", "y"], "x*y", True),
    (["x", "y"], "x^2*y", False),
    (["x", "y"], "(x + y)^2*(x - y)", False),
    (["x", "y"], "x^2 + y^3", True),
    (["x", "y"], "x*y*(x + y)", True),
    (["x", "y"], "x*y + 1", True),
    (["x", "y"], "(x*y + 1)^2", False),
    (["x", "y", "z"], "2*x^3 + x*y*z", True),
    (["x", "y", "z"], "(x*y + z^2)^2*z", False),
    (["x", "y", "z"], "x^2 - y^2*z", True),
    (["x", "y", "z"], "x^2*y*z", False),
    (["x", "y", "z"], "x*y*z*(x + y + z)", True),
]


def _poly(names, text):
    return parse_poly(text, VarContext([("X", names)]))


def _fixtures():
    return [load_problem(str(path)).fspec
            for path in sorted(DATA.glob("*.json"))]


@pytest.mark.parametrize("names,text,squarefree", BANK,
                         ids=[t for _, t, _ in BANK])
def test_reducedness_matches_the_colon_reference(names, text, squarefree):
    f = _poly(names, text)
    got = reducedness_check(f)
    assert got == ref.reducedness_check(f)
    assert got[0] == ("yes" if squarefree else "no")


def _random_reducedness_inputs(rng, count):
    """count seeded polynomials in two or three variables, every third
    one with a squared factor."""
    def poly(vc, deg, terms):
        out = Poly.zero(vc)
        for _ in range(terms):
            e = [0] * vc.n
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(vc.n)] += 1
            out = out + Poly(vc, {tuple(e): Fraction(rng.choice(
                [-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))})
        return out
    out = []
    while len(out) < count:
        vc = VarContext([("X", ["x", "y", "z"][:rng.randint(2, 3)])])
        f = poly(vc, 3, rng.randint(1, 4))
        if len(out) % 3 == 2:
            g = poly(vc, 1, 2)
            f = g * g * poly(vc, 1, rng.randint(1, 2))
        if not f.is_constant():
            out.append(f)
    return out


def test_reducedness_from_the_log_basis_matches_both_references():
    # the leads of the module basis behind Der(-log f) give the verdicts
    # of the colon chain and of the basis of (f) + Jac(f) it replaced, on
    # the bank and on seeded random inputs, squares among them; the spec
    # reads the basis it keeps for Der(-log f)
    import random
    rng = random.Random(21)
    bank = [_poly(names, text) for names, text, _ in BANK]
    verdicts = []
    for f in bank + _random_reducedness_inputs(rng, 120):
        got = reducedness_check(f)
        assert got == ref.reducedness_check(f)
        assert got == ref.jacobian_ideal_reducedness(f)
        verdicts.append(got[0])
    assert verdicts.count("yes") >= 30 and verdicts.count("no") >= 30
    for f in bank:
        F = FactorizationSpec(list(f.ctx.names), [f])
        assert reducedness_check(f, F.log_basis) == reducedness_check(f)
        assert F.check_hypotheses()["reduced"] == reducedness_check(f)


def test_reducedness_on_an_empty_singular_locus():
    # x^2 + x and 2x + 1 have no common zero: the dimension reads -1, the
    # bound n - 2 of one variable
    f = _poly(["x"], "x^2 + x")
    assert krull_dimension(IdealHandle([f, f.diff("x")])) == -1
    assert reducedness_check(f) == ("yes", "(f):Jac(f) = (f)")


@pytest.mark.parametrize("names,text", [b[:2] for b in BANK],
                         ids=[t for _, t, _ in BANK])
def test_saito_holonomic_matches_the_all_minors_reference(names, text):
    f = _poly(names, text)
    gens = log_derivations(f)
    assert saito_holonomic_check(f, gens) == \
        ref.saito_holonomic_check(f, gens)


@pytest.mark.parametrize("rows,reason", [
    # no nonzero maximal minor: the top stratum is everything
    ([("x", "0"), ("y", "0")], "fiber rank <= 1 on all of affine 2-space"),
    # no nonzero entry at all
    ([("0", "0")], "fiber rank <= 0 on all of affine 2-space"),
    # the rank-0 locus V(x) is a line
    ([("x", "0"), ("0", "x")], "rank-<=0 locus of the log-derivation "
                               "fibers has dimension 1"),
    # the same line, decided only after a proper prefix of the entries
    # failed to settle the stratum
    ([("x", "0"), ("0", "x"), ("x", "x")], "rank-<=0 locus of the "
                                           "log-derivation fibers has "
                                           "dimension 1"),
])
def test_saito_holonomic_no_verdicts_match_the_reference(rows, reason):
    names = ["x", "y"]
    f = _poly(names, "x*y")
    gens = [LogDerivation(tuple(_poly(names, a) for a in row),
                          _poly(names, "0")) for row in rows]
    assert saito_holonomic_check(f, gens) == ("no", reason)
    assert ref.saito_holonomic_check(f, gens) == ("no", reason)


def test_theta_terms_match_the_product_built_reference():
    # the same terms, in the same order
    for F in _fixtures():
        for d in F.log_derivations():
            got, want = d.operator(F.weyl), ref.operator(d, F.weyl)
            assert list(got.terms.items()) == list(want.terms.items())
            got, want = psi_F(d, F), ref.psi_F(d, F)
            assert list(got.terms.items()) == list(want.terms.items())


def test_theta_generators_make_no_weyl_products(monkeypatch):
    calls = []
    real = weyl.weyl_multiply

    def counted(P, Q):
        calls.append(1)
        return real(P, Q)
    monkeypatch.setattr(weyl, "weyl_multiply", counted)
    for F in _fixtures():
        theta = F.theta_generators()
        assert theta and not calls
        # the count is live: the reference builds them by products
        assert [ref.psi_F(d, F) for d in F.log_derivations()] == theta
        assert calls
        calls.clear()


def test_subs_s_matches_the_rebuilding_reference():
    # WeylOp.subs, which took over from subs_s, against the subs_s that
    # rebuilt its result once per term
    for F in _fixtures():
        for t in F.theta_generators():
            for values in ({s: Fraction(-1) for s in F.s_names},
                           {F.s_names[0]: Fraction(0)},
                           {s: Fraction(k, 2) for k, s in
                            enumerate(F.s_names, 1)}):
                got, want = t.subs(values), ref.subs_s(t, values)
                assert list(got.terms.items()) == list(want.terms.items())
    # terms that meet after the substitution add up, and cancel
    ctx = weyl.WeylContext(["x"], ["s1", "s2"])
    P = parse_weyl("s1*dx - 2*dx + x*s1^2*s2 + 3*x", ctx)
    got = P.subs({"s1": 2})
    assert got == parse_weyl("x*4*s2 + 3*x", ctx)
    assert list(got.terms.items()) == \
        list(ref.subs_s(P, {"s1": 2}).terms.items())


def test_spec_builds_the_FS_action_data_on_first_use():
    lazy = ("f_xs", "dfk_xs", "cofactor_xs")
    F = load_problem(str(DATA / "ex_mixed.json")).fspec
    F.check_hypotheses()
    F.theta_generators()
    assert not set(lazy) & set(vars(F))
    assert F.f_xs == F.f.moved(F.xs_vc)
    for k, fk in enumerate(F.factors):
        fk = fk.moved(F.xs_vc)
        assert F.cofactor_xs[k] * fk == F.f_xs
        assert F.dfk_xs[k] == [fk.diff(x) for x in F.x_names]
    assert set(lazy) <= set(vars(F))


def test_saito_checks_expand_each_minor_once_per_call(monkeypatch):
    # saito_basis and saito_holonomic_check each share one table of minors
    # (logder._Minors); rebuilding every minor by its own Laplace expansion
    # made 116 _det calls for the table of (x, 2x^2 + yz) and 363 for the
    # Whitney umbrella x^2 - y^2 z.  Expanding every minor of each stratum
    # once made 50 and 126; a stratum now stops at the prefix that
    # settles it
    from fpowers import logder
    expanded = []
    real = logder._Minors.__missing__

    def missing(self, key):
        expanded.append(key)
        return real(self, key)
    monkeypatch.setattr(logder._Minors, "__missing__", missing)
    umbrella = FactorizationSpec(["x", "y", "z"],
                                 [_poly(["x", "y", "z"], "x^2 - y^2*z")])
    for F, count, free in (
            (load_problem(str(DATA / "ex_mixed.json")).fspec, 44,
             ("no", "pdim Der(-log f) = 1")),
            (umbrella, 80, ("unknown", "no freeness certificate found"))):
        del expanded[:]
        table = F.check_hypotheses()
        assert len(expanded) == count
        assert table["free"] == free
        assert table["saito_holonomic"][0] == "yes"
        # the all-minors reference expands each minor afresh
        del expanded[:]
        assert ref.saito_holonomic_check(F.f, F.log_derivations()) == \
            table["saito_holonomic"]
        assert len(expanded) > count


def test_saito_holonomic_stops_each_stratum_at_a_settling_prefix(
        monkeypatch):
    # on (x, 2x^2 + yz) the check expands 25 minors: the first prefixes
    # of the 1- and 2-minors settle their strata, where all of them and the
    # first nonzero 3-minor made 31; the verdict is the reference's
    from fpowers import logder
    F = load_problem(str(DATA / "ex_mixed.json")).fspec
    gens = F.log_derivations()
    expanded, dims = [], []
    real_missing, real_dim = logder._Minors.__missing__, logder.krull_dimension

    def missing(self, key):
        expanded.append(key)
        return real_missing(self, key)

    def dimension(I):
        dims.append(len(I.gens))
        return real_dim(I)
    monkeypatch.setattr(logder._Minors, "__missing__", missing)
    monkeypatch.setattr(logder, "krull_dimension", dimension)
    got = saito_holonomic_check(F.f, gens)
    assert got[0] == "yes" and len(expanded) == 25
    # the first n - i = 3 entries settle stratum 0; the first 2 of the
    # 2-minors do not settle stratum 1, the first 4 do
    assert dims == [3, 2, 4]
    assert got == ref.saito_holonomic_check(F.f, gens)


def test_a_bound_on_a_prefix_leaves_the_stratum_unsettled(monkeypatch):
    # a prefix whose basis meets the bound settles nothing: the next
    # prefixes, and at last all the minors, decide as the reference does
    from fpowers import logder
    real = logder.krull_dimension
    calls = []

    def bounded(I):
        calls.append(len(I.gens))
        if len(calls) == 1:
            raise ResourceLimit("total degree 9 exceeds bound 8")
        return real(I)
    monkeypatch.setattr(logder, "krull_dimension", bounded)
    retried = 0
    for names, text, _ in BANK:
        f = _poly(names, text)
        gens = log_derivations(f)
        del calls[:]
        assert saito_holonomic_check(f, gens) == \
            ref.saito_holonomic_check(f, gens)
        retried += len(calls) > 1
    assert retried >= 5


# ---------------------------------------------------------------------------
# tight bounds: the one basis and the minor search answer where the colon
# chain and the top-stratum basis met the bound


def test_reducedness_answers_under_a_bound_the_colon_chain_meets():
    f = _poly(["x", "y"], "x*y")
    with Limits(max_degree=2):
        assert reducedness_check(f) == ("yes", "(f):Jac(f) = (f)")
        assert ref.reducedness_check(f) == \
            ("unknown", "resource limit: total degree 3 exceeds bound 2")


def test_saito_holonomic_answers_under_a_bound_the_top_stratum_meets():
    F = load_problem(str(DATA / "ex_mixed.json")).fspec
    with Limits(max_degree=4):
        gens = F.log_derivations()
        assert saito_holonomic_check(F.f, gens)[0] == "yes"
        with pytest.raises(ResourceLimit,
                           match="total degree 5 exceeds bound 4"):
            ref.saito_holonomic_check(F.f, gens)
        h = F.check_hypotheses()
    assert h == FactorizationSpec(F.x_names, F.factors).check_hypotheses()


def test_hypotheses_request_answers_under_that_bound():
    # the top-stratum basis of the all-minors check meets this bound: the
    # request ended in exit 3 "total degree 5 exceeds bound 4", no table
    path = str(DATA / "ex_mixed.json")
    code, payload = run_command(["hypotheses", "--input", path, "--json",
                                 "--max-degree", "4"])
    assert code == 0
    _, default = run_command(["hypotheses", "--input", path, "--json"])
    assert payload["hypotheses"] == default["hypotheses"]
