"""Logarithmic derivations, Saito bases, Euler fields, the psi map.

A derivation delta = sum a_i d_i is logarithmic for f when delta(f) = c*f;
the module Der(-log f) is computed as a syzygy module of the partials of f
together with -f (the last syzygy coordinate is the cofactor c).  Given a
factorization F = (f_1..f_r), psi_F sends delta to the operator
delta - sum_k b_k s_k with b_k = delta(f_k)/f_k; the images generate the
degree-one part of the annihilator of F^S.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .ring import MonomialOrder, Poly, VarContext, divide_exact, exp_add
from .arrange import (
    ArrangementSpec, definitely_not_linear_split, linear_form_factorization,
    merge_forms, row_reduce,
)
from .gb import (
    GradedModulePresentation, IdealHandle, Limits, NonHomogeneousInput,
    ResourceLimit, extended_basis, graded_free_resolution, is_nonzerodivisor,
    krull_dimension, leads_dimension, module_contains, syzygies,
    vector_degree,
)
from .weyl import WeylContext, WeylOp, gr_symbol


class NotLogarithmicForFactor(Exception):
    """delta(f_k) is not divisible by f_k."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"derivation is not logarithmic for factor {k}")


@dataclass
class LogDerivation:
    """delta = sum a_i d_i with a recorded cofactor: delta(f) = cofactor*f."""

    coeffs: Tuple[Poly, ...]
    cofactor: Poly

    def apply(self, p: Poly) -> Poly:
        ctx = p.ctx
        out = Poly.zero(ctx)
        for a, name in zip(self.coeffs, ctx.names):
            out = out + a * p.diff(name)
        return out

    def operator(self, ctx: WeylContext) -> WeylOp:
        """delta as the operator sum a_i d_i of D_n[S] over ctx.  Each
        a_i d_i is already normal-ordered, so its terms are written
        directly."""
        out = WeylOp(ctx)
        for a, dname in zip(self.coeffs, ctx.dx_names):
            out.terms.update(_times_var(ctx, a, dname))
        return out

    def symbol(self, ctx: WeylContext) -> Poly:
        """The (0,1)-symbol sum a_i y_i of delta over ctx.symbol_vc."""
        return gr_symbol(self.operator(ctx), "(0,1)")

    def factor_cofactors(self, factors: Sequence[Poly]) -> List[Optional[Poly]]:
        """b_k = delta(f_k)/f_k per factor f_k, or None where f_k does not
        divide delta(f_k)."""
        return [divide_exact(self.apply(fk), fk) for fk in factors]

    def degree(self) -> int:
        """Max total degree of the coefficients (polynomial degree of delta)."""
        return max((a.total_degree() for a in self.coeffs), default=-1)

    def is_homogeneous(self) -> bool:
        degs = set()
        for a in self.coeffs:
            if a.is_zero():
                continue
            ds = {sum(e) for e in a.terms}
            if len(ds) > 1:
                return False
            degs |= ds
        return len(degs) <= 1


# the hypotheses under which theta_F generates all of Ann F^S
REQUIRED_HYPOTHESES = ("strong_euler_origin", "saito_holonomic", "tame")


def required_hold(hyps: Dict[str, Tuple[str, str]]) -> bool:
    """Does every one of REQUIRED_HYPOTHESES read "yes" in the table?"""
    return all(hyps[k][0] == "yes" for k in REQUIRED_HYPOTHESES)


def assumed_table() -> Dict[str, Tuple[str, str]]:
    """The table reported in place of check_hypotheses() when the caller
    asserts the hypotheses."""
    return {"assumed": ("yes", "caller asserted the hypotheses")}


class FactorizationSpec:
    """F = (f_1, ..., f_r) with f = prod f_k and all derived data.

    Hypothesis flags (strong Euler-homogeneity at the origin, reducedness,
    freeness, tameness, arrangement-ness, Saito-holonomicity) come from
    check_hypotheses(); each is "yes"/"no"/"unknown" with a short reason.
    The derived results that cost a basis computation are kept per bound
    in effect (memo).  The data of the F^S action (f_xs, dfk_xs,
    cofactor_xs), read only by weyl.apply_to_FS, bside and liouville, is
    built on first use.
    """

    def __init__(self, x_names: Sequence[str], factors: Sequence[Poly]):
        self.x_names = list(x_names)
        self.n = len(self.x_names)
        self.r = len(factors)
        if self.r == 0:
            raise ValueError("need at least one factor")
        self.x_vc = VarContext([("X", self.x_names)])
        self.factors = [p.moved(self.x_vc) for p in factors]
        for k, fk in enumerate(self.factors, 1):
            if fk.is_zero() or fk.is_constant():
                raise ValueError(f"factor {k} must be nonzero and nonconstant")
        self.f = Poly.const(self.x_vc, 1)
        for fk in self.factors:
            self.f = self.f * fk
        self.degrees = [fk.total_degree() for fk in self.factors]
        self.s_names = [f"s{k+1}" for k in range(self.r)]
        self.weyl = WeylContext(self.x_names, self.s_names)
        self.symbol_vc = self.weyl.symbol_vc
        self.xs_vc = self.weyl.xs_vc
        self.vanishing_at_origin = all(
            fk.constant_coeff() == 0 for fk in self.factors
        )
        self._memo: Dict[tuple, object] = {}

    # the data of the F^S action over Q[x, S], built on first use: the
    # nabla and hypotheses requests never read it

    @cached_property
    def f_xs(self) -> Poly:
        return self.f.moved(self.xs_vc)

    @cached_property
    def dfk_xs(self) -> List[List[Poly]]:
        """d_i f_k, per factor and x variable."""
        return [[fk.moved(self.xs_vc).diff(x) for x in self.x_names]
                for fk in self.factors]

    @cached_property
    def cofactor_xs(self) -> List[Poly]:
        """f / f_k, per factor."""
        out = []
        for fk in self.factors:
            q = divide_exact(self.f_xs, fk.moved(self.xs_vc))
            assert q is not None
            out.append(q)
        return out

    def memo(self, key: tuple, compute):
        """compute(), computed once per key and bound in effect for this
        spec.  A value is kept only once compute returns, so a
        ResourceLimit leaves nothing behind."""
        limits = Limits.current()
        key += (limits.max_degree, limits.max_basis)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def log_basis(self) -> list:
        """log_basis(self.f), computed once per bound for this spec: the
        hypothesis table's reducedness check and Der(-log f) read it."""
        return self.memo(("log basis",), lambda: log_basis(self.f))

    def log_derivations(self, variant: str = "log") -> List[LogDerivation]:
        """log_derivations(self.f, variant), computed once per variant and
        bound for this spec, "log" from log_basis(); returns a fresh list."""
        return list(self.memo(("log", variant), lambda: log_derivations(
            self.f, variant, self.log_basis)))

    def theta_generators(self) -> List[WeylOp]:
        """psi_F of the Der(-log f) generators: degree-one annihilators."""
        return [psi_F(d, self) for d in self.log_derivations("log")]

    def check_hypotheses(self) -> Dict[str, Tuple[str, str]]:
        """The hypothesis table {name: (verdict, reason)}, computed once per
        bound for this spec; returns a fresh dict."""
        return dict(self.memo(("hypotheses",), self._hypothesis_table))

    def _hypothesis_table(self) -> Dict[str, Tuple[str, str]]:
        h: Dict[str, Tuple[str, str]] = {}
        rep = euler_and_seh_check(self.f)
        h["strong_euler_origin"] = (rep.strong_at_origin, rep.reason)
        h["reduced"] = reducedness_check(self.f, self.log_basis)
        arr = self.try_arrangement()
        if arr is not None:
            h["arrangement"] = ("yes", "all factors split into linear forms")
        elif any(definitely_not_linear_split(fk) for fk in self.factors):
            h["arrangement"] = ("no", "a factor is certified not a product of linear forms")
        else:
            h["arrangement"] = ("unknown", "no linear splitting found")
        # a bound that stops Der(-log f) leaves "free" unknown, as in the
        # reducedness check; only an arrangement is Saito-holonomic without it
        try:
            log_gens = self.log_derivations("log")
            sb = saito_basis(self.f, log_gens)
        except ResourceLimit as e:
            if arr is None:
                raise
            sb, bounded = None, ("unknown", f"resource limit: {e}")
        if sb is None:
            h["free"] = bounded
        elif sb.basis:
            h["free"] = ("yes", "Saito determinant = unit * f")
        elif sb.pdim == 0:
            h["free"] = ("yes", "pdim Der(-log f) = 0 (no determinant certificate)")
        elif sb.pdim is None:
            h["free"] = ("unknown", "no freeness certificate found")
        else:
            h["free"] = ("no", f"pdim Der(-log f) = {sb.pdim}")
        h["tame"] = tameness_check(self.f)
        if arr is not None:
            h["saito_holonomic"] = ("yes", "hyperplane arrangement")
        else:
            h["saito_holonomic"] = saito_holonomic_check(self.f, log_gens)
        return h

    def try_arrangement(self):
        """Factor every f_k into linear forms if possible (else None), with
        proportional forms merged across the factors (arrange.merge_forms)."""
        facs = []
        for fk in self.factors:
            fac = linear_form_factorization(fk)
            if fac is None:
                return None
            facs.append(fac)
        forms, mults, where = merge_forms(itertools.chain(*facs))
        at = iter(where)
        groups = [[i for (_, m), i in zip(fac, at) for _ in range(m)]
                  for fac in facs]
        return ArrangementSpec(forms, mults, groups, self)


# ---------------------------------------------------------------------------
# Der(-log f) and Der(-log0 f)


def log_basis(f: Poly) -> list:
    """gb.extended_basis of the 1-vectors (d_1 f, ..., d_n f, -f) under
    grevlex: Der(-log f) (log_derivations) and a Groebner basis of
    (f) + Jac(f) (reducedness_check) in one."""
    return extended_basis([(f.diff(x),) for x in f.ctx.names] + [(-f,)])


def log_derivations(f: Poly, variant: str = "log",
                    basis: Optional[Callable] = None) -> List[LogDerivation]:
    """Generators of the logarithmic derivation module of f.

    variant "log":  syzygies of (d_1 f, ..., d_n f, -f), read from
                    log_basis(f), or basis() when the caller keeps it; the
                    last syzygy coordinate is the cofactor.
    variant "log0": syzygies of (d_1 f, ..., d_n f); cofactor 0.
    """
    if f.is_constant():
        raise ValueError("f must be nonconstant")
    if variant not in ("log", "log0"):
        raise ValueError(f"unknown variant {variant!r}")
    n = f.ctx.n
    if variant == "log0":
        syz = syzygies([(f.diff(x),) for x in f.ctx.names])
    else:
        syz = [g[1:] for g in (basis() if basis else log_basis(f))
               if g[0].is_zero()]
    out = []
    for s in syz:
        d = LogDerivation(tuple(s[:n]), s[n] if variant == "log"
                          else Poly.zero(f.ctx))
        assert d.apply(f) == d.cofactor * f
        out.append(d)
    return out


def log_module_contains(f: Poly, delta: LogDerivation,
                        variant: str = "log") -> bool:
    """Is delta in the module generated by log_derivations(f, variant)?"""
    gens = log_derivations(f, variant)
    vectors = [list(g.coeffs) + [g.cofactor] for g in gens]
    target = list(delta.coeffs) + [delta.cofactor]
    return module_contains(vectors, target)


# ---------------------------------------------------------------------------
# psi_F


def psi_F(delta: LogDerivation, fspec: FactorizationSpec) -> WeylOp:
    """delta - sum_k b_k s_k with b_k = delta(f_k)/f_k (exact).

    Raises NotLogarithmicForFactor(k) when the division fails.  The result
    annihilates F^S.
    """
    ctx = fspec.weyl
    out = delta.operator(ctx)
    for b, s in zip(psi_cofactors(delta, fspec), fspec.s_names):
        out.terms.update(_times_var(ctx, -b, s))
    return out


def _times_var(ctx: WeylContext, p: Poly, name: str) -> Dict:
    """The terms of p * v in D_n[S], for p a polynomial in the x variables
    and v a d_i or an s_k of ctx: that product is already normal-ordered,
    so each term of p just gains v."""
    v = ctx.var_exp(name)
    return {exp_add(e, v): c for e, c in p.moved(ctx, WeylOp).terms.items()}


def psi_cofactors(delta: LogDerivation, fspec: FactorizationSpec) -> List[Poly]:
    """The per-factor cofactors b_k = delta(f_k)/f_k."""
    out = delta.factor_cofactors(fspec.factors)
    if None in out:
        raise NotLogarithmicForFactor(out.index(None) + 1)
    return out


# ---------------------------------------------------------------------------
# Saito bases and freeness


@dataclass
class SaitoResult:
    basis: Optional[List[LogDerivation]]
    det: Optional[Poly]
    pdim: Optional[int]


def saito_basis(f: Poly, gens: Optional[Sequence[LogDerivation]] = None
                ) -> SaitoResult:
    """Search for n generators whose coefficient determinant is unit * f.

    gens, when given, are the Der(-log f) generators log_derivations(f,
    "log") already computed by the caller.

    Candidates: the <= 2n lowest-degree generators (homogeneous ones
    preferred).  If no subset certifies freeness, fall back to a projective
    dimension report for Der(-log f): pdim 0 also means free, but without
    a determinant certificate the basis is not returned.
    """
    n = f.ctx.n
    if gens is None:
        gens = log_derivations(f, "log")
    gens = sorted(gens, key=lambda d: (d.degree(), not d.is_homogeneous()))
    pool = gens[: 2 * n]
    minors = _Minors(saito_matrix(pool))
    for subset in itertools.combinations(range(len(pool)), n):
        det = _unit_times(minors[subset, tuple(range(n))], f)
        if det is not None:
            return SaitoResult([pool[i] for i in subset], det, 0)
    # fall back: pdim of the derivation module (coefficients shifted 0, the
    # cofactor coordinate shifted 1 so delta(f) = c*f stays homogeneous)
    vectors = [list(g.coeffs) + [g.cofactor] for g in gens]
    if not vectors:
        return SaitoResult(None, None, None)
    try:
        pdim = _submodule_pdim(f.ctx, vectors, [0] * n + [1])
        return SaitoResult(None, None, pdim)
    except (NonHomogeneousInput, ResourceLimit):
        return SaitoResult(None, None, None)


def _submodule_pdim(ctx: VarContext, vectors: Sequence[Sequence[Poly]],
                    shifts: Sequence[int]) -> int:
    """pdim of the graded submodule that the homogeneous vectors generate
    in the free module over ctx whose basis has degrees shifts, every
    variable of degree 1: the resolution of its presentation by the
    syzygies of the vectors."""
    weights = [1] * ctx.n
    gen_degs = [vector_degree(v, weights, shifts) for v in vectors]
    pres = GradedModulePresentation(ctx, weights, len(vectors),
                                    syzygies(vectors), shifts=gen_degs)
    return graded_free_resolution(pres).pdim


def saito_determinant(basis: Sequence[LogDerivation], f: Poly
                      ) -> Optional[Poly]:
    """Saito's criterion: the determinant of the coefficients of the
    logarithmic derivations in basis when it is a nonzero constant times
    f, which certifies them a basis of Der(-log f); else None."""
    return _unit_times(_det(saito_matrix(basis)), f)


def _unit_times(det: Poly, f: Poly) -> Optional[Poly]:
    """det when it is a nonzero constant times f, else None."""
    if det.is_zero():
        return None
    q = divide_exact(det, f)
    return det if q is not None and q.is_constant() else None


def saito_matrix(basis: Sequence[LogDerivation]) -> List[List[Poly]]:
    """The coefficient matrix of the logarithmic derivations in basis, one
    row per derivation."""
    return [list(d.coeffs) for d in basis]


class _Minors(dict):
    """The minors of one matrix of polynomials, keyed by (row tuple,
    column tuple), each expanded on its first lookup by Laplace along its
    first row, from the minors one size down.  Within one table every
    minor is expanded once, however many larger minors share it."""

    def __init__(self, rows: List[List[Poly]]):
        super().__init__()
        self.rows = rows

    def __missing__(self, key):
        rsel, csel = key
        first = self.rows[rsel[0]]
        if len(rsel) == 1:
            out = first[csel[0]]
        else:
            out = Poly.zero(first[0].ctx)
            for j, c in enumerate(csel):
                term = first[c] * self[rsel[1:], csel[:j] + csel[j + 1:]]
                out = out + (term if j % 2 == 0 else -term)
        self[key] = out
        return out


def _det(matrix: List[List[Poly]]) -> Poly:
    full = tuple(range(len(matrix)))
    return _Minors(matrix)[full, full]


# ---------------------------------------------------------------------------
# Euler fields, homogeneity


@dataclass
class EulerReport:
    euler: Optional[LogDerivation]
    strong_at_origin: str          # yes / unknown
    reason: str
    weights: Optional[Tuple[int, ...]] = None


def euler_and_seh_check(f: Poly) -> EulerReport:
    """Detect (quasi-)homogeneity and produce the associated Euler field.

    Homogeneous of degree d: E = (1/d) sum x_i d_i, strong at the origin.
    Quasi-homogeneous with positive integer weights: the weighted analog.
    Anything else: unknown (certified at the origin only).
    """
    ctx = f.ctx
    n = ctx.n
    exps = list(f.terms)
    degs = {sum(e) for e in exps}
    if len(degs) == 1:
        d = degs.pop()
        if d > 0:
            coeffs = tuple(
                Poly.var(ctx, x) * Fraction(1, d) for x in ctx.names
            )
            e = LogDerivation(coeffs, Poly.const(ctx, 1))
            return EulerReport(e, "yes", f"homogeneous of degree {d}")
    w = _positive_weight_vector(exps, n)
    if w is not None:
        d = sum(wi * ei for wi, ei in zip(w, exps[0]))
        coeffs = tuple(
            Poly.var(ctx, x) * Fraction(w[i], d) for i, x in enumerate(ctx.names)
        )
        e = LogDerivation(coeffs, Poly.const(ctx, 1))
        return EulerReport(e, "yes", f"quasi-homogeneous, weights {w}",
                           weights=tuple(w))
    return EulerReport(None, "unknown", "no positive weight vector found")


def _positive_weight_vector(exps, n) -> Optional[List[int]]:
    """Positive integer w with w . e constant over the exponents, if any."""
    if not exps:
        return None
    base = exps[0]
    rows = [tuple(e[i] - base[i] for i in range(n)) for e in exps[1:]]
    rows = [r for r in rows if any(r)]
    # solve rows . w = 0 over Q, then look for a positive point in the
    # nullspace; small n, so scan a small integer box of combinations
    null = _nullspace(rows, n)
    if not null:
        return None
    from itertools import product
    for coeffs in product(range(-6, 7), repeat=len(null)):
        if all(c == 0 for c in coeffs):
            continue
        w = [sum(c * v[i] for c, v in zip(coeffs, null)) for i in range(n)]
        if all(x > 0 for x in w):
            den = math.lcm(*[x.denominator for x in w])
            wi = [int(x * den) for x in w]
            g = math.gcd(*wi)
            return [x // g for x in wi]
    return None


def _nullspace(rows, n) -> List[List[Fraction]]:
    """Basis of the rational nullspace of the given row vectors."""
    m, pivots = row_reduce(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# tameness


def tameness_check(f: Poly):
    """("yes"/"no"/"unknown", reason).  n <= 3 is automatically tame;
    otherwise test pdim(Omega^k(log f)) <= k for 1 <= k <= n, where
    Omega^k(log f) = {eta in Omega^k : df ^ eta in f*Omega^(k+1)}."""
    n = f.ctx.n
    if n <= 3:
        return ("yes", "n <= 3 shortcut")
    table = {}
    try:
        for k in range(1, n + 1):
            pd = _log_forms_pdim(f, k)
            table[k] = pd
            if pd > k:
                return ("no", f"pdim Omega^{k}(log f) = {pd} > {k}; table {table}")
        return ("yes", f"pdim table {table}")
    except ResourceLimit as e:
        return ("unknown", f"resource limit: {e}; partial table {table}")


def _log_forms_pdim(f: Poly, k: int) -> int:
    """pdim of Omega^k(log f) inside the free module on basis dx_I, |I|=k."""
    ctx = f.ctx
    n = ctx.n
    if k >= n:
        # df ^ eta lands in the zero module: every eta qualifies, free module
        return 0
    I_list = list(itertools.combinations(range(n), k))
    J_list = list(itertools.combinations(range(n), k + 1))
    pos = {J: idx for idx, J in enumerate(J_list)}
    partials = [f.diff(x) for x in ctx.names]
    zero = Poly.zero(ctx)
    # column for dx_I: (df ^ dx_I)_J entries; plus columns f*e_J
    cols = []
    for I in I_list:
        col = [zero] * len(J_list)
        for i in range(n):
            if i in I:
                continue
            J = tuple(sorted(I + (i,)))
            sign = (-1) ** sum(1 for a in I if a < i)
            col[pos[J]] = col[pos[J]] + partials[i] * sign
        cols.append(tuple(col))
    for J in J_list:
        col = [zero] * len(J_list)
        col[pos[J]] = f
        cols.append(tuple(col))
    syz = syzygies(cols)
    gens = []
    for s in syz:
        head = tuple(s[: len(I_list)])
        if any(not p.is_zero() for p in head):
            gens.append(head)
    if not gens:
        return 0
    return _submodule_pdim(ctx, gens, [0] * len(I_list))


# ---------------------------------------------------------------------------
# Koszul-freeness and reducedness


def koszul_free_check(f: Poly, basis: Sequence[LogDerivation]) -> bool:
    """Do the (0,1) symbols of a Saito basis form a regular sequence in
    Q[x,y]?"""
    wc = WeylContext(list(f.ctx.names), [])
    return regular_sequence([d.symbol(wc) for d in basis], wc.symbol_vc)


def colon_stable_steps(base: Sequence[Poly], seq: Sequence[Poly],
                       ctx: VarContext) -> Iterator[bool]:
    """For each s of seq in turn: is s a nonzerodivisor modulo the ideal J
    of base and the elements of seq before s, (J : s) = J?  Each step is
    gb.is_nonzerodivisor under the "(0,1,1)" grading.  The one
    colon-stability loop: regular_sequence stops at its first False,
    nabla.s_regularity_check reads every step."""
    weights = ctx.grading("(0,1,1)")
    prev = list(base)
    for s in seq:
        yield is_nonzerodivisor(IdealHandle(prev, ctx=ctx), s, weights)
        prev.append(s)


def regular_sequence(seq: Sequence[Poly], ctx: VarContext) -> bool:
    """Is seq a regular sequence in the polynomial ring over ctx, each
    element a nonzerodivisor modulo the earlier ones?  Its (0,1,1)-degrees
    are positive, so it lies in (y, S) and never generates the unit ideal."""
    return all(colon_stable_steps([], seq, ctx))


def saito_holonomic_check(f: Poly,
                          gens: Optional[Sequence[LogDerivation]] = None
                          ) -> Tuple[str, str]:
    """Rank stratification of the log-derivation module (gens as in
    saito_basis).

    The divisor is Saito-holonomic iff the locus where the module's fibers
    have rank exactly i is at most i-dimensional, for every i.  With
    V_i = zero set of the (i+1)-minors of the generator coefficient matrix
    (the rank-<=i locus) this is equivalent to dim V_i <= i for i < n,
    because V_i is the union of the rank-j loci over j <= i.

    The top stratum needs no basis: a nonzero polynomial cuts out a
    hypersurface, so dim V_{n-1} <= n-1 exactly when some n x n minor is
    nonzero, and the search stops at the first one.  Each lower stratum is
    settled on the shortest prefix of its nonzero minors that suffices
    (_stratum_dimension): V_i lies inside the zero set of any of its
    minors, so a prefix whose zero set has dimension <= i proves the
    bound, and the minors past it are never expanded.
    """
    ctx = f.ctx
    n = ctx.n
    if gens is None:
        gens = log_derivations(f, "log")
    rows = saito_matrix(gens)
    table = _Minors(rows)
    for i in range(n):
        minors = filter(None, (
            table[rsel, csel]
            for rsel in itertools.combinations(range(len(rows)), i + 1)
            for csel in itertools.combinations(range(n), i + 1)))
        if i < n - 1:
            d = _stratum_dimension(minors, i, n - i)
        else:
            # one nonzero maximal minor settles the top stratum (see above)
            d = None if next(minors, None) is None else i
        if d is None:
            # fiber rank <= i everywhere: the top stratum itself is too big
            return ("no", f"fiber rank <= {i} on all of affine {n}-space")
        if d > i:
            return ("no", f"rank-<={i} locus of the log-derivation fibers "
                          f"has dimension {d}")
    return ("yes", "every rank-i locus of the log-derivation fibers has "
                   "dimension at most i")


def _stratum_dimension(minors: Iterator[Poly], i: int,
                       first: int) -> Optional[int]:
    """dim V(minors) when it is above i, else some dimension <= i; None
    when there are no minors.

    The minors are expanded lazily: prefixes of first, 2*first, 4*first,
    ... of them are tried until the zero set of one has dimension <= i,
    which bounds dim V(minors) <= i, as V(all) lies in V(prefix).  A
    prefix whose basis meets the bound in effect settles nothing.  When
    no proper prefix settles it, the dimension is that of all the minors,
    and a bound their basis meets is raised: a bounded check never stops
    earlier than one on all the minors.
    """
    taken: List[Poly] = []
    size = first
    while True:
        taken.extend(itertools.islice(minors, size - len(taken)))
        more = next(minors, None)
        if more is None:
            return krull_dimension(IdealHandle(taken)) if taken else None
        try:
            if krull_dimension(IdealHandle(taken)) <= i:
                return i
        except ResourceLimit:
            pass
        taken.append(more)
        size *= 2


def reducedness_check(f: Poly, basis: Optional[Callable] = None):
    """("yes"/"no"/"unknown", reason): f squarefree iff ((f) : Jac(f)) = (f).

    In characteristic zero both hold exactly when the singular locus
    V(f, d_1 f, ..., d_n f) has dimension at most n - 2: a repeated factor
    g^2 of f puts the hypersurface V(g) inside it, and a squarefree f is
    smooth off a proper closed subset of each of its components.  The
    leads of a Groebner basis of (f) + Jac(f) give that dimension: the
    nonzero first coordinates of log_basis(f) (basis(), when the caller
    keeps it).
    """
    ctx = f.ctx
    if all(f.diff(x).is_zero() for x in ctx.names):
        return ("no", "constant-like input")
    try:
        G = basis() if basis else log_basis(f)
    except ResourceLimit as e:
        return ("unknown", f"resource limit: {e}")
    grevlex = MonomialOrder.grevlex()
    leads = [g[0].leading_exp(grevlex) for g in G if not g[0].is_zero()]
    if leads_dimension(leads, ctx.n) <= ctx.n - 2:
        return ("yes", "(f):Jac(f) = (f)")
    return ("no", "(f):Jac(f) strictly contains (f)")
