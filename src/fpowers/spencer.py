"""The Spencer-type co-complex attached to a free divisor's Saito basis.

With delta_1..delta_n a Saito basis for f and lambda_i = psi_F(delta_i),
the free left D[S]-modules with bases indexed by k-subsets of the basis
carry the differential

  d(P (x) e_I) = sum_j (-1)^{j-1} P*lambda_{i_j} (x) e_{I - i_j}
              + sum_{a<b} (-1)^{a+b} P*c^m_{ab} (x) lambda_m ^ e_{I - i_a - i_b}

where [delta_a, delta_b] = sum_m c^m_{ab} delta_m defines the structure
constants (unique by freeness, extracted by Cramer + exact division).  The
coefficients act on the right of D[S], so a differential is stored as a
matrix right-multiplying coordinate row vectors, entries in D[S].

Chain facts checked exactly: consecutive products vanish, the terminal image
is the ideal of theta_F, transposing entrywise under the formal adjoint tau
reverses the chain, and shifting every s by one intertwines the complex with
right multiplication by f (the lift of the shift map on F^S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .logder import (
    FactorizationSpec,
    LogDerivation,
    _det,
    koszul_free_check,
    psi_F,
    regular_sequence,
    saito_basis,
    saito_determinant,
    saito_matrix,
)
from .ring import MonomialOrder, Poly, divide_exact
from .weyl import LeftIdeal, WeylOp, gr_symbol, transpose_tau


class NotFree(Exception):
    """No Saito basis: the divisor's derivation module is not free."""


class NotKoszulFree(Exception):
    """Saito basis symbols fail the regular-sequence test."""


class StructureConstantFailure(Exception):
    """A bracket did not resolve against the basis by exact division."""


Matrix = List[List[WeylOp]]


@dataclass
class SpencerComplex:
    fspec: FactorizationSpec
    basis: List[LogDerivation]
    lambdas: List[WeylOp]
    # structure[(a, b)][m] = c^m with [delta_a, delta_b] = sum_m c^m delta_m
    structure: Dict[Tuple[int, int], List[Poly]]
    # differentials[k]: rows indexed by k-subsets, columns by (k-1)-subsets
    differentials: Dict[int, Matrix]

    @property
    def n(self) -> int:
        return len(self.basis)

    def subsets(self, k: int) -> List[Tuple[int, ...]]:
        return list(itertools.combinations(range(self.n), k))


def lie_bracket(d1: LogDerivation, d2: LogDerivation) -> LogDerivation:
    coeffs = tuple(d1.apply(b) - d2.apply(a)
                   for a, b in zip(d1.coeffs, d2.coeffs))
    cof = d1.apply(d2.cofactor) - d2.apply(d1.cofactor)
    return LogDerivation(coeffs, cof)


def _resolve_against_basis(vec: Sequence[Poly],
                           basis: Sequence[LogDerivation]) -> List[Poly]:
    """c with sum_m c_m * basis_m = vec, by Cramer over the Saito matrix."""
    S = saito_matrix(basis)
    det = _det(S)
    out = []
    for m in range(len(basis)):
        Sm = [list(vec) if i == m else list(row) for i, row in enumerate(S)]
        num = _det(Sm)
        if num.is_zero():
            out.append(Poly.zero(num.ctx))
            continue
        q = divide_exact(num, det)
        if q is None:
            raise StructureConstantFailure(
                "bracket is not an O-combination of the basis")
        out.append(q)
    return out


def structure_constants(basis: Sequence[LogDerivation]
                        ) -> Dict[Tuple[int, int], List[Poly]]:
    out: Dict[Tuple[int, int], List[Poly]] = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            br = lie_bracket(basis[a], basis[b])
            out[(a, b)] = _resolve_against_basis(br.coeffs, basis)
    return out


def spencer_complex(fspec: FactorizationSpec,
                    basis: Optional[Sequence[LogDerivation]] = None
                    ) -> SpencerComplex:
    """Build the co-complex; requires a free, Koszul-free, reduced divisor."""
    if basis is None:
        sb = saito_basis(fspec.f, fspec.log_derivations("log"))
        if not sb.basis:
            raise NotFree("no Saito basis certificate for f")
        basis = sb.basis
    else:
        basis = list(basis)
        if saito_determinant(basis, fspec.f) is None:
            raise NotFree("supplied basis fails the determinant criterion")
    if not koszul_free_check(fspec.f, basis):
        raise NotKoszulFree("basis symbols are not a regular sequence")

    lambdas = [psi_F(d, fspec) for d in basis]
    struct = structure_constants(basis)
    wctx = fspec.weyl
    n = len(basis)

    diffs: Dict[int, Matrix] = {}
    for k in range(1, n + 1):
        rows = list(itertools.combinations(range(n), k))
        cols = list(itertools.combinations(range(n), k - 1))
        col_index = {J: j for j, J in enumerate(cols)}
        M: Matrix = [[WeylOp.zero(wctx) for _ in cols] for _ in rows]
        for ri, I in enumerate(rows):
            # contraction terms: drop one wedge factor, right-multiply by it
            for j, ij in enumerate(I):
                J = tuple(v for v in I if v != ij)
                sign = -1 if j % 2 else 1
                M[ri][col_index[J]] = M[ri][col_index[J]] + lambdas[ij] * sign
            # bracket terms: fuse two wedge factors through the constants
            for a in range(k):
                for b in range(a + 1, k):
                    K = tuple(v for v in I if v not in (I[a], I[b]))
                    base_sign = -1 if (a + b) % 2 else 1
                    for m, c in enumerate(struct[(I[a], I[b])]):
                        if c.is_zero() or m in K:
                            continue
                        pos = sum(1 for v in K if v < m)
                        sign = base_sign * (-1 if pos % 2 else 1)
                        J = tuple(sorted(K + (m,)))
                        entry = c.moved(wctx, WeylOp) * sign
                        M[ri][col_index[J]] = M[ri][col_index[J]] + entry
        diffs[k] = M
    return SpencerComplex(fspec, list(basis), lambdas, struct, diffs)


def raw_wedge_image(C: SpencerComplex, indices: Sequence[int]
                    ) -> Dict[Tuple[int, ...], WeylOp]:
    """d(1 (x) lambda_{i_1} ^ ... ^ lambda_{i_k}) for an arbitrary ordering
    of distinct indices, straight from the defining formula.  Lets tests
    confirm the alternating bookkeeping without trusting the stored rows."""
    wctx = C.fspec.weyl
    ind = list(indices)
    k = len(ind)
    out: Dict[Tuple[int, ...], WeylOp] = {}

    def add(J: Sequence[int], op: WeylOp):
        # sort the wedge J, tracking the permutation sign; drop repeats
        J = list(J)
        if len(set(J)) != len(J):
            return
        sign = 1
        for i in range(len(J)):
            for j in range(len(J) - 1 - i):
                if J[j] > J[j + 1]:
                    J[j], J[j + 1] = J[j + 1], J[j]
                    sign = -sign
        key = tuple(J)
        cur = out.get(key, WeylOp.zero(wctx))
        out[key] = cur + op * sign

    for j in range(k):
        rest = ind[:j] + ind[j + 1:]
        sign = -1 if j % 2 else 1
        add(rest, C.lambdas[ind[j]] * sign)
    for a in range(k):
        for b in range(a + 1, k):
            lo, hi = min(ind[a], ind[b]), max(ind[a], ind[b])
            flip = 1 if ind[a] < ind[b] else -1
            rest = [v for t, v in enumerate(ind) if t not in (a, b)]
            base_sign = (-1 if (a + b) % 2 else 1) * flip
            for m, c in enumerate(C.structure[(lo, hi)]):
                if c.is_zero():
                    continue
                add([m] + rest, c.moved(wctx, WeylOp) * base_sign)
    return {J: op for J, op in out.items() if not op.is_zero()}


# ---------------------------------------------------------------------------
# chain-condition verification


def matrix_product(A: Matrix, B: Matrix) -> Matrix:
    assert all(len(row) == len(B) for row in A)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        new = []
        for j in range(cols):
            acc = None
            for t, entry in enumerate(row):
                term = entry * B[t][j]
                acc = term if acc is None else acc + term
            new.append(acc)
        out.append(new)
    return out


def matrix_is_zero(A: Matrix) -> bool:
    return all(entry.is_zero() for row in A for entry in row)


@dataclass
class ChainReport:
    d2_zero: bool
    terminal_image_eq_thetaF: bool
    gr_exactness_certificate: bool


def verify_chain_conditions(C: SpencerComplex) -> ChainReport:
    n = C.n
    d2 = all(
        matrix_is_zero(matrix_product(C.differentials[k],
                                      C.differentials[k - 1]))
        for k in range(2, n + 1)
    )

    order = MonomialOrder.grevlex()
    theta = C.fspec.theta_generators()
    ours = LeftIdeal(C.lambdas, order)
    theirs = LeftIdeal(theta, order)
    terminal = (all(theirs.member(l) for l in C.lambdas)
                and all(ours.member(t) for t in theta))

    # graded side: the (0,1,1) symbols of the lambdas must form a regular
    # sequence -- the resolution criterion at the associated-graded level
    gr_ok = regular_sequence([gr_symbol(l, "(0,1,1)") for l in C.lambdas],
                             C.fspec.symbol_vc)
    return ChainReport(d2, terminal, gr_ok)


def dual_lift_check(C: SpencerComplex,
                    fspec: Optional[FactorizationSpec] = None) -> bool:
    """Does shifting every s by one intertwine d with right multiplication
    by f?  Entrywise: shift(d)[i][j] * f == f * d[i][j]."""
    fspec = fspec or C.fspec
    wctx = fspec.weyl
    f_op = fspec.f.moved(wctx, WeylOp)
    shift = {name: WeylOp.var(wctx, name) + 1 for name in wctx.s_names}
    for k, M in C.differentials.items():
        for row in M:
            for entry in row:
                if not entry.subs(shift) * f_op == f_op * entry:
                    return False
    return True


def tau_transposed_chain_holds(C: SpencerComplex) -> bool:
    """Entrywise formal adjoint + transpose must reverse the chain:
    tau(d_{k-1})^T . tau(d_k)^T = 0."""
    n = C.n
    tau_t: Dict[int, Matrix] = {}
    for k, M in C.differentials.items():
        rows, cols = len(M), len(M[0])
        tau_t[k] = [[transpose_tau(M[i][j]) for i in range(rows)]
                    for j in range(cols)]
    return all(
        matrix_is_zero(matrix_product(tau_t[k - 1], tau_t[k]))
        for k in range(2, n + 1)
    )
