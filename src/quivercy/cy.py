"""Fractional Calabi-Yau certificates.

The twisted check is one-sided: it iterates the derived Nakayama functor
on the regular module and looks for a shifted copy of the regular module,
which certifies the isomorphism up to an algebra automorphism.  The
untwisted check works with complexes of bimodules over the enveloping
algebra and compares against the regular bimodule on the nose.

Both are gated on K_0.  By Krull-Schmidt a twisted certificate (ell, m)
sends each P_v to some P_w[m], so the integer matrix N of the Nakayama
functor on K_0 satisfies N^ell = (-1)^m * (permutation matrix), and an
untwisted one fixes every P_v, so N^ell = (-1)^m * I.  No Nakayama power
is computed for an ell that fails this.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ar import _env_resolution
from .errors import CapExceeded
from .homology import (
    PerfComplex,
    global_dimension,
    is_shifted_regular,
    minimize,
    nakayama,
    stalk_regular,
)
from .module import (
    bimodule_to_env_module,
    is_isomorphic,
    regular_bimodule,
)


class CyCertificate:
    def __init__(self, ell, m, twisted, evidence=None):
        self.ell = ell
        self.m = m
        self.twisted = twisted
        self.evidence = evidence or {}

    def to_dict(self):
        return {"ell": self.ell, "m": self.m, "twisted": self.twisted,
                "dimension": str(cy_dimension(self))}

    def __repr__(self):
        kind = "twisted" if self.twisted else "untwisted"
        return f"CyCertificate({self.m}/{self.ell}, {kind})"


def cy_dimension(cert: CyCertificate) -> Fraction:
    return Fraction(cert.m, cert.ell)


def combine_cy(certs):
    """Tensor rule for Calabi-Yau fractions: the product of algebras with
    certificates (m_i, ell_i) has ell = lcm(ell_i) and m = ell * sum of
    the fractions."""
    ell = lcm(*(c.ell for c in certs))
    total = sum(Fraction(c.m, c.ell) for c in certs)
    m = ell * total
    assert m.denominator == 1
    return int(m), ell


# -- the K_0 gate -------------------------------------------------------


def k0_nakayama(alg):
    """The matrix N = C⁻¹Cᵀ of the Nakayama functor on K_0 in the basis
    of the classes [P_v], as integer rows.  C[u][w] counts the basis
    elements from w to u, the dimension of P_w at u; the injective
    I_w = ν P_w has the transposed counts.  Call it once global_dimension
    has returned: then det C = ±1, so N is integral."""
    return alg.cached("k0_nu", lambda: _k0_nakayama(alg))


def _k0_nakayama(alg):
    pos = {v: k for k, v in enumerate(alg.vertices)}
    n = len(pos)
    C = [[0] * n for _ in range(n)]
    for b in alg.basis:
        C[pos[b.tgt]][pos[b.src]] += 1
    # fraction-free Gauss-Jordan (Bareiss) on [C | Cᵀ]: every division is
    # exact, and each diagonal entry ends as ±det C
    a = [C[i] + [C[j][i] for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise ValueError("the Cartan matrix is singular")
        a[k], a[p] = a[p], a[k]
        piv = a[k]
        for i in range(n):
            f = a[i][k]
            if i != k and (f or piv[k] != prev):
                a[i] = [(piv[k] * x - f * y) // prev for x, y in zip(a[i], piv)]
        prev = piv[k]
    if prev not in (1, -1):
        raise ValueError("the Cartan matrix is not invertible over the integers")
    return [[x * prev for x in row[n:]] for row in a]


def _k0_powers(alg, ell_max):
    """N^1, ..., N^ell_max, one at a time."""
    N = k0_nakayama(alg)
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*N)]
    power = N
    yield power
    for _ in range(1, ell_max):
        power = [[sum(row[k] * x for k, x in col) for col in cols] for row in power]
        yield power


def _permutation_sign(M):
    """eps when M = eps * (permutation matrix) with eps = ±1, else None."""
    entries = [[(j, x) for j, x in enumerate(row) if x] for row in M]
    if any(len(e) != 1 for e in entries):
        return None
    cols, signs = zip(*(e[0] for e in entries))
    if len(set(cols)) != len(M) or len(set(signs)) != 1 or signs[0] not in (1, -1):
        return None
    return signs[0]


def _shift_sign(m):
    """The sign (-1)^m of a shift by m on K_0."""
    return -1 if m % 2 else 1


def k0_candidates(alg, ell_max):
    """Yield (ell, eps) for each ell <= ell_max with N^ell = eps *
    (permutation matrix): the only ell at which a twisted certificate
    can exist, with (-1)^m = eps for its m."""
    for ell, power in enumerate(_k0_powers(alg, ell_max), 1):
        eps = _permutation_sign(power)
        if eps is not None:
            yield ell, eps


def check_twisted_cy(alg, ell, m, cap=None):
    """True when the ell-th power of the derived Nakayama functor sends
    the regular module to its shift by m, up to automorphism twist.
    False without any Nakayama power unless N^ell = (-1)^m * (permutation
    matrix) on K_0."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)  # raises CapExceeded when not finite
    *_, power = _k0_powers(alg, ell)
    if _permutation_sign(power) != _shift_sign(m):
        return False
    C = stalk_regular(alg)
    for _ in range(ell):
        C = nakayama(C, cap=cap)
    return is_shifted_regular(C) == m


def find_twisted_cy(alg, ell_max=24, m_max=24, cap=None):
    """Smallest ell admitting a twisted certificate, or None when no ell up
    to ell_max admits one.  Only the ell of `k0_candidates` are tested,
    and no Nakayama power past the last one tested is computed.  Raises
    CapExceeded when the global dimension or a computed Nakayama power
    exceeds the cap, which leaves the search undecided."""
    global_dimension(alg, cap)
    C = stalk_regular(alg)
    reached = 0
    for ell, eps in k0_candidates(alg, ell_max):
        for _ in range(ell - reached):
            C = nakayama(C, cap=cap)
        reached = ell
        m = is_shifted_regular(C)
        if m is None:
            continue
        if _shift_sign(m) != eps:
            raise AssertionError(f"nu^{ell} of the regular module is its shift by {m}, "
                                 f"but N^{ell} on K_0 has sign {eps}")
        if 0 <= m <= m_max:
            return CyCertificate(ell, m, twisted=True,
                                 evidence={"route": "one-sided nakayama power"})
    return None


# -- bimodule-level machinery ------------------------------------------


def dual_regular_perf(alg):
    """Minimal resolution of the dual regular bimodule by enveloping-
    algebra projectives, as a complex in degrees [-length, 0]."""
    res, E = _env_resolution(alg, 0)
    if not res.complete:
        raise CapExceeded("bimodule resolution of the dual regular module")
    return res.to_perf(), E


def tensor_complex_over_base(C: PerfComplex, D: PerfComplex, alg, E):
    """Tensor product over the base algebra of two complexes of
    enveloping-projective bimodules, again based in such bimodules.

    The projective at the vertex pair (u, v) tensored with the one at
    (u2, v2) splits into one copy of the projective at (u, v2) for every
    algebra basis element from u2 to v.
    """
    a, aop, pair_index = E.tensor_info
    f = alg.field
    idem = alg.idem
    mid = {}
    for u in alg.vertices:
        for v in alg.vertices:
            mid[(v, u)] = [i for i, b in enumerate(alg.basis)
                           if b.tgt == v and b.src == u]
    # summand lists per total degree: (p, r, s, middle basis index)
    terms = {}
    layout = {}
    pos = {}
    for p, ct in C.terms.items():
        for q, dt in D.terms.items():
            k = p + q
            for r, (u, v) in enumerate(ct):
                for s, (u2, v2) in enumerate(dt):
                    for bidx in mid[(v, u2)]:
                        terms.setdefault(k, []).append((u, v2))
                        layout.setdefault(k, []).append((p, r, s, bidx))
    for k, lst in layout.items():
        for c, ent in enumerate(lst):
            pos[(k, ent)] = c

    def add_elt(entry, eidx, coeff):
        cur = entry.get(eidx, f.zero()) + coeff
        if cur:
            entry[eidx] = cur
        elif eidx in entry:
            del entry[eidx]

    diffs = {}
    for k in terms:
        if k + 1 not in terms:
            continue
        d = [[{} for _ in layout[k]] for _ in layout[k + 1]]
        for col, (p, r, s, bidx) in enumerate(layout[k]):
            q = k - p
            b = alg.basis[bidx]
            # first-factor differential, degree p -> p+1
            em = C.diffs.get(p)
            if em is not None:
                for r2 in range(len(em)):
                    elt = em[r2][r]
                    if not elt:
                        continue
                    for eidx, cc in elt.items():
                        ii, jj = _rev(E)[eidx]
                        prod = alg.mul(jj, bidx)  # j * b
                        for b2, cb in prod.items():
                            row = pos.get((k + 1, (p + 1, r2, s, b2)))
                            if row is None:
                                continue
                            out_eidx = pair_index[(ii, idem[D.terms[q][s][1]])]
                            add_elt(d[row][col], out_eidx, cc * cb)
            # second-factor differential, degree q -> q+1, sign (-1)^p
            em2 = D.diffs.get(q)
            if em2 is not None:
                sign = f.one() if p % 2 == 0 else -f.one()
                for s2 in range(len(em2)):
                    elt = em2[s2][s]
                    if not elt:
                        continue
                    for eidx, cc in elt.items():
                        ii, jj = _rev(E)[eidx]
                        prod = alg.mul(bidx, ii)  # b * i
                        for b2, cb in prod.items():
                            row = pos.get((k + 1, (p, r, s2, b2)))
                            if row is None:
                                continue
                            u = C.terms[p][r][0]
                            out_eidx = pair_index[(idem[u], jj)]
                            add_elt(d[row][col], out_eidx, sign * cc * cb)
        diffs[k] = d
    out = PerfComplex(E, terms, diffs)
    return out


def _rev(E):
    return E.cached("pair_rev", lambda: {k: ij for ij, k in E.tensor_info[2].items()})


def _regular_env_module(alg, E):
    return alg.cached("reg_env_mod", lambda: bimodule_to_env_module(regular_bimodule(alg), E))


def check_untwisted_cy(alg, ell, m, cap=None):
    """True when the ell-fold derived tensor power of the dual regular
    bimodule is the regular bimodule shifted by m, with no twist.  False
    without any tensor power unless N^ell = (-1)^m * I on K_0."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)
    *_, power = _k0_powers(alg, ell)
    # a signed permutation matrix with a nonzero diagonal is ±I
    if (_permutation_sign(power) != _shift_sign(m)
            or not all(row[i] for i, row in enumerate(power))):
        return False
    P0, E = dual_regular_perf(alg)
    C = P0
    for _ in range(ell - 1):
        C = minimize(tensor_complex_over_base(P0, C, alg, E))
    table = C.cohomology_table()
    if set(table) != {-m}:
        return False
    H = table[-m]
    reg = _regular_env_module(alg, E)
    if H.dim_vector() != reg.dim_vector():
        return False
    return bool(is_isomorphic(H, reg))
