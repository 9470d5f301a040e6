"""Fractional Calabi-Yau certificates.

A twisted certificate (ell, m) says that the ell-th power of the derived
Nakayama functor nu sends the regular module to its shift by m, one-sided,
which certifies the isomorphism up to an algebra automorphism twist.
`_least_certificate` reaches the least one by one of two routes, for
both `check_twisted_cy` and `find_twisted_cy`.

The tau_n orbits route reads it off the orbits that `decide_nrf` walks,
following the proof that every n-representation-finite algebra is twisted
fractionally Calabi-Yau.  A stage X of an orbit has Ext^i(X, A) = 0 for
all i != n, so nu X = tau_n X [n] in the derived category.  With nu P_i
= I_i and tau_n^(ell_i - 1) I_i = P_sigma(i) this gives nu^ell_i P_i =
P_sigma(i)[n (ell_i - 1)].  Chaining along i, sigma(i), sigma^2(i), ...,
nu^ell P_i = P_sigma^k(i)[n (ell - k)] whenever ell is the sum of the
first k orbit lengths of the chain; when one ell and one k serve every
i, and sigma is a permutation, nu^ell A = A[n (ell - k)]
(`certificate_from_orbits`).  This computes no Nakayama power.

The tower route iterates nu on the regular module and looks for a
shifted copy of the regular module.  It decides algebras whose orbits
give no certificate, such as those that are not n-representation-finite.
The powers A, nu A, nu^2 A, ... are kept per algebra and cap
(`nakayama_power`), so no power of one algebra is computed twice.

Both the check and the search answer from the least certificate (ell0,
m0) (`_least_certificate`): nu^ell A = A[m] holds exactly when ell0
divides ell and m = (ell / ell0) m0.  At finite global dimension nu is
a triangle functor of D^b(mod A), the Serre functor (Happel), so it
commutes with shifts and keeps isomorphisms.  If ell = q ell0, then
nu^ell A = nu^((q-1) ell0)(A[m0]) = ... = A[q m0], and as A is nonzero
no other shift of A is isomorphic to it.  Conversely let nu^ell A =
A[m] with ell = q ell0 + r and 0 < r < ell0.  Then A[m] = nu^r(nu^(q
ell0) A) = (nu^r A)[q m0], so nu^r A = A[m - q m0], against the
minimality of ell0.  So a check computes no Nakayama power past ell0,
and none at all when the orbits give ell0.

The untwisted check computes the derived tensor powers of the dual
regular bimodule as powers of the Nakayama functor of the enveloping
algebra, and compares against the regular bimodule on the nose.

Both are gated on K_0.  By Krull-Schmidt a twisted certificate (ell, m)
sends each P_v to some P_w[m], so the integer matrix N of the Nakayama
functor on K_0 satisfies N^ell = (-1)^m * (permutation matrix), and an
untwisted one fixes every P_v, so N^ell = (-1)^m * I.  No Nakayama power
is computed for an ell that fails this.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import per_algebra
from .ar import NrfReport, walk_orbits
from .errors import CapExceeded
from .homology import (
    default_cap,
    env_resolution,
    global_dimension,
    is_shifted_regular,
    nakayama,
    stalk_regular,
    tensor_complex,
)
from .linalg import Mat
from .module import dual_regular_bimodule, env_module, is_isomorphic, regular_bimodule


class CyCertificate:
    def __init__(self, ell, m, twisted, evidence=None):
        self.ell = ell
        self.m = m
        self.twisted = twisted
        self.evidence = evidence or {}

    def to_dict(self):
        return {"ell": self.ell, "m": self.m, "twisted": self.twisted,
                "dimension": str(cy_dimension(self)), "route": self.evidence.get("route")}

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
    I_w = ν P_w has the transposed counts.  The rref of [C | I | Cᵀ] is
    [I | C⁻¹ | N] when C is invertible.  Call it once global_dimension
    has returned: then det C = ±1, so C⁻¹ and N are integral."""
    pos = {v: k for k, v in enumerate(alg.vertices)}
    n = len(pos)
    C = [[0] * n for _ in range(n)]
    for b in alg.basis:
        C[pos[b.tgt]][pos[b.src]] += 1
    rows = [C[i] + [int(i == j) for j in range(n)] + [C[j][i] for j in range(n)]
            for i in range(n)]
    R, pivots = Mat.from_rows(rows).rref()
    if pivots != list(range(n)):
        raise ValueError("the Cartan matrix is singular")
    # det C * det C⁻¹ = 1, so C⁻¹ is integral exactly when det C = ±1
    if any(x.denominator != 1 for row in R.a for x in row[n:2 * n]):
        raise ValueError("the Cartan matrix is not invertible over the integers")
    return [[int(x) for x in row[2 * n:]] for row in R.a]


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


@per_algebra
def _k0_tower(alg):
    """[(N, eps), (N^2, eps), ...] as far as built: each power of N as a
    Mat, with its `_permutation_sign`."""
    N = Mat.from_rows(k0_nakayama(alg))
    return [(N, _permutation_sign(N.a))]


def k0_power(alg, ell):
    """(N^ell, eps) with N^ell = eps * (permutation matrix), eps None when
    it is not one.  The powers are kept per algebra; the ones past the
    highest built are made one at a time and appended, so no power or
    sign of one algebra is computed twice."""
    tower = _k0_tower(alg)
    while len(tower) < ell:
        power = tower[-1][0] * tower[0][0]
        tower.append((power, _permutation_sign(power.a)))
    return tower[ell - 1]


def k0_candidates(alg, ell_max):
    """Yield (ell, eps) for each ell <= ell_max with N^ell = eps *
    (permutation matrix): the only ell at which a twisted certificate
    can exist, with (-1)^m = eps for its m.

    The scan stops at the least such ell0, with sign eps0 and N^ell0 =
    eps0 * P: the candidates are exactly the multiples k * ell0, with
    sign eps0^k.  For if N^b is a signed permutation, write b = q * ell0
    + r with 0 <= r < ell0; then N^r = N^b * (eps0 * P)^(-q) is a signed
    permutation too, so r = 0 by the minimality of ell0.  The scan reads
    the powers kept per algebra (`k0_power`), so no power past ell0 is
    built, and a later call builds only the powers it reaches first."""
    for ell0 in range(1, ell_max + 1):
        eps0 = k0_power(alg, ell0)[1]
        if eps0 is not None:
            for k in range(1, ell_max // ell0 + 1):
                yield k * ell0, eps0 ** k
            return


def check_twisted_cy(alg, ell, m, cap=None):
    """True when the ell-th power of the derived Nakayama functor sends
    the regular module to its shift by m, up to automorphism twist.
    False without any Nakayama power unless N^ell = (-1)^m * (permutation
    matrix) on K_0.  Otherwise the answer is read off the least
    certificate (ell0, m0) with ell0 <= ell: True exactly when ell0
    divides ell and m = (ell / ell0) m0.  For nu^(q ell0) A = A[q m0],
    and nu^ell A = A[m] with ell = q ell0 + r, 0 < r < ell0, would give
    nu^r A = A[m - q m0] below ell0 (module docstring).  No power past
    ell0 is built, and none when the tau_n orbits give ell0.  Raises
    CapExceeded when the global dimension or a Nakayama power that is
    built exceeds the cap."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)  # raises CapExceeded when not finite
    candidates = list(k0_candidates(alg, ell))
    if (ell, _shift_sign(m)) not in candidates:
        return False
    cert = _least_certificate(alg, candidates, cap)
    return cert is not None and ell % cert.ell == 0 and m == ell // cert.ell * cert.m


@per_algebra
def _nakayama_tower(alg, cap):
    """[A, nu A, nu^2 A, ...] as far as built under the width cap, which
    is positional so that a tower never serves another cap."""
    return [stalk_regular(alg)]


def nakayama_power(alg, k, cap=None):
    """nu^k of the regular module.  The powers are kept per algebra and
    cap, None read as `default_cap`; the ones past the highest built are
    made one at a time by `nakayama` and appended.  When one raises
    CapExceeded the powers before it stay kept, and the next call raises
    at the same power."""
    if cap is None:
        cap = default_cap(alg)
    tower = _nakayama_tower(alg, cap)
    while len(tower) <= k:
        tower.append(nakayama(tower[-1], cap=cap))
    return tower[k]


TOWER_ROUTE = "one-sided nakayama power"
ORBIT_ROUTE = "tau_n orbits"


def find_twisted_cy(alg, ell_max=24, m_max=24, cap=None):
    """The least twisted certificate (ell0, m0) when ell0 <= ell_max and
    0 <= m0 <= m_max, else None.  No larger ell can carry an m in
    [0, m_max] instead: by the rule of the module docstring the
    certificates are exactly (k ell0, k m0) for k >= 1, and k m0 lies in
    [0, m_max] only if m0 does.  Only the ell of `k0_candidates` can
    carry a certificate; with none, no orbit is walked and no Nakayama
    power is computed.  Raises CapExceeded when the global dimension or a
    computed Nakayama power exceeds the cap, which leaves the search
    undecided."""
    global_dimension(alg, cap)
    cert = _least_certificate(alg, list(k0_candidates(alg, ell_max)), cap)
    return cert if cert is not None and 0 <= cert.m <= m_max else None


def _least_certificate(alg, candidates, cap):
    """The twisted certificate (ell0, m0) with ell0 least, whatever m0,
    or None when no ell of candidates, the list of `k0_candidates`,
    carries one.

    The tau_n orbits route comes first, at n = gl.dim.  Each stage X of
    a walked orbit has Ext^i(X, A) = 0 for i != n, so nu X = tau_n X [n];
    with nu P_i = I_i and tau_n^(ell_i - 1) I_i = P_sigma(i) this gives
    nu^ell_i P_i = P_sigma(i)[n (ell_i - 1)], and `certificate_from_orbits`
    chains these into nu^ell A = A[m].  Each orbit is walked to at most
    the largest candidate stages (ell_i <= ell), and `decide_nrf` at that
    n has already kept the walks on the algebra.  The tower route then
    tests only the candidates below the orbit ell, so that the answer is
    least; when the orbits give no certificate within the candidates, it
    tests every candidate.  It reads nu^ell of the regular module from
    the algebra's tower for this cap (`nakayama_power`), and computes no
    power past the first certificate it finds."""
    if not candidates:
        return None
    n = global_dimension(alg, cap)
    last = candidates[-1][0]
    report = NrfReport(alg, n)
    cert = certificate_from_orbits(report) if walk_orbits(report, last) else None
    if cert is None or cert.ell > last:
        return _tower_search(alg, candidates, cap)
    if (cert.ell, _shift_sign(cert.m)) not in candidates:
        raise AssertionError(f"the tau_{n} orbits give nu^{cert.ell} of the regular module "
                             f"as its shift by {cert.m}, which K_0 rules out")
    below = [(ell, eps) for ell, eps in candidates if ell < cert.ell]
    return _tower_search(alg, below, cap) or cert


def certificate_from_orbits(report):
    """The twisted certificate read off the orbit lengths report.ell and
    endpoints report.sigma at report.n, or None.

    Along the chain i, sigma(i), sigma^2(i), ... the partial sums of the
    orbit lengths are the powers ell with nu^ell P_i = P_sigma^k(i)[n (ell
    - k)] after k steps.  The least ell that every chain hits is taken;
    every i must give the same m = n (ell - k), and the endpoints
    sigma^k(i) must form a permutation.  Since the k are then equal, the
    endpoints form a permutation exactly when sigma does."""
    ell, sigma = report.ell, report.sigma
    if not ell or set(sigma) != set(ell) or set(sigma.values()) != set(ell):
        return None
    # (partial sum, steps, endpoint) per chain; a common ell exists, since
    # the lcm of the sums over the cycles of sigma is one
    state = {i: (ell[i], 1, sigma[i]) for i in ell}
    while True:
        top = max(s for s, _, _ in state.values())
        if all(s == top for s, _, _ in state.values()):
            break
        for i, (s, k, v) in state.items():
            while s < top:
                s, k, v = s + ell[v], k + 1, sigma[v]
            state[i] = (s, k, v)
    ms = {report.n * (top - k) for _, k, _ in state.values()}
    if len(ms) != 1:
        return None
    return CyCertificate(top, ms.pop(), twisted=True, evidence={"route": ORBIT_ROUTE})


def _tower_search(alg, candidates, cap):
    """The first (ell, eps) of candidates at which nu^ell of the regular
    module is a shift of it, as a certificate."""
    for ell, eps in candidates:
        m = is_shifted_regular(nakayama_power(alg, ell, cap))
        if m is None:
            continue
        if _shift_sign(m) != eps:
            raise AssertionError(f"nu^{ell} of the regular module is its shift by {m}, "
                                 f"but N^{ell} on K_0 has sign {eps}")
        return CyCertificate(ell, m, twisted=True, evidence={"route": TOWER_ROUTE})
    return None


# -- bimodule-level machinery ------------------------------------------


def dual_regular_perf(alg):
    """Minimal resolution of the dual regular bimodule by enveloping-
    algebra projectives, as a complex in degrees [-length, 0]."""
    return _bimodule_resolution(alg, dual_regular_bimodule)


def _bimodule_resolution(alg, bimodule):
    """The complete minimal resolution of bimodule(alg) over the
    enveloping algebra E, the one kept per algebra at default_cap(E)
    (`env_resolution`)."""
    res = env_resolution(alg, bimodule, default_cap(env_module(alg, bimodule).alg))
    if not res.complete:
        raise CapExceeded(f"bimodule resolution of {bimodule.__name__}")
    return res


def check_untwisted_cy(alg, ell, m, cap=None):
    """True when the ell-fold derived tensor power of the dual regular
    bimodule DA is the regular bimodule A shifted by m, with no twist.
    False without any tensor power unless N^ell = (-1)^m * I on K_0:
    (ell, (-1)^m) must be one of the `k0_candidates`, and N^ell, read
    from the powers kept per algebra (`k0_power`), must have a nonzero
    diagonal.

    The tensor power is a power of the derived Nakayama functor nu_E of
    the enveloping algebra E = A (x) A^op, which sends a bimodule X to
    DE (x)_E X = DA (x)_A X (x)_A DA.  Both sides are right exact and
    agree on E, so they agree on every bimodule (Eilenberg-Watts); an
    E-projective is projective on each side, so on complexes of
    E-projectives both compute the derived functors.  Hence nu_E^k A =
    DA^(x 2k) and nu_E^k DA = DA^(x 2k+1): the check applies nu_E
    floor(ell / 2) times to the E-resolution of A (ell even) or DA (ell
    odd).  The last power is not replaced by projectives: its cohomology
    is that of DE (x)_E C for the power C before it.  cap is the width
    cap of each projective replacement."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)
    # a signed permutation matrix with a nonzero diagonal is ±I
    if ((ell, _shift_sign(m)) not in k0_candidates(alg, ell)
            or not all(row[i] for i, row in enumerate(k0_power(alg, ell)[0].a))):
        return False
    C = dual_regular_perf(alg) if ell % 2 else _bimodule_resolution(alg, regular_bimodule)
    for _ in range(ell // 2 - 1):
        C = nakayama(C, cap=cap)
    C = tensor_complex(dual_regular_bimodule(C.alg), C) if ell > 1 else C.to_mod_complex()
    # the cheap criterion first: no cohomology off -m, by ranks alone; an
    # H^{-m} = 0 then fails the dimension vector test below
    if any(C.cohomology_dim(i) for i in C.degrees() if i != -m):
        return False
    H = C.cohomology(-m)
    reg = env_module(alg, regular_bimodule)
    if H.dim_vector() != reg.dim_vector():
        return False
    return bool(is_isomorphic(H, reg))
