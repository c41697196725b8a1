"""Strong subspace designs and the four bridges down to ordinary designs.

Strong designs here carry F_{q^m}-subspace members, on the base
``design.MemberTuple`` of ordinary designs, and are measured against
F_{q^m}-subspaces with top-field dimensions (the form in which they are
consumed by the conversions), through their F_q-expansion:
dim_q(V meet W) = m dim_{q^m}(V meet W), so the ordinary ``design_profile``
of the expanded members, divided by m, is the strong profile.  The bridges:

* intersect with a subspace-evasive F_q-subspace,
* reinterpret over an intermediate field F_q < F_{q^m} < F_{q^c},
* embed polynomial spaces through residues at an orbit of high-degree
  places p, tau p, ..., tau^(k-1) p,
* read off Cameron-Liebler sets of projective n-spaces.

Every conversion re-certifies its advertised design parameters by
brute-force profile at desk scale.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from subdesigns import linalg
from subdesigns.design import MemberTuple, SubspaceDesign, design_profile
from subdesigns.errors import (
    AmbientMismatch,
    BadParameters,
    DegreeTooLarge,
    NotAMultiple,
    NotEvasive,
    NotInBaseField,
    NotIrreducible,
    PlacesCollide,
    SpanTooSmall,
    certify,
)
from subdesigns.fieldcore import DTYPE, poly_eval, poly_is_irreducible, poly_monic, poly_trim, smallest_root
from subdesigns.gf import FieldTower, code_of, make_tower, tower_for
from subdesigns.subspace import (
    DEFAULT_ENUMERATION_CAP,
    AmbientSpace,
    FqmSubspace,
    FqSubspace,
    fqm_subspace_blocks,
    gaussian_binomial,
    meet_join,
    span_fq,
)


class StrongSubspaceDesign(MemberTuple):
    """Ordered tuple of F_{q^m}-subspaces of one ambient space."""

    _kind = "a strong design"


def verify_strong(
    S: StrongSubspaceDesign,
    s: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Exact max of sum_i dim(V_i meet W) over s-dimensional F_{q^m}-subspaces W."""
    D = SubspaceDesign(S.ambient, [V.expand_fq() for V in S.members])
    return design_profile(D, s, cap=cap).A_min // S.ambient.tower.m


def evasive_intersect(
    S: StrongSubspaceDesign,
    E: FqSubspace,
    c,
    s: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Members V_i meet E for an (h, ch)-evasive E; an (s, cA) design."""
    if E.ambient != S.ambient:
        raise AmbientMismatch("E must live in the strong design's ambient")
    c = Fraction(c)
    if c <= 0:
        raise BadParameters("c must be positive")
    for h in range(1, s + 1):
        worst = design_profile(SubspaceDesign(E.ambient, [E]), h, cap=cap).A_min
        if worst > c * h:
            raise NotEvasive(f"E meets an {h}-dimensional subspace in dimension {worst} > {c}*{h}")
    t = S.ambient.tower
    members = [meet_join(V.expand_fq(), E)[0] for V in S.members]
    out = SubspaceDesign(S.ambient, members)
    if out.span_dim() < s:
        raise SpanTooSmall("intersections span too little")
    A = verify_strong(S, s, cap=cap)
    prof = design_profile(out, s, cap=cap)
    certify(prof.A_min <= c * A, "evasive intersection exceeded the (s, cA) certificate")
    d = E.dim
    for U, V in zip(out.members, S.members):
        certify(U.dim >= t.m * V.dim - t.m * S.ambient.k + d, "dimension floor violated")
    return out


def intermediate_field_design(
    S: StrongSubspaceDesign,
    c: int,
    s: int,
    A: int | None = None,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Reinterpret the members as F_q-subspaces of F_{q^c}^k; an (s, mA) design."""
    t = S.ambient.tower
    if c % t.m:
        raise NotAMultiple(f"c = {c} is not a multiple of m = {t.m}")
    big = make_tower(t.p, t.h, c)
    # embed F_{q^m} into F_{q^c}: y goes to the smallest root of its modulus, and
    # F_q codes embed as codes < q, so a code's digit polynomial is evaluated there
    root = smallest_root(big.fqm, t.fqm_modulus)
    amb_big = AmbientSpace(big, S.ambient.k)
    members = []
    for V in S.members:
        digits = t.fqm.to_digits(S.ambient.contract(V.expand_fq().basis))
        U = span_fq(amb_big, poly_eval(big.fqm, np.moveaxis(digits, -1, 0), root))
        certify(U.dim == t.m * V.dim, "reinterpretation must preserve F_q-dimension")
        members.append(U)
    out = SubspaceDesign(amb_big, members)
    if A is None:
        A = verify_strong(S, s, cap=cap)
    prof = design_profile(out, s, cap=cap)
    certify(prof.A_min <= t.m * A, "intermediate-field certificate failed")
    return out


def places_embed(
    tower: FieldTower,
    V_list,
    p_poly,
    zeta,
    k: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Residue embedding of polynomial spaces at the places p, tau p, ..., tau^(k-1) p.

    tower fixes F_q (coefficients) and F_{q^m} (residue fields, m = deg p);
    zeta is a primitive element of F_q and tau: x -> zeta x.  Members are
    pi(V_i) for pi(f) = (f mod p, ..., f mod tau^(k-1) p) under the fixed
    residue isomorphisms (smallest root of each place in F_{q^m}).
    """
    t = tower
    q = t.q
    fq = t.fq
    p_poly, zeta = [code_of(cf) for cf in p_poly], code_of(zeta)
    V_list = [[[code_of(cf) for cf in g] for g in gens] for gens in V_list]
    if not all(0 <= c < q for c in [*p_poly, zeta, *(cf for gens in V_list for g in gens for cf in g)]):
        raise NotInBaseField(f"zeta and the coefficients of p and of the members must be codes of F_{q}, in [0, {q})")
    p_poly = poly_monic(fq, p_poly)
    m = len(p_poly) - 1
    if m != t.m:
        raise BadParameters(f"p must have degree m = {t.m}")
    if m > q - 1:
        raise BadParameters("the construction needs m <= q - 1")
    if not poly_is_irreducible(fq, p_poly):
        raise NotIrreducible("p must be irreducible over F_q")
    if len({int(fq.pow(zeta, e)) for e in range(1, q)}) != q - 1:
        raise BadParameters("zeta must be a primitive element of F_q")

    places = []
    zpow = 1
    for _ in range(min(k, q)):  # tau has order q - 1: past q - 1 places they repeat
        shifted = [int(fq.mul(cf, int(fq.pow(zpow, i)))) for i, cf in enumerate(p_poly)]
        places.append(tuple(poly_monic(fq, shifted)))
        zpow = int(fq.mul(zpow, zeta))
    if len(set(places)) != k:
        raise PlacesCollide("the places p, tau p, ..., tau^(k-1) p must be distinct")

    roots = np.array([smallest_root(t.fqm, place) for place in places])
    amb = AmbientSpace(t, k)
    members = []
    for gens in V_list:
        gens = [poly_trim(g) for g in gens]
        if any(len(g) - 1 >= k * m for g in gens):
            raise DegreeTooLarge(f"polynomials must have degree < km = {k * m}")
        padded = np.array([g + [0] * (k * m - len(g)) for g in gens], dtype=DTYPE).reshape(-1, k * m)
        span_dim_in = linalg.rank(fq, padded)
        U = span_fq(amb, [poly_eval(t.fqm, g, roots) for g in gens])
        certify(U.dim == span_dim_in, "the residue map must be injective on F_q[x]_{<km}")
        members.append(U)
    return SubspaceDesign(amb, members)


# --- Cameron-Liebler sets -------------------------------------------------------


def _cl_w(x: int, q: int, n: int, k: int, i: int) -> int:
    """Intersection count w_i for members of a parameter-x Cameron-Liebler set.

    The i = n+1 term carries the vanishing Gaussian binomial (n choose i),
    so the whole product is 0 there despite the 0 denominator in the
    first factor; that reading matches the brute-force sweeps.
    """
    bin2 = gaussian_binomial(n, i, q)
    if bin2 == 0:
        return 0
    part = Fraction(x - 1) * Fraction(q ** (n + 1) - 1, q ** (n - i + 1) - 1) + Fraction(
        q**i * (q ** (k - n) - 1), q**i - 1
    )
    val = part * q ** (i * (i - 1)) * gaussian_binomial(k - n - 1, i - 1, q) * bin2
    certify(val.denominator == 1, "Cameron-Liebler count w_i is not an integer")
    return int(val)


def _cl_w_prime(x: int, q: int, n: int, k: int, i: int) -> int:
    return x * gaussian_binomial(k - n - 1, i - 1, q) * gaussian_binomial(n + 1, i, q) * q ** (i * (i - 1))


def cameron_liebler(
    kind: str,
    n: int,
    k: int,
    q: int,
    params: dict | None = None,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> tuple[StrongSubspaceDesign, dict]:
    """A Cameron-Liebler set of projective n-spaces of PG(k, q) as a strong design.

    Kinds: point_pencil (all n-spaces through a fixed point), in_hyperplane
    (all n-spaces inside a fixed hyperplane), mixed (their disjoint union
    for a point off the hyperplane) and complement {"of": kind}.  Members
    come in enumeration order, read off masks over the blocks of
    fqm_subspace_blocks.  Returns the member list plus the closed-form
    parameter x, the counts w_i / w'_i and the strong parameter A.
    """
    if k < 2 * n + 1:
        raise BadParameters("Cameron-Liebler sets need k >= 2n + 1")
    tower = tower_for(q, 1)
    base = (params or {}).get("of", "point_pencil") if kind == "complement" else kind
    # base kind -> (coordinate of the pencil's point or None, members inside x_k = 0 taken, x)
    shapes = {"point_pencil": (0, False, 1), "in_hyperplane": (None, True, 1), "mixed": (k, True, 2)}
    if not isinstance(base, str) or base not in shapes:
        raise BadParameters(f"unknown base kind {base!r}")
    anchor, hyperplane, predicted_x = shapes[base]
    if kind == "complement":
        predicted_x = q ** (n + 1) + 1 - predicted_x

    amb = AmbientSpace(tower, k + 1)
    members = []
    for W, piv in fqm_subspace_blocks(amb, n + 1, cap=cap):
        keep = ~W[:, :, -1].any(axis=1) if hyperplane else np.zeros(len(W), dtype=bool)
        if anchor is not None:  # W contains the point e iff rk [W; e] = n + 1
            e = np.zeros((len(W), 1, k + 1), dtype=DTYPE)
            e[:, 0, anchor] = 1
            keep |= linalg.rank_batch(tower.fqm, np.concatenate([W, e], axis=1)) == n + 1
        if kind == "complement":
            keep = ~keep
        members += [FqmSubspace(amb, M, piv) for M in W[keep]]
    if not members:
        raise BadParameters("the requested set is empty")
    S = StrongSubspaceDesign(amb, members)

    denom = gaussian_binomial(k, n, q)
    if len(members) % denom:
        raise BadParameters("set size is not a multiple of (k choose n)_q; the pieces overlap")
    x = len(members) // denom
    certify(x == predicted_x, f"parameter came out {x}, predicted {predicted_x}")
    w = [_cl_w(x, q, n, k, i) for i in range(1, n + 2)]
    w_prime = [_cl_w_prime(x, q, n, k, i) for i in range(1, n + 2)]
    A = n + 1 + sum(w[i - 1] * (n + 1 - i) for i in range(1, n + 2))
    return S, {"x": x, "w": w, "w_prime": w_prime, "A": A}

