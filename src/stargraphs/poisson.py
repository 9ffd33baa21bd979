"""Poisson structures with polynomial coefficients, the Jacobi-identity
check, and the named presets.

``jacobiator(p)`` has components J^{ijk} = sum_l ( p^{il} d_l p^{jk}
+ p^{jl} d_l p^{ki} + p^{kl} d_l p^{ij} ) on strictly increasing (i,j,k),
which is {x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}} for the bracket
{f, g} = sum_{a,b} p^{ab} d_a f d_b g.  A ``PoissonStructure`` computes it
once at construction: ``is_poisson`` is True iff every component vanishes.
"""

from __future__ import annotations

from .errors import DimensionError, PresetError
from .poly import Poly, parse_poly


class PoissonStructure:
    """Dimension d plus an antisymmetric matrix of Poly entries; only the
    strictly upper triangle is stored.  ``is_poisson`` records whether the
    Jacobi identity holds."""

    __slots__ = ("d", "_upper", "is_poisson", "_pairs", "_deriv_cache",
                 "_op_cache", "label")

    def __init__(self, d: int, entries, label: str = ""):
        """entries: mapping (i, j) -> Poly with i != j; lower-triangle keys are
        folded in with a sign flip."""
        if d < 2:
            raise DimensionError("Poisson structure needs d >= 2, got %d" % d)
        upper: dict[tuple, Poly] = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (i, j), poly in items:
            if not (1 <= i <= d and 1 <= j <= d) or i == j:
                raise DimensionError("bad matrix position (%d, %d) for d=%d" % (i, j, d))
            if poly.d != d:
                raise DimensionError("entry (%d, %d) has wrong dimension" % (i, j))
            key, signed = ((i, j), poly) if i < j else ((j, i), -poly)
            if key in upper:
                raise DimensionError("duplicate matrix position (%d, %d)" % (i, j))
            if not signed.is_zero:
                upper[key] = signed
        set_field = object.__setattr__
        set_field(self, "d", d)
        set_field(self, "_upper", upper)
        # all ordered index pairs (i, j) with a nonzero entry, both orientations
        set_field(self, "_pairs",
                  tuple(sorted(pair for (i, j) in upper for pair in ((i, j), (j, i)))))
        set_field(self, "_deriv_cache", {})
        set_field(self, "_op_cache", {})
        set_field(self, "label", label or "poisson(d=%d)" % d)
        set_field(self, "is_poisson", not jacobiator(self))

    def __setattr__(self, name, value):
        raise AttributeError("PoissonStructure fields are fixed at construction")

    def entry(self, i: int, j: int) -> Poly:
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise DimensionError("matrix position (%d, %d) out of range" % (i, j))
        if i == j:
            return Poly.zero(self.d)
        if i < j:
            poly = self._upper.get((i, j))
            return poly if poly is not None else Poly.zero(self.d)
        poly = self._upper.get((j, i))
        return -poly if poly is not None else Poly.zero(self.d)

    def nonzero_ordered_pairs(self):
        """All ordered index pairs (i, j) with a nonzero entry, both
        orientations, sorted."""
        return self._pairs

    def entry_derivative(self, i: int, j: int, alpha: tuple) -> Poly:
        """d^alpha p^{ij}, cached per (i, j, alpha)."""
        key = (i, j, alpha)
        poly = self._deriv_cache.get(key)
        if poly is None:
            poly = self.entry(i, j).derive_multi(alpha)
            self._deriv_cache[key] = poly
        return poly

    def __repr__(self) -> str:
        return "PoissonStructure(%s, %s)" % (
            self.label, "poisson" if self.is_poisson else "not_poisson")


def jacobiator(p: PoissonStructure) -> dict:
    """The nonzero components {(i, j, k): J^{ijk}} on strictly increasing
    triples, J^{ijk} = sum_l ( p^{il} d_l p^{jk} + p^{jl} d_l p^{ki}
    + p^{kl} d_l p^{ij} ); empty iff p is Poisson."""
    d = p.d
    comps: dict[tuple, Poly] = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for k in range(j + 1, d + 1):
                total = Poly.zero(d)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(1, d + 1):
                        first = p.entry(a, l)
                        if first.is_zero:
                            continue
                        second = p.entry(b, c).derive(l)
                        if second.is_zero:
                            continue
                        total = total + first * second
                if not total.is_zero:
                    comps[(i, j, k)] = total
    return comps


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("symplectic2", "so3", "sl2", "jacobian", "free2")
_PARAMETER_DIMENSION = {"jacobian": 3, "free2": 2}  # the presets that take a polynomial


def _check_preset(name: str, has_parameter: bool) -> None:
    """Reject an unknown preset name, and a parameter given to a preset that
    takes none."""
    if name not in PRESET_NAMES:
        raise PresetError("unknown preset %r (expected one of %s)"
                          % (name, ", ".join(PRESET_NAMES)))
    if has_parameter and name not in _PARAMETER_DIMENSION:
        raise PresetError("preset %r takes no parameter" % name)


def preset_poisson(name: str, param: Poly | None = None) -> PoissonStructure:
    """Construct a named Poisson structure; one that fails the Jacobi
    identity is rejected."""
    _check_preset(name, param is not None)
    x = Poly.variable
    if name == "symplectic2":
        p = PoissonStructure(2, {(1, 2): Poly.const(2, 1)}, label="symplectic2")
    elif name == "so3":
        p = PoissonStructure(3, {(1, 2): x(3, 3), (1, 3): -x(3, 2), (2, 3): x(3, 1)},
                             label="so3")
    elif name == "sl2":
        p = PoissonStructure(3, {(1, 2): x(3, 3), (1, 3): x(3, 1).scale(-2),
                                 (2, 3): x(3, 2).scale(2)}, label="sl2")
    elif name == "jacobian":
        if param is None or param.d != 3:
            raise PresetError("jacobian preset needs a d=3 polynomial parameter")
        p = PoissonStructure(3, {(1, 2): param.derive(3), (1, 3): -param.derive(2),
                                 (2, 3): param.derive(1)},
                             label="jacobian(%s)" % param)
    else:
        if param is None or param.d != 2:
            raise PresetError("free2 preset needs a d=2 polynomial parameter")
        p = PoissonStructure(2, {(1, 2): param}, label="free2(%s)" % param)
    if not p.is_poisson:
        raise PresetError("preset %r failed the Jacobi check" % name)
    return p


def preset_from_string(spec: str) -> PoissonStructure:
    """CLI grammar: ``name`` or ``name:poly`` (jacobian and free2 take a poly);
    the name is checked before the poly is parsed."""
    name, sep, param_text = spec.partition(":")
    name = name.strip()
    _check_preset(name, bool(sep))
    if not sep:
        return preset_poisson(name)
    return preset_poisson(name, parse_poly(param_text, _PARAMETER_DIMENSION[name]))
