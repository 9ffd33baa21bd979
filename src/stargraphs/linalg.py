"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts mapping column index -> nonzero exact rational, ``int`` or
``Fraction``.  Pivot rows are normalised by ``Fraction`` division, so rows of
``int`` never turn into floats.  Two deterministic pivot strategies are
provided so that every certificate can be re-verified with an independent
elimination order:

* ``markowitz``: pick the pivot minimizing (row_nnz - 1) * (col_nnz - 1),
  ties broken by (column, row);
* ``ordered``: leftmost unpivoted column, lowest surviving row.

No modular arithmetic is used anywhere; all verdicts are unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BudgetExceededError

Row = dict

STRATEGIES = ("markowitz", "ordered")


def _eliminate_into(target: Row, pivot_row: Row, factor: Fraction):
    """target -= factor * pivot_row, in place."""
    for col, value in pivot_row.items():
        cur = target.get(col)
        if cur is None:
            target[col] = -factor * value
        else:
            cur -= factor * value
            if cur:
                target[col] = cur
            else:
                del target[col]


@dataclass
class Echelon:
    """Reduced row echelon data for the system A x = b."""

    ncols: int
    pivot_cols: list  # one per reduced row, ascending along rows
    rows: list  # RREF rows (pivot coefficient 1)
    rhs: list  # reduced right-hand sides aligned with rows
    inconsistent: bool  # some row reduced to 0 = nonzero

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def particular_solution(self) -> dict | None:
        """Free variables set to 0; None when inconsistent."""
        if self.inconsistent:
            return None
        sol = {}
        for row_idx, col in enumerate(self.pivot_cols):
            value = self.rhs[row_idx]
            if value:
                sol[col] = value
        return sol

    def nullspace(self) -> list:
        """Basis of the homogeneous nullspace, one sparse vector per free
        column, deterministic order."""
        pivot_set = set(self.pivot_cols)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = {free: Fraction(1)}
            for row_idx, col in enumerate(self.pivot_cols):
                coeff = self.rows[row_idx].get(free)
                if coeff:
                    vec[col] = -coeff
            basis.append(vec)
        return basis


def echelon(rows: Iterable[Row], rhs: Iterable | None = None, ncols: int = 0,
            strategy: str = "markowitz", nonzero_budget: int | None = None) -> Echelon:
    """Bring A (with optional b) to reduced row echelon form.

    ``nonzero_budget`` bounds the nonzeros of A held at any time: the input
    is checked first, and the live count is updated after every row update,
    so fill-in past the budget raises ``BudgetExceededError`` as soon as it
    happens."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    work = [dict(r) for r in rows]
    live = sum(len(r) for r in work)
    budget = math.inf if nonzero_budget is None else nonzero_budget
    if live > budget:
        raise BudgetExceededError("matrix has %d nonzeros, budget is %d"
                                  % (live, nonzero_budget))

    def charge(idx, before):
        """Account for the change in length of row idx (``before`` entries)."""
        nonlocal live
        live += len(work[idx]) - before
        if live > budget:
            raise BudgetExceededError("elimination fill-in reached %d nonzeros, "
                                      "budget is %d" % (live, nonzero_budget))

    if rhs is None:
        b = [Fraction(0)] * len(work)
    else:
        b = [Fraction(v) for v in rhs]
        if len(b) != len(work):
            raise ValueError("rhs length %d does not match %d rows" % (len(b), len(work)))
    active = set(range(len(work)))
    # column -> set of active rows holding it, maintained incrementally
    col_rows: dict[int, set] = {}
    for idx in active:
        for col in work[idx]:
            col_rows.setdefault(col, set()).add(idx)
    pivots = []  # (col, row)
    inconsistent = False

    def detach(idx):
        for col in work[idx]:
            holders = col_rows.get(col)
            if holders is not None:
                holders.discard(idx)
                if not holders:
                    del col_rows[col]

    def eliminate_indexed(idx, pivot_row, factor):
        target = work[idx]
        for col, value in pivot_row.items():
            cur = target.get(col)
            if cur is None:
                target[col] = -factor * value
                col_rows.setdefault(col, set()).add(idx)
            else:
                cur -= factor * value
                if cur:
                    target[col] = cur
                else:
                    del target[col]
                    holders = col_rows[col]
                    holders.discard(idx)
                    if not holders:
                        del col_rows[col]

    while col_rows:
        if strategy == "ordered":
            best_col = min(col_rows)
            best_row = min(col_rows[best_col])
        else:
            # Markowitz-style: sparsest column first, then sparsest row in it
            best_col = min(col_rows, key=lambda c: (len(col_rows[c]), c))
            best_row = min(col_rows[best_col],
                           key=lambda idx: (len(work[idx]), idx))
        pivot_row = work[best_row]
        pivot_val = pivot_row[best_col]
        if pivot_val != 1:
            pivot_val = Fraction(pivot_val)  # int / int would give a float
            for col in pivot_row:
                pivot_row[col] /= pivot_val
            b[best_row] /= pivot_val
        detach(best_row)
        active.discard(best_row)
        pivots.append((best_col, best_row))
        for idx in sorted(col_rows.get(best_col, ())):
            factor = work[idx][best_col]
            before = len(work[idx])
            eliminate_indexed(idx, pivot_row, factor)
            charge(idx, before)
            b[idx] -= factor * b[best_row]
            if not work[idx]:
                if b[idx]:
                    inconsistent = True
                active.discard(idx)
    for idx in active:
        if b[idx]:
            inconsistent = True

    # back-substitute to full RREF: sweep pivot columns in descending order,
    # clearing each from every other pivot row (selection order under the
    # markowitz strategy is not monotone in the column index)
    pivots.sort()
    for k in range(len(pivots) - 1, -1, -1):
        col, row_idx = pivots[k]
        pivot_row = work[row_idx]
        for other_col, other_row_idx in pivots:
            if other_col == col:
                continue
            other_row = work[other_row_idx]
            factor = other_row.get(col)
            if factor:
                before = len(other_row)
                _eliminate_into(other_row, pivot_row, factor)
                charge(other_row_idx, before)
                b[other_row_idx] -= factor * b[row_idx]
    return Echelon(ncols=ncols,
                   pivot_cols=[col for col, _ in pivots],
                   rows=[work[row_idx] for _, row_idx in pivots],
                   rhs=[b[row_idx] for _, row_idx in pivots],
                   inconsistent=inconsistent)


def projected_span(vectors: Iterable[Row], keep_cols: int) -> Echelon:
    """Reduced echelon basis of the span of the vectors after dropping
    coordinates >= keep_cols; its rank is the dimension of that span."""
    projected = [{c: v for c, v in vec.items() if c < keep_cols} for vec in vectors]
    return echelon([r for r in projected if r], None, keep_cols, "ordered")


class StreamingReducer:
    """Incremental feasibility tracker for A x = b fed row by row.

    Pivot selection is leading-column (the ``ordered`` strategy); adding a row
    returns "pivot", "redundant" or "inconsistent".  Raw rows are kept so a
    verdict can be re-verified later with an independent strategy.
    """

    def __init__(self):
        self.pivots: dict[int, tuple] = {}  # col -> (row, rhs)
        self.raw_rows: list = []
        self.raw_rhs: list = []
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: Row, rhs) -> str:
        """Reduce one constraint; raw copies are kept only for rows that
        become pivots or witness an inconsistency (redundant rows are linear
        combinations of the kept ones, so the kept subsystem has the same
        rank and feasibility verdict)."""
        rhs = raw_rhs = Fraction(rhs)
        work = dict(row)
        while work:
            col = min(work)
            pivot = self.pivots.get(col)
            if pivot is None:
                value = work[col]
                if value != 1:
                    value = Fraction(value)  # int / int would give a float
                    work = {c: v / value for c, v in work.items()}
                    rhs /= value
                self.pivots[col] = (work, rhs)
                self.raw_rows.append(dict(row))
                self.raw_rhs.append(raw_rhs)
                return "pivot"
            pivot_row, pivot_rhs = pivot
            factor = work[col]
            _eliminate_into(work, pivot_row, factor)
            rhs -= factor * pivot_rhs
        if rhs:
            self.inconsistent = True
            self.raw_rows.append(dict(row))
            self.raw_rhs.append(raw_rhs)
            return "inconsistent"
        return "redundant"

    def reverify(self, strategy: str = "markowitz") -> dict:
        """Recompute rank and feasibility of the collected raw system with an
        independent elimination; returns the rank data."""
        ech_aug = echelon([dict(r) for r in self.raw_rows], self.raw_rhs, 0, strategy)
        ech_coeff = echelon([dict(r) for r in self.raw_rows], None, 0, strategy)
        return {
            "strategy": strategy,
            "rank_coefficient": ech_coeff.rank,
            "rank_augmented": ech_aug.rank + (1 if ech_aug.inconsistent else 0),
            "inconsistent": ech_aug.inconsistent,
        }
