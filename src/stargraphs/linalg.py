"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts mapping column index -> nonzero exact rational, ``int`` or
``Fraction``; ``echelon`` rejects a ``float`` with ``TypeError`` by the
rule of ``poly._rational``, as ``Poly`` and ``GraphSum`` do.  It holds
every integral value as an ``int``: a pivot of 1 or -1 leaves its row
integral, and any other pivot divides its row by ``Fraction`` with
integral quotients stored as ``int``, so rows of ``int`` never turn into
floats.  ``StreamingReducer`` is fraction-free
(Bareiss-style cross-multiplication on rows scaled to integers); its
verdicts are re-checked by ``echelon``.  Two deterministic pivot
strategies give the same rank and feasibility, so each re-checks the
other's verdicts, but their reduced rows differ:

* ``markowitz``: the sparsest live column, ties broken by the lower column,
  then the sparsest row holding it, ties broken by the lower row; columns
  come from a heap of (holder count, column).  A row may keep entries left
  of its pivot;
* ``ordered``: leftmost unpivoted column, lowest surviving row.  Each pivot
  is its row's leftmost entry, so the rows are the reduced row echelon
  form, canonical for the row space: kernel bases (``projected_span``)
  use it.

No modular arithmetic is used anywhere; all verdicts are unconditional.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BudgetExceededError
from .poly import _rational

Row = dict

STRATEGIES = ("markowitz", "ordered")


def _eliminate_into(target: Row, pivot_row: Row, factor: int):
    """target -= factor * pivot_row, in place, on rows of ``int``."""
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
    """Reduced echelon data for the system A x = b: each pivot column is
    zero outside its own row (the RREF under ``ordered`` only)."""

    ncols: int
    pivot_cols: list  # one per reduced row, ascending along rows
    rows: list  # reduced rows (pivot coefficient 1)
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
        basis = {free: {free: 1} for free in range(self.ncols) if free not in pivot_set}
        for col, row in zip(self.pivot_cols, self.rows):
            for free, coeff in row.items():
                vec = basis.get(free)
                if vec is not None:
                    vec[col] = -coeff
        return list(basis.values())


def echelon(rows: Iterable[Row], rhs: Iterable | None = None, ncols: int = 0,
            strategy: str = "markowitz", nonzero_budget: int | None = None) -> Echelon:
    """Bring A (with optional b) to reduced echelon form on the pivot
    columns ``strategy`` picks, the RREF under ``ordered`` only.

    Values are kept exact, integral ones as ``int`` (see the module
    docstring).  ``nonzero_budget`` bounds the nonzeros of A held at any
    time: the input is checked first, and the live count is updated after
    every row update, so fill-in past the budget raises
    ``BudgetExceededError`` as soon as it happens."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    work = [{col: _rational(value) for col, value in r.items()} for r in rows]
    live = sum(len(r) for r in work)
    budget = math.inf if nonzero_budget is None else nonzero_budget
    if live > budget:
        raise BudgetExceededError("matrix has %d nonzeros, budget is %d"
                                  % (live, nonzero_budget))

    if rhs is None:
        b = [0] * len(work)
    else:
        b = [_rational(v) for v in rhs]
        if len(b) != len(work):
            raise ValueError("rhs length %d does not match %d rows" % (len(b), len(work)))
    # column -> set of unpivoted rows holding it, maintained incrementally
    col_rows: dict[int, set] = {}
    for idx, row in enumerate(work):
        for col in row:
            col_rows.setdefault(col, set()).add(idx)
    # markowitz: (holder count, column) with lazy deletion; an entry is live
    # while its count is the column's holder count, and the columns whose
    # count changed during a pivot step are pushed again before the next one
    heap = [(len(holders), col) for col, holders in col_rows.items()]
    heapq.heapify(heap)
    touched = set()
    pivots = []  # (col, row)

    def release(col, idx):
        """Drop row idx from the holders of col."""
        holders = col_rows[col]
        holders.discard(idx)
        touched.add(col)
        if not holders:
            del col_rows[col]

    def reduce(idx, pivot_idx, pivot_col):
        """The one row update: clear pivot_col from row idx and its rhs with
        row pivot_idx, keeping col_rows and the live nonzero count."""
        nonlocal live
        target, pivot_row = work[idx], work[pivot_idx]
        factor = target[pivot_col]
        before = len(target)
        for col, value in pivot_row.items():
            cur = target.get(col)
            if cur is None:
                cur = -factor * value
                col_rows.setdefault(col, set()).add(idx)
                touched.add(col)
            else:
                cur -= factor * value
                if not cur:
                    del target[col]
                    release(col, idx)
                    continue
            if type(cur) is not int and cur.denominator == 1:
                cur = cur.numerator
            target[col] = cur
        live += len(target) - before
        if live > budget:
            raise BudgetExceededError("elimination fill-in reached %d nonzeros, "
                                      "budget is %d" % (live, nonzero_budget))
        b[idx] = _rational(b[idx] - factor * b[pivot_idx])

    while col_rows:
        if strategy == "ordered":
            best_col = min(col_rows)
            best_row = min(col_rows[best_col])
        else:
            # Markowitz-style: sparsest column first, then sparsest row in it
            for col in touched:
                holders = col_rows.get(col)
                if holders:
                    heapq.heappush(heap, (len(holders), col))
            while True:
                count, best_col = heap[0]
                holders = col_rows.get(best_col)
                if holders is not None and len(holders) == count:
                    break
                heapq.heappop(heap)
            best_row = min(holders, key=lambda idx: (len(work[idx]), idx))
        touched.clear()
        pivot_row = work[best_row]
        pivot_val = pivot_row[best_col]
        if pivot_val == -1:
            for col, value in pivot_row.items():
                pivot_row[col] = -value
            b[best_row] = -b[best_row]
        elif pivot_val != 1:
            pivot_val = Fraction(pivot_val)  # int / int would give a float
            for col, value in pivot_row.items():
                pivot_row[col] = _rational(value / pivot_val)
            b[best_row] = _rational(b[best_row] / pivot_val)
        for col in pivot_row:
            release(col, best_row)
        pivots.append((best_col, best_row))
        for idx in sorted(col_rows.get(best_col, ())):
            reduce(idx, best_row, best_col)
    # no column is held by an unpivoted row any more, so every unpivoted row
    # is empty and a pivot row never is
    inconsistent = any(b[idx] for idx, row in enumerate(work) if not row)

    # back-substitute to the reduced form (RREF under ordered): sweep pivot
    # columns in descending order, clearing each from every other pivot row
    # in ascending pivot-column order (selection order under markowitz is
    # not monotone in the column index); col_rows now indexes the pivot rows
    pivots.sort()
    position = {row_idx: k for k, (_, row_idx) in enumerate(pivots)}
    for _, row_idx in pivots:
        for col in work[row_idx]:
            col_rows.setdefault(col, set()).add(row_idx)
    for col, row_idx in reversed(pivots):
        for idx in sorted(col_rows[col], key=position.__getitem__):
            if idx != row_idx:
                reduce(idx, row_idx, col)
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
    returns "pivot", "redundant" or "inconsistent".  Elimination is in
    integers: ``pivots`` maps col -> (``int`` row with a positive entry at
    col, ``int`` rhs), divided by the gcd of all its entries.  Raw rows are
    kept so a verdict can be re-verified later with an independent
    ``Fraction`` elimination (``reverify``).
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
        """Reduce one constraint; raw copies are kept, in one place, only for
        rows that become pivots or witness an inconsistency (redundant rows
        are linear combinations of the kept ones, so the kept subsystem has
        the same rank and feasibility verdict).

        Fraction-free: ``int`` entries are taken as they are, and a row with
        ``Fraction`` entries or rhs is scaled to integers by the lcm of their
        denominators.  Each elimination step cross-multiplies
        (pivot[col] * work - work[col] * pivot, both factors divided by their
        gcd), and the gcd of the row and rhs is divided out once, when the
        row is stored as a pivot: primitive with a positive leading entry.
        Every intermediate row is a nonzero multiple of the one that
        ``Fraction`` elimination would hold, and the primitive pivot row is
        unique, so the outcomes and the pivots are the same.  The raw rhs is
        kept as a ``Fraction``.  Entries and rhs pass the exact-value rule of
        ``poly._rational``: a ``float`` raises ``TypeError``."""
        for v in row.values():
            if type(v) is not int and type(v) is not Fraction:
                row = {c: _rational(v) for c, v in row.items()}
                break
        rhs = _rational(rhs)
        denominators = [v.denominator for v in row.values() if type(v) is not int]
        if type(rhs) is not int:
            denominators.append(rhs.denominator)
        if denominators:
            scale = math.lcm(*denominators)
            work = {c: v * scale if type(v) is int else v.numerator * (scale // v.denominator)
                    for c, v in row.items()}
            b = rhs * scale if type(rhs) is int else rhs.numerator * (scale // rhs.denominator)
        else:
            work, b = dict(row), rhs
        while work:
            col = min(work)
            pivot = self.pivots.get(col)
            if pivot is None:
                break
            pivot_row, pivot_rhs = pivot
            lead, factor = pivot_row[col], work[col]
            g = math.gcd(lead, factor)
            lead, factor = lead // g, factor // g
            if lead != 1:
                for c in work:
                    work[c] *= lead
                b *= lead
            _eliminate_into(work, pivot_row, factor)
            b -= factor * pivot_rhs
        if work:
            g = math.gcd(b, *work.values())
            if work[col] < 0:
                g = -g
            if g != 1:
                work = {c: v // g for c, v in work.items()}
                b //= g
            self.pivots[col] = (work, b)
            outcome = "pivot"
        elif b:
            self.inconsistent = True
            outcome = "inconsistent"
        else:
            return "redundant"
        self.raw_rows.append(dict(row))
        self.raw_rhs.append(Fraction(rhs))
        return outcome

    def reverify(self, strategy: str = "markowitz") -> dict:
        """Recompute rank and feasibility of the collected raw system with an
        independent elimination; returns the rank data.  One elimination of
        the augmented system gives both ranks: the pivot choice never reads
        the right-hand side, so its pivots are those of A alone."""
        ech = echelon(self.raw_rows, self.raw_rhs, 0, strategy)
        return {
            "strategy": strategy,
            "rank_coefficient": ech.rank,
            "rank_augmented": ech.rank + (1 if ech.inconsistent else 0),
            "inconsistent": ech.inconsistent,
        }
