"""The general support test, the reference for the degenerate precheck.

``homogeneous_solution_with_zeros(C, D, neg_cols, pin)`` finds a solution of
C y <= D y that is -inf on neg_cols and 0 at pin by a fixpoint that removes
stuck rows and columns, a cold game on the surviving core and the
back-substitution of push-up values.  The solver answers the same question
for a denominator row v identically -inf with the parametric game of the
program whose v is e_{n+1} (``solver.homogeneous_solution_with_zeros(H)``);
this independent algorithm checks it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from troplf.game_engine import InternalCertificateMismatch, MeanPayoffGame, feasibility_witness


def homogeneous_solution_with_zeros(C, D, neg_cols, pin: int) -> Optional[tuple]:
    """A solution y of C y <= D y with y_j = -inf on neg_cols and y_pin = 0.

    C and D are integer grids (None for -inf) and so is y.  Returns None when
    no such solution exists.  The raw reduced system may break the game
    assumptions, so a fixpoint preprocessing runs first:

    * a row whose right-hand side is identically -inf over the remaining
      columns forces every remaining column in its left-hand support to -inf
      and is removed (infeasible if that hits the pinned column);
    * a column with no finite left-hand coefficient in the remaining rows can
      be pushed up to discharge every remaining row where it has a finite
      right-hand coefficient; the column and those rows are removed.

    The surviving core satisfies both game assumptions and is solved through
    the winning oracle; push-up values are back-substituted in reverse
    elimination order, which is triangular by construction.
    """
    m, n = len(C), len(C[0])
    if pin in neg_cols:
        raise ValueError("the pinned column cannot be forced to -inf")
    alive_rows = set(range(m))
    alive_cols = set(range(n)) - set(neg_cols)
    pushups: List[Tuple[int, list]] = []
    changed = True
    while changed:
        changed = False
        for i in sorted(alive_rows):
            if any(D[i][j] is not None for j in alive_cols):
                continue
            for j in sorted(alive_cols):
                if C[i][j] is not None:
                    if j == pin:
                        return None
                    alive_cols.discard(j)
            alive_rows.discard(i)
            changed = True
        for j in sorted(alive_cols):
            if any(C[i][j] is not None for i in alive_rows):
                continue
            discharged = sorted(i for i in alive_rows if D[i][j] is not None)
            pushups.append((j, discharged))
            alive_rows -= set(discharged)
            alive_cols.discard(j)
            changed = True

    y: List[Optional[int]] = [None] * n
    rows = sorted(alive_rows)
    cols = sorted(alive_cols)
    if pin in alive_cols:
        if rows:
            core = MeanPayoffGame(
                tuple(tuple(C[i][j] for j in cols) for i in rows),
                tuple(tuple(D[i][j] for j in cols) for i in rows),
            )
            witness = feasibility_witness(core, cols.index(pin))
            if witness is None:
                return None
            for j, e in zip(cols, witness):
                y[j] = int(e.value) if e.is_finite else None
        else:
            y[pin] = 0
    # Otherwise pin was discharged by a push-up; the core is satisfied by -inf.
    for j, discharged in reversed(pushups):
        bound = 0
        for i in discharged:
            lhs = row_max(C[i], y)  # y_j is still -inf here
            if lhs is not None:
                bound = max(bound, lhs - D[i][j])
        y[j] = bound
    shift = y[pin]
    y = tuple(None if x is None else x - shift for x in y)
    for ci, di in zip(C, D):
        lhs, rhs = row_max(ci, y), row_max(di, y)
        if lhs is not None and (rhs is None or lhs > rhs):
            raise InternalCertificateMismatch("assembled solution fails C y <= D y")
    return y


def row_max(row, y) -> Optional[int]:
    """max_j row_j + y_j over the finite terms, or None (-inf)."""
    return max((r + x for r, x in zip(row, y) if r is not None and x is not None), default=None)
