"""The racing energy liftings: a second winning oracle for mean payoff games.

The reference that ``game_engine.integer_oracle`` is compared against: it
partitions the Min nodes into {chi >= 0} and {chi < 0} and returns witness
strategies for both sides, by racing two pseudo-polynomial least-progress-
measure liftings (a worklist one and a synchronous numpy one) instead of
policy iteration.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from troplf.game_engine import MaxStrategy, MeanPayoffGame, MinStrategy, OracleReport


class _LiftState:
    """Incremental least-progress-measure lifting of a bipartite energy game.

    Survivor nodes S minimize over their moves (s -> t with weight w: the
    measure obeys eS = min_t max(0, eT - w)); adversary nodes T maximize.
    Values strictly above ``cap`` stand for top.  ``run`` processes a bounded
    number of worklist pops so two liftings can be interleaved.
    """

    __slots__ = ("nS", "nT", "succS", "succT", "predS", "predT", "cap", "top",
                 "eS", "eT", "queue", "inqS", "inqT")

    def __init__(self, nS, nT, succS, succT, predS, predT, cap):
        self.nS = nS
        self.nT = nT
        self.succS = succS
        self.succT = succT
        self.predS = predS
        self.predT = predT
        self.cap = cap
        self.top = cap + 1
        self.eS = [0] * nS
        self.eT = [0] * nT
        self.queue = deque([(0, s) for s in range(nS)] + [(1, t) for t in range(nT)])
        self.inqS = [True] * nS
        self.inqT = [True] * nT

    def run(self, quantum: int) -> bool:
        """Process up to ``quantum`` pops; True when the fixpoint is reached."""
        queue = self.queue
        cap, top = self.cap, self.top
        eS, eT = self.eS, self.eT
        pops = 0
        while queue and pops < quantum:
            pops += 1
            side, v = queue.popleft()
            if side == 0:
                self.inqS[v] = False
                best = None
                for (t, w) in self.succS[v]:
                    e = eT[t]
                    if e > cap:
                        nv = top
                    else:
                        nv = e - w
                        if nv < 0:
                            nv = 0
                    if best is None or nv < best:
                        best = nv
                        if best == 0:
                            break
                if best is None or best > top:
                    best = top
                if best > eS[v]:
                    eS[v] = best
                    for t in self.predS[v]:
                        if not self.inqT[t]:
                            self.inqT[t] = True
                            queue.append((1, t))
            else:
                self.inqT[v] = False
                best = 0
                for (s, w) in self.succT[v]:
                    e = eS[s]
                    if e > cap:
                        nv = top
                    else:
                        nv = e - w
                        if nv < 0:
                            nv = 0
                    if nv > best:
                        best = nv
                        if best >= top:
                            break
                if best > top:
                    best = top
                if best > eT[v]:
                    eT[v] = best
                    for s in self.predT[v]:
                        if not self.inqS[s]:
                            self.inqS[s] = True
                            queue.append((0, s))
        return not queue


class _VecLift:
    """Synchronous numpy lifting for dense games; same contract as _LiftState.

    One round applies the lifting operator to every node at once: survivor
    values are row minima of max(0, eT - WS) and adversary values column
    maxima of max(0, eS + WT), with values above the cap clamped to top.
    From the all-zero start the iterates increase monotonically to the least
    fixpoint, so the result matches the worklist lifting exactly.

    Nodes above the cap act as +infinity sources: before each round they are
    promoted to ``high`` (top plus the largest weight magnitude), which forces
    every outgoing contribution above the cap no matter the arc weight.
    Missing arcs carry a sentinel weight so large that their contribution can
    never win the reduction, which keeps the inner loop free of fancy
    indexing: each round is two broadcast ops, two reductions and clips.
    """

    __slots__ = ("cap", "top", "high", "eS", "eT", "_eS2", "_eT2", "WS", "WT",
                 "_bufS", "_bufT")

    def __init__(self, WS, okS, WT, okT, cap):
        self.cap = cap
        self.top = cap + 1
        wmax = 1
        if WS.size and okS.any():
            wmax = max(wmax, int(np.abs(WS[okS]).max()))
        if WT.size and okT.any():
            wmax = max(wmax, int(np.abs(WT[okT]).max()))
        self.high = self.top + wmax
        big = 2 * self.high + 1
        # cand = eT - WS: a missing arc must lose every row minimum
        self.WS = np.where(okS, WS, -big)
        # contrib = eS + WT: a missing arc must lose every column maximum
        self.WT = np.where(okT, WT, -big)
        nS, nT = WS.shape
        self.eS = np.zeros(nS, dtype=np.int64)
        self.eT = np.zeros(nT, dtype=np.int64)
        self._eS2 = np.empty(nS, dtype=np.int64)
        self._eT2 = np.empty(nT, dtype=np.int64)
        self._bufS = np.empty((nS, nT), dtype=np.int64)
        self._bufT = np.empty((nS, nT), dtype=np.int64)

    def run(self, quantum: int) -> bool:
        cap, top, high = self.cap, self.top, self.high
        WS, WT, bufS, bufT = self.WS, self.WT, self._bufS, self._bufT
        eS, eT, eS2, eT2 = self.eS, self.eT, self._eS2, self._eT2
        for _ in range(quantum):
            src = np.where(eS > cap, high, eS)
            np.add(src[:, None], WT, out=bufT)
            np.max(bufT, axis=0, out=eT2)
            np.clip(eT2, 0, top, out=eT2)
            src = np.where(eT2 > cap, high, eT2)
            np.subtract(src[None, :], WS, out=bufS)
            np.min(bufS, axis=1, out=eS2)
            np.clip(eS2, 0, top, out=eS2)
            if (eS2 == eS).all() and (eT2 == eT).all():
                self.eS, self.eT = eS2, eT2
                self._eS2, self._eT2 = eS, eT
                return True
            eS, eS2 = eS2, eS
            eT, eT2 = eT2, eT
        self.eS, self.eT = eS, eT
        self._eS2, self._eT2 = eS2, eT2
        return False


def _lift_bipartite(nS, nT, succS, succT, predS, predT, cap):
    """Least progress measures by the worklist, run to the fixpoint; (eS, eT)."""
    state = _LiftState(nS, nT, succS, succT, predS, predT, cap)
    while not state.run(1 << 16):
        pass
    return state.eS, state.eT


def _lifting_race(m, n, a, b, vectorized):
    """Winning Min/Max node sets plus both strategies for integer payments.

    Two liftings race in bounded quanta: the primal one (survivor Max, at the
    completeness cap) whose finite fixpoint values certify chi >= 0, and the
    dual one (survivor Min, negated payments scaled by min(m,n) and shifted
    by -1) whose finite values certify chi < 0.  Whichever reaches its
    fixpoint first fixes the partition by completeness of its cap; the other
    side's strategy is then recovered on its closed certified subregion,
    where the remaining lifting has no divergent nodes and stays cheap.
    """
    w_max = 1
    for i in range(m):
        for j in range(n):
            if a[i][j] is not None:
                w_max = max(w_max, abs(a[i][j]))
            if b[i][j] is not None:
                w_max = max(w_max, abs(b[i][j]))
    scale = max(1, min(m, n))

    # Primal energy game: survivor = Max.  Max move i -> l has weight b_il,
    # Min move j -> i weight -a_ij.
    p_succS = [[(l, b[i][l]) for l in range(n) if b[i][l] is not None] for i in range(m)]
    p_succT = [[(i, -a[i][j]) for i in range(m) if a[i][j] is not None] for j in range(n)]
    p_predS = [[j for j in range(n) if a[i][j] is not None] for i in range(m)]
    p_predT = [[i for i in range(m) if b[i][j] is not None] for j in range(n)]

    # Dual energy game: survivor = Min.  Min move j -> i has weight
    # (scale*a_ij - 1), Max move i -> l weight -scale*b_il.
    d_succS = [
        [(i, scale * a[i][j] - 1) for i in range(m) if a[i][j] is not None]
        for j in range(n)
    ]
    d_succT = [[(l, -scale * b[i][l]) for l in range(n) if b[i][l] is not None] for i in range(m)]
    d_predS = [[i for i in range(m) if b[i][j] is not None] for j in range(n)]
    d_predT = [[j for j in range(n) if a[i][j] is not None] for i in range(m)]

    cap_primal = (m + n + 2) * w_max + 1
    cap_dual = (m + n + 2) * (scale * w_max + 1) + 1
    if vectorized:
        Aw = np.array([[x if x is not None else 0 for x in row] for row in a], dtype=np.int64)
        Am = np.array([[x is not None for x in row] for row in a])
        Bw = np.array([[x if x is not None else 0 for x in row] for row in b], dtype=np.int64)
        Bm = np.array([[x is not None for x in row] for row in b])
        primal = _VecLift(Bw, Bm, Aw, Am, cap_primal)
        dual = _VecLift(scale * Aw.T - 1, Am.T, scale * Bw.T, Bm.T, cap_dual)
        quantum = 64
    else:
        primal = _LiftState(m, n, p_succS, p_succT, p_predS, p_predT, cap_primal)
        dual = _LiftState(n, m, d_succS, d_succT, d_predS, d_predT, cap_dual)
        quantum = 4096
    while True:
        if primal.run(quantum):
            primal_finished = True
            break
        if dual.run(quantum):
            primal_finished = False
            break

    if primal_finished:
        eMax, eMin = primal.eS, primal.eT
        win_min = frozenset(j for j in range(n) if eMin[j] <= cap_primal)
        win_max = frozenset(i for i in range(m) if eMax[i] <= cap_primal)
        lose_min = frozenset(range(n)) - win_min
        lose_max = frozenset(range(m)) - win_max
        # Dual lifting restricted to the losing region (closed under all Max
        # moves; Min moves into the winning region are never useful to Min).
        sub_succS = [
            [(i, w) for (i, w) in d_succS[j] if i in lose_max] if j in lose_min else []
            for j in range(n)
        ]
        sub_succT = [d_succT[i] if i in lose_max else [] for i in range(m)]
        sub_predS = [[i for i in d_predS[j] if i in lose_max] for j in range(n)]
        sub_predT = [[j for j in d_predT[i] if j in lose_min] for i in range(m)]
        fMin, fMax = _lift_bipartite(n, m, sub_succS, sub_succT, sub_predS, sub_predT, cap_dual)
        for j in lose_min:
            if fMin[j] > cap_dual:
                raise AssertionError("dual lifting diverged on a certified losing node")
    else:
        fMin, fMax = dual.eS, dual.eT
        lose_min = frozenset(j for j in range(n) if fMin[j] <= cap_dual)
        lose_max = frozenset(i for i in range(m) if fMax[i] <= cap_dual)
        win_min = frozenset(range(n)) - lose_min
        win_max = frozenset(range(m)) - lose_max
        # Primal lifting restricted to the winning region (closed under all
        # Min moves; Max moves into the losing region never help Max).
        sub_succS = [
            [(l, w) for (l, w) in p_succS[i] if l in win_min] if i in win_max else []
            for i in range(m)
        ]
        sub_succT = [p_succT[j] if j in win_min else [] for j in range(n)]
        sub_predS = [[j for j in p_predS[i] if j in win_min] for i in range(m)]
        sub_predT = [[i for i in p_predT[j] if i in win_max] for j in range(n)]
        eMax, eMin = _lift_bipartite(m, n, sub_succS, sub_succT, sub_predS, sub_predT, cap_primal)
        for i in win_max:
            if eMax[i] > cap_primal:
                raise AssertionError("primal lifting diverged on a certified winning node")

    top_p = cap_primal + 1
    sigma = []
    for i in range(m):
        if i in win_max:
            best_l, best_v = None, None
            for (l, w) in p_succS[i]:
                if l not in win_min:
                    continue
                e = eMin[l]
                v = top_p if e > cap_primal else max(0, e - w)
                if best_v is None or v < best_v:
                    best_v, best_l = v, l
            sigma.append(best_l)
        else:
            sigma.append(next(l for l in range(n) if b[i][l] is not None))
    top_d = cap_dual + 1
    tau = []
    for j in range(n):
        if j in lose_min:
            best_i, best_v = None, None
            for (i, w) in d_succS[j]:
                if i not in lose_max:
                    continue
                e = fMax[i]
                v = top_d if e > cap_dual else max(0, e - w)
                if best_v is None or v < best_v:
                    best_v, best_i = v, i
            tau.append(best_i)
        else:
            tau.append(next(i for i in range(m) if a[i][j] is not None))
    return win_min, win_max, tuple(sigma), tuple(tau)


def lifting_oracle(game: MeanPayoffGame, vectorized: bool = False) -> OracleReport:
    """Reference winning oracle: the energy-lifting race, kept for cross-checks.

    Its liftings climb to caps proportional to the payment size, so it is far
    slower than integer_oracle on large payments; ``vectorized`` picks the
    numpy synchronous lifting over the worklist for the raced liftings.
    """
    win_min, win_max, sigma, tau = _lifting_race(game.m, game.n, game.a, game.b, vectorized)
    return OracleReport(win_min, win_max, MaxStrategy(sigma), MinStrategy(tau))
