"""The policy-iteration routine as it stood before its rounds were made
cheaper, kept as a reference for ``troplf.game_engine._policy_iteration``.

This version ranks every evaluation's cycle means with ``_ranks``, filters
both players' moves by rank on every round, masks the moves it may not take
with ``val.min() - 1`` and ``cand.max() + 1`` computed per step, and builds
one Fraction per node.  The routine in ``src/`` must return exactly what
this one returns, (chi, sigma, tau, rounds, bigint, (Q, V)), from the same
arrays and start.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import numpy as np

from troplf.game_engine import PolicyIterationStalled, _round_cap


def _payment_dtype(n: int, W: int, vmax: int = 0):
    """The numpy dtype for policy iteration on a game with n Min nodes, W
    bounding every |payment| + 1, while its biases V stay within vmax in
    absolute value: int64 when every number the run holds in its arrays fits,
    else Python ints (object), so large payments stay exact instead of
    wrapping.  A run starts with vmax = 0 and asks again after each
    evaluation (``_policy_iteration``)."""
    # Max's key Q*b + V and Min's key best - Q*a, with Q <= n a cycle length
    # and |a|, |b| < W, hold at most 2nW + vmax, and the -1/+1 sentinels of
    # the masked argmax and argmin one more; the arc weights b - a stay below
    # 2W.  (2n + 1)W + vmax + 2 bounds them all.
    return np.int64 if (2 * n + 1) * W + vmax + 2 < 2**62 else object


def _evaluate(nxt, w, ref):
    """Cycle means and biases of the policy graph j -> nxt[j] with arc weights w.

    For strategies tau and sigma, nxt[j] = sigma(tau(j)) and arc j weighs
    w_j = b[tau(j)][nxt[j]] - a[tau(j)][j].  Returns lists (P, Q, V): from
    node j the graph reaches a cycle of mean eta_j = P_j/Q_j (reduced,
    Q_j > 0), and the bias v_j = V_j/Q_j obeys v_j = w_j - eta_j + v_next(j).
    Each cycle's bias is pinned at its smallest node r, to ref's bias there
    when ref (the previous values, or None) gives r the same mean, else to 0.
    The pin depends only on the cycle, so a cycle that survives a strategy
    change keeps its biases: that makes every improvement round a strict
    lexicographic step.
    """
    n = len(nxt)
    P = [0] * n
    Q = [0] * n
    V = [0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 evaluated
    for s in range(n):
        walk = []
        u = s
        while state[u] == 0:
            state[u] = 1
            walk.append(u)
            u = nxt[u]
        if state[u] == 1:  # the walk closed a new cycle
            k = walk.index(u)
            cyc = walk[k:]
            del walk[k:]
            k = cyc.index(min(cyc))
            cyc = cyc[k:] + cyc[:k]
            total = sum(w[c] for c in cyc)
            g = gcd(total, len(cyc))
            p, q = total // g, len(cyc) // g
            r = cyc[0]
            same = ref is not None and ref[0][r] == p and ref[1][r] == q
            V[r] = ref[2][r] if same else 0
            for c in cyc:
                P[c], Q[c], state[c] = p, q, 2
            for c in reversed(cyc[1:]):
                V[c] = q * w[c] - p + V[nxt[c]]
        for c in reversed(walk):
            t = nxt[c]
            P[c], Q[c], state[c] = P[t], Q[t], 2
            V[c] = Q[t] * w[c] - P[t] + V[t]
    return P, Q, V


def _ranks(P, Q) -> list:
    """Dense ranks of the reduced rationals P_j/Q_j, by cross-multiplication."""
    distinct = sorted(set(zip(P, Q)), key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    pos = {pq: k for k, pq in enumerate(distinct)}
    return [pos[pq] for pq in zip(P, Q)]


def _policy_iteration(arrays, W, start=None):
    """Exact values and optimal positional strategies of an integer game.

    ``arrays`` is the game as ``_game_arrays`` gives it: the masks of the
    finite entries of a and b, and their weights (0 at -inf) in one numpy
    dtype, int64 or object as ``_payment_dtype(n, W)`` picks it, W bounding
    every |payment| + 1.  ``start`` is a legal strategy pair (sigma, tau) to
    start from; None starts from the greedy pair, the best replies when every
    value and bias is 0.  Policy iteration converges from any start, to
    values that do not depend on it.

    ``_evaluate`` gives the biases V as Python ints.  After each evaluation
    the run asks ``_payment_dtype`` again with max|V|; once int64 could no
    longer hold the keys, the weights become object arrays and stay so, so
    no number is ever computed in a dtype that could wrap, and the results
    are those of a run on object arrays throughout.

    Returns (chi, sigma, tau, rounds, bigint, (Q, V)) with chi[j] the
    Fraction value of Min node j, rounds the improvement rounds taken,
    bigint whether the run ended on object arrays, and Q and V the lists of
    the last evaluation, whose biases are V_j/Q_j.  Values compare
    lexicographically as (eta, v), i.e. as the germ eta*t + v for large t.
    Max's step moves each row to the lex-largest (eta_l, b_il + v_l); Min's
    step moves each column to the lex-smallest (top_i, best_i - a_ij) over
    its rows, where (top_i, best_i) is row i's best Max reply.  Both switch
    only on strict improvement.  At the end (eta, v) is a lexicographic fixed
    point of the Shapley operator, of its restriction to sigma and of its
    restriction to tau, so sigma and tau are optimal from every node.
    """
    Am, Bm, Aw, Bw = arrays
    m, n = Am.shape
    dt = Aw.dtype
    cap = _round_cap(m, n)
    rows, cols = np.arange(m), np.arange(n)
    # Ranks lie in 0..n-1; these offsets push the ranks of -inf entries out
    # of reach of every row's best (every row of b and column of a has a
    # finite entry), so no mask is applied per round.
    Boff = np.where(Bm, 0, -n - 1)
    Aoff = np.where(Am, 0, n + 1)

    def max_step(rk, Qv, Vv):
        """Per row: best eta rank, the keys Q_l*b_il + V_l among the moves
        of that rank (others below every key), best key, argmax."""
        rank = rk[None, :] + Boff
        top = rank.max(axis=1)
        val = Qv[None, :] * Bw + Vv[None, :]
        masked = np.where(rank == top[:, None], val, val.min() - 1)
        arg = masked.argmax(axis=1)
        return top, masked, masked[rows, arg], arg

    def min_step(top, best, Qtop):
        """Per column: least row rank, the keys among the rows of that rank
        (others above every key), least key, argmin."""
        cand = best[:, None] - Qtop[:, None] * Aw
        rank = top[:, None] + Aoff
        mtop = rank.min(axis=0)
        masked = np.where(rank == mtop[None, :], cand, cand.max() + 1)
        arg = masked.argmin(axis=0)
        return masked, masked[arg, cols], arg

    if start is None:
        unit = np.ones(n, dtype=dt)
        top, _masked, best, sigma = max_step(np.zeros(n, dtype=np.int64), unit, unit - 1)
        tau = min_step(top, best, unit[sigma])[2]
    else:
        sigma, tau = (np.array(s, dtype=np.intp) for s in start)
    ref = None
    rounds = 0
    while True:
        paid = Aw[tau, cols]
        while True:  # Howard: Max's best reply to tau
            rounds += 1
            if rounds > cap:
                raise PolicyIterationStalled(f"no fixed point after {cap} rounds")
            nxt = sigma[tau]
            P, Q, V = _evaluate(nxt.tolist(), (Bw[tau, nxt] - paid).tolist(), ref)
            if dt != object and _payment_dtype(n, W, max(map(abs, V))) is object:
                Aw, Bw, dt = Aw.astype(object), Bw.astype(object), np.dtype(object)
                paid = Aw[tau, cols]
            rk = np.array(_ranks(P, Q), dtype=np.int64)
            Qv = np.array(Q, dtype=dt)
            top, masked, best, arg = max_step(rk, Qv, np.array(V, dtype=dt))
            # sigma's key is below the best exactly when sigma's move is not
            # of the top rank or falls short of the best key among them.
            switch = best > masked[rows, sigma]
            sigma = np.where(switch, arg, sigma)
            if not switch[tau].any():
                break
        cmasked, cbest, carg = min_step(top, best, Qv[arg])
        switch = cbest < cmasked[tau, cols]
        if not switch.any():
            break
        tau = np.where(switch, carg, tau)
        ref = (P, Q, V)
    chi = tuple(Fraction(p, q) for p, q in zip(P, Q))
    return chi, tuple(sigma.tolist()), tuple(tau.tolist()), rounds, dt == object, (Q, V)
