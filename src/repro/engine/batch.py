"""Step-2 kernels shared by every query engine.

:func:`batched_qualification_probabilities` evaluates the PNNQ Step-2
computation of Cheng et al. [8] (discrete-pdf form, identical math to
:func:`repro.core.pnnq.qualification_probabilities`) for *many query
points against one shared candidate set* at once.  Both of its paths
compute, per query row, the survival products ``prod_j Pr[dist(o_j, q)
> r]`` from a cumulative log-survival walk: all ``n * m`` distances of
the row are sorted jointly once, and every element passed multiplies
its candidate's survival factor into a running log-sum, so the product
at every radius is one running sum plus one ``exp`` — with an exact
zero-survival counter so hard zeros stay hard zeros.

* **The compiled walk** (``step2_kernel.c``, built and loaded with the
  SE loop by :mod:`repro.core.sekernel`) does this for every row in one
  C call, reading the candidates' rows straight off the dataset's
  :class:`~repro.uncertain.InstanceStore` (one contiguous instance
  matrix + offsets table) through :meth:`InstanceStore.rows`: no
  padded block, no distance tensor.  Its distances are bit-identical to
  the numpy path's; its ``log``/``exp`` come from libm, so answers
  agree with the numpy path to about 1e-16.
* **The numpy kernel** gathers a dense padded ``(n, m, d)`` block with
  one fancy-index (:meth:`InstanceStore.gather`), takes the ``(b, n,
  m)`` distance tensor from one broadcasted einsum and runs the walk
  as a handful of array expressions (:func:`_log_products`).  It runs
  when the library did not build, and for the rows the walk hands back.

Rows with duplicated distance values across candidates cannot use the
log walk (the half-weight tie convention needs run boundaries): both
paths detect them after the global sort, and only those rows go
through :func:`_survival_core`, a materialized survival-tensor path
that reproduces the reference's tie handling exactly.  Every row is
computed on its own, so its answer does not depend on which other rows
share its call.  The half-weight convention and the final clamp to
``[0, 1]`` hold on every path, and the retained reference in
``tests/reference_step2.py`` is pinned against both to 1e-9 by the
differential tests.

Peak memory of the numpy kernel is bounded by chunking over the query
axis: :data:`KERNEL_CHUNK_BYTES` caps the per-chunk working set (sized
for the tie fallback's ``(rows, n, n * m)`` survival tensor — the log
walk needs far less).  The compiled walk needs about 56 bytes per
candidate instance, whatever the number of rows.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import sekernel
from ..uncertain import UncertainDataset
from .stats import ExecutionStats

__all__ = [
    "KERNEL_CHUNK_BYTES",
    "batched_qualification_probabilities",
    "element_survival_probabilities",
    "element_survivals",
    "group_by_candidates",
    "instance_distance_matrix",
    "survival_products",
]

#: Soft cap on the kernel's per-chunk working set, in bytes.  The
#: survival tables are evaluated in query-axis chunks sized to stay
#: under this; raise it to trade memory for fewer chunk iterations on
#: very large batches, lower it for constrained environments.
KERNEL_CHUNK_BYTES = 256 * 1024 * 1024


def group_by_candidates(
    ids_list: list[list[int]],
) -> dict[tuple[int, ...], list[int]]:
    """Positions of ``ids_list`` grouped by identical candidate tuple."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, ids in enumerate(ids_list):
        groups.setdefault(tuple(ids), []).append(pos)
    return groups


# ----------------------------------------------------------------------
# Batched tie-aware rank primitive (row-paired haystacks and needles)
# ----------------------------------------------------------------------
def _rank_cumweights(
    values: np.ndarray,
    weights: np.ndarray,
    needles: np.ndarray,
    *,
    needles_first: bool,
) -> np.ndarray:
    """Row-wise weight of ``values`` entries below each needle.

    ``values``/``weights`` are ``(B, m)`` sorted haystack rows with
    aligned weights; ``needles`` is ``(B, K)``, paired row by row.
    Returns the ``(B, K)`` cumulative haystack weight at each needle —
    of entries ``<=`` the needle when ``needles_first`` is False
    (``searchsorted`` side ``"right"`` semantics) and ``<`` it when
    True (side ``"left"``): a stable argsort of the concatenation
    orders equal haystack values before or after the needles, and a
    cumsum of the interleaved weights (needles carry weight 0) reads
    off the answer with the identical partial sums.  Used by the
    verifier's histogram bounds, whose per-candidate edge grids are
    row-paired (unlike the kernel's shared candidate block).
    """
    B, m = values.shape
    K = needles.shape[1]
    zeros = np.zeros((B, K))
    if needles_first:
        combined = np.concatenate([needles, values], axis=1)
        w = np.concatenate([zeros, weights], axis=1)
        needle_cols = slice(0, K)
    else:
        combined = np.concatenate([values, needles], axis=1)
        w = np.concatenate([weights, zeros], axis=1)
        needle_cols = slice(m, m + K)
    order = np.argsort(combined, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(w, order, axis=1), axis=1)
    inverse = np.empty_like(order)
    np.put_along_axis(
        inverse,
        order,
        np.broadcast_to(np.arange(m + K), (B, m + K)),
        axis=1,
    )
    return np.take_along_axis(cum, inverse[:, needle_cols], axis=1)


# ----------------------------------------------------------------------
# The global-sort survival machinery
# ----------------------------------------------------------------------
def _survival_core(
    D: np.ndarray,
    W: np.ndarray,
    radii: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Survival factors of every candidate at a needle grid, batched.

    ``D`` is the ``(B, n, m)`` candidate distance tensor and ``W`` the
    aligned ``(n, m)`` weights.  The needles are either all ``n * m``
    elements of ``D`` itself (``radii is None`` — the Step-2 case,
    where every instance distance is evaluated against every
    competitor) or an external ``(B, K)`` grid.

    One joint argsort per row orders elements and needles together; a
    scatter + cumsum along that order yields ``cum[b, j, s]`` = weight
    of candidate ``j`` at distance <= the s-th sorted value.  Without
    duplicated values the survival of ``j`` at a needle is then
    ``1 - cum`` at the needle's position; duplicated values are
    resolved through their tie run's boundaries, reproducing
    ``searchsorted``'s left/right semantics and the half-weight tie
    convention bit-for-bit.

    Returns ``(S, own, w_needle, colid)``: ``S`` is ``(B, n, T)``
    survivals at the needles *in sorted order*; ``own`` the needle's
    own candidate slot (element mode; ``None`` for external needles);
    ``w_needle`` the needle's instance weight (zeros for external);
    ``colid`` the needle's original column, for scattering results
    back when output order matters.
    """
    B, n, m = D.shape
    M = n * m
    values = D.reshape(B, M)
    w_full = np.repeat(W.reshape(1, M), B, axis=0)
    labels = np.repeat(np.arange(n), m)
    if radii is None:
        T, K = M, M
        colid_full = np.arange(M)
        labels_full = labels
    else:
        K = radii.shape[1]
        T = M + K
        values = np.concatenate([values, radii], axis=1)
        w_full = np.concatenate([w_full, np.zeros((B, K))], axis=1)
        # External needles carry label -1 (no weight, no self slot)
        # and remember their original radii column.
        labels_full = np.concatenate(
            [labels, np.full(K, -1, dtype=np.int64)]
        )
        colid_full = np.concatenate(
            [np.full(M, -1, dtype=np.int64), np.arange(K)]
        )

    order = np.argsort(values, axis=1)
    SV = np.take_along_axis(values, order, axis=1)
    SW = np.take_along_axis(w_full, order, axis=1)
    SL = labels_full[order]
    SC = colid_full[order]

    # cum[b, j, s]: candidate j's cumulative weight along the sorted
    # order — the same partial sums the reference's per-candidate
    # cumsum produces (interleaved zeros add exactly 0.0).
    cum = np.zeros((B, n, T))
    np.put_along_axis(
        cum,
        np.maximum(SL, 0)[:, None, :],
        np.where(SL >= 0, SW, 0.0)[:, None, :],
        axis=1,
    )
    np.cumsum(cum, axis=2, out=cum)

    if radii is None:
        pos = None
        own: np.ndarray | None = SL
        w_needle = SW
        colid = SC
    else:
        # Every row holds exactly K needle entries; nonzero yields
        # their positions row-major, ascending within each row.
        pos = np.nonzero(SL < 0)[1].reshape(B, K)
        own = None
        w_needle = np.zeros((B, K))
        colid = np.take_along_axis(SC, pos, axis=1)

    tied = bool((SV[:, 1:] == SV[:, :-1]).any())
    if not tied:
        # Unique values: weight strictly below == weight at-or-below
        # for every candidate other than the needle's own (excluded by
        # the callers), so the survival is one table lookup.
        if pos is None:
            S = np.subtract(1.0, cum, out=cum)
        else:
            S = 1.0 - np.take_along_axis(cum, pos[:, None, :], axis=2)
        return S, own, w_needle, colid

    # Tie runs: le reads the table at the run's last index (value <=
    # needle), lt just before its first (value < needle) — exactly
    # searchsorted's right/left sides on the per-candidate arrays.
    idx = np.arange(T)
    boundary = SV[:, 1:] != SV[:, :-1]
    first = np.maximum.accumulate(
        np.where(
            np.concatenate(
                [np.ones((B, 1), dtype=bool), boundary], axis=1
            ),
            idx,
            0,
        ),
        axis=1,
    )
    last = np.flip(
        np.minimum.accumulate(
            np.flip(
                np.where(
                    np.concatenate(
                        [boundary, np.ones((B, 1), dtype=bool)], axis=1
                    ),
                    idx,
                    T - 1,
                ),
                axis=1,
            ),
            axis=1,
        ),
        axis=1,
    )
    if pos is not None:
        first = np.take_along_axis(first, pos, axis=1)
        last = np.take_along_axis(last, pos, axis=1)
    le = np.take_along_axis(cum, last[:, None, :], axis=2)
    lt_pos = first - 1
    lt = np.take_along_axis(
        cum, np.maximum(lt_pos, 0)[:, None, :], axis=2
    )
    lt[np.broadcast_to((lt_pos < 0)[:, None, :], lt.shape)] = 0.0
    S = 1.0 - 0.5 * (le + lt)
    return S, own, w_needle, colid


def _log_products(
    D: np.ndarray,
    W: np.ndarray,
    radii: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Survival products at a needle grid via the cumulative log walk.

    The fast path of the kernel: along the globally sorted distance
    order, passing an element of candidate ``j`` multiplies ``j``'s
    survival factor — so the log of the all-candidate product at every
    radius is one cumsum of per-element log-survival deltas.  Hard
    zeros are tracked with an exact active-zero counter (a zero factor
    never re-enters through ``exp``), and a needle's own candidate is
    divided back out in log space.

    Returns ``(prod, own_or_colid, w_needle, tied)`` with needles in
    sorted order: ``prod`` the ``(B, T)`` product over all candidates
    but the needle's own (element mode) or over all candidates
    (external ``radii`` mode, where the second array is the needle's
    original column instead of its own slot).  ``tied`` is the ``(B,)``
    mask of rows whose duplicated values across candidates (or against
    needles) require the exact tie-run treatment of
    :func:`_survival_core`; their other outputs are meaningless.  Rows
    are independent: a row's outputs do not depend on the others.
    """
    B, n, m = D.shape
    M = n * m
    # Per-candidate sorted tables — bit-identical partial sums to the
    # reference's per-candidate cumsum.  Everything below stays in
    # per-candidate-sorted coordinates (flat column j*m + rank).
    order_c = np.argsort(D, axis=2)
    sd_c = np.take_along_axis(D, order_c, axis=2)
    sw_c = np.take_along_axis(np.broadcast_to(W, D.shape), order_c, axis=2)
    surv = 1.0 - np.cumsum(sw_c, axis=2)
    np.maximum(surv, 0.0, out=surv)
    alive = surv > 0.0
    # log-survival after each element; exact zeros are carried by the
    # `dead` counter instead of -inf, so a dead factor's prior log is
    # removed (its delta becomes -log_before) rather than poisoning
    # the running sum.
    log_surv = np.zeros_like(surv)
    np.log(surv, out=log_surv, where=alive)
    dlog = log_surv.copy()
    dlog[:, :, 1:] -= log_surv[:, :, :-1]
    dead = ~alive

    values = sd_c.reshape(B, M)
    deltas = dlog.reshape(B, M)
    died = np.empty((B, n, m), dtype=np.int8)
    died[:, :, 0] = dead[:, :, 0]
    np.not_equal(dead[:, :, 1:], dead[:, :, :-1], out=died[:, :, 1:])
    died = died.reshape(B, M)
    labels = np.repeat(np.arange(n), m)

    if radii is None:
        colid = None
    else:
        K = radii.shape[1]
        values = np.concatenate([values, radii], axis=1)
        pad = np.zeros((B, K))
        deltas = np.concatenate([deltas, pad], axis=1)
        died = np.concatenate(
            [died, np.zeros((B, K), dtype=np.int8)], axis=1
        )
        labels = np.concatenate(
            [labels, np.full(K, -1, dtype=np.int64)]
        )
        colid = np.concatenate(
            [np.full(M, -1, dtype=np.int64), np.arange(K)]
        )

    # The flat values are n pre-sorted runs (plus the needle block);
    # a stable mergesort exploits those runs.
    order = np.argsort(values, axis=1, kind="stable")
    SV = np.take_along_axis(values, order, axis=1)
    SL = labels[order]
    # Equal values on different candidates (or needles) need the tie
    # run treatment — the log walk cannot split weight at a boundary.
    # Instance-store padding duplicates values only within its own
    # candidate (same label), which the walk handles exactly.
    tied = ((SV[:, 1:] == SV[:, :-1]) & (SL[:, 1:] != SL[:, :-1])).any(
        axis=1
    )

    T = np.cumsum(np.take_along_axis(deltas, order, axis=1), axis=1)
    Z = np.cumsum(
        np.take_along_axis(died, order, axis=1), axis=1, dtype=np.int32
    )
    if radii is None:
        flat_log = log_surv.reshape(B, M)
        own_log = np.take_along_axis(flat_log, order, axis=1)
        own_dead = np.take_along_axis(
            dead.reshape(B, M).astype(np.int8), order, axis=1
        )
        prod = np.exp(T - own_log)
        prod[Z > own_dead] = 0.0
        w_needle = np.take_along_axis(sw_c.reshape(B, M), order, axis=1)
        return prod, SL, w_needle, tied
    rows = np.nonzero(SL < 0)[1].reshape(B, radii.shape[1])
    prod = np.exp(np.take_along_axis(T, rows, axis=1))
    prod[np.take_along_axis(Z, rows, axis=1) > 0] = 0.0
    needle_col = np.take_along_axis(colid[order], rows, axis=1)
    return prod, needle_col, np.zeros_like(prod), tied


def element_survival_probabilities(
    D: np.ndarray,
    W: np.ndarray,
    eval_slots: np.ndarray | None = None,
) -> np.ndarray:
    """``(B, n_eval)`` qualification probabilities from a distance tensor.

    The distance-space core of Step 2: for each evaluated candidate
    ``i``, ``P_i = sum_s w_i(s) * prod_{j != i} Pr[dist(j) > D[.., i, s]]``
    with the half-weight tie convention and a final clamp to
    ``[0, 1]``.  ``eval_slots`` restricts which candidate slots are
    evaluated (all still compete); columns follow its order.  Each row
    is computed on its own: only rows with tied distances take the
    tie-aware path, so a row's answer does not depend on its batch.
    """
    B, n, _m = D.shape
    prod, own, w_needle, tied = _log_products(D, W)
    contrib = w_needle * prod
    if tied.any():
        # Tied rows: exact materialized survival tensor.
        S, own_t, w_t, _ = _survival_core(D[tied], W)
        assert own_t is not None
        # A candidate never competes against itself.
        np.put_along_axis(S, own_t[:, None, :], 1.0, axis=1)
        own[tied] = own_t
        contrib[tied] = w_t * S.prod(axis=1)
    if eval_slots is None:
        out_slot = own
        n_out = n
    else:
        # Non-evaluated slots fall into a drop bin.
        slot_map = np.full(n, len(eval_slots), dtype=np.int64)
        slot_map[eval_slots] = np.arange(len(eval_slots))
        out_slot = slot_map[own]
        n_out = len(eval_slots) + 1
    flat = (np.arange(B)[:, None] * n_out + out_slot).ravel()
    P = np.bincount(
        flat, weights=contrib.ravel(), minlength=B * n_out
    ).reshape(B, n_out)
    if eval_slots is not None:
        P = P[:, : len(eval_slots)]
    np.clip(P, 0.0, 1.0, out=P)
    return P


def element_survivals(D: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``(B, n, n * m)`` survivals of every candidate at every element.

    Column ``c`` of the last axis is element ``(slot c // m,
    instance c % m)`` of ``D`` — original order, for consumers that
    need the individual factors (k-NN's Poisson-binomial DP uses
    ``1 - survival``).  Values on a needle's own slot follow the fast
    path's at-or-below semantics and must not be consumed.
    """
    S, _own, _w, colid = _survival_core(D, W)
    out = np.empty_like(S)
    np.put_along_axis(out, colid[:, None, :], S, axis=2)
    return out


def survival_products(
    D: np.ndarray, W: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """``(B, K)`` product over all candidates of their survival at
    ``radii`` (an external needle grid), in ``radii``'s column order.
    Rows are computed on their own, like
    :func:`element_survival_probabilities`."""
    prod, colid, _w, tied = _log_products(D, W, radii)
    if tied.any():
        # Tied rows: exact materialized survival tensor.
        S, _own, _w2, colid_t = _survival_core(D[tied], W, radii[tied])
        prod[tied] = S.prod(axis=1)
        colid[tied] = colid_t
    out = np.empty_like(prod)
    np.put_along_axis(out, colid, prod, axis=1)
    return out


# ----------------------------------------------------------------------
# Dense-block helpers shared by the engines
# ----------------------------------------------------------------------
def _distance_tensor(block: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``(b, n, m)`` instance distances from a padded candidate block."""
    diff = block[None, :, :, :] - Q[:, None, None, :]
    return np.sqrt(np.einsum("bnmd,bnmd->bnm", diff, diff))


def instance_distance_matrix(
    dataset: UncertainDataset,
    ids: list[int],
    query: np.ndarray,
    stats: ExecutionStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, m)`` padded distances + weights for one query point.

    The single-query view of the kernel's gather + distance steps,
    shared by the engines whose Step 2 is not a plain survival product
    (k-NN's Poisson-binomial, the verifier's histogram bounds, expected
    distances).  Padded entries carry weight exactly 0.  Only the
    store fetch is charged to ``kernel_gather_seconds`` — the distance
    einsum is evaluation work, like everywhere else in the kernel.
    """
    t0 = time.perf_counter()
    block = dataset.instance_store().gather(ids)
    if stats is not None:
        stats.kernel_gather_seconds += time.perf_counter() - t0
    t1 = time.perf_counter()
    q = np.asarray(query, dtype=np.float64)
    D = _distance_tensor(block.instances, q[None, :])[0]
    if stats is not None:
        stats.kernel_eval_seconds += time.perf_counter() - t1
    return D, block.weights


# ----------------------------------------------------------------------
# The Step-2 kernel
# ----------------------------------------------------------------------
def _chunk_rows(b: int, n: int, m: int) -> int:
    """Query rows per numpy chunk keeping the working set under
    :data:`KERNEL_CHUNK_BYTES`.

    The budget is dominated by the ``(rows, n, n * m)`` cumulative
    table; the tie-aware path may materialize ~3 tensors of that shape.
    """
    per_row = 8 * (3 * n + 8) * n * m
    return max(1, min(b, KERNEL_CHUNK_BYTES // max(per_row, 1)))


def batched_qualification_probabilities(
    dataset: UncertainDataset,
    candidate_ids: list[int],
    queries: np.ndarray,
    evaluate_ids: list[int] | None = None,
    *,
    stats: ExecutionStats | None = None,
) -> list[dict[int, float]]:
    """Step 2 for one candidate set and a ``(b, d)`` block of queries.

    Returns one ``oid -> probability`` mapping per query row.  This is
    the single authoritative implementation of the discrete-pdf Step-2
    math (half-weight tie convention, survival products, final clamp to
    ``[0, 1]``); :func:`repro.core.pnnq.qualification_probabilities` is
    the ``b = 1`` view of it.

    ``evaluate_ids`` restricts *whose* probabilities are returned;
    every member of ``candidate_ids`` still participates as a
    competitor in the survival products, so the returned values are
    exact (used by bound-based pruning to skip known losers).

    When the compiled loops are built (:mod:`repro.core.sekernel`), one
    C call walks every row straight off the instance store; the rows
    it flags as tied, or every row without the library, go through the
    numpy kernel on a gathered block.  ``stats`` receives the
    gather/eval wall-clock split (``kernel_gather_seconds``: the store
    lookups and gathers; ``kernel_eval_seconds``: distances and walks).
    """
    Q = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float64)
    b = len(Q)
    if not candidate_ids:
        return [{} for _ in range(b)]
    if evaluate_ids is None:
        evaluate_ids = list(candidate_ids)
    else:
        missing = set(evaluate_ids) - set(candidate_ids)
        if missing:
            raise ValueError(
                f"evaluate_ids not among candidates: {sorted(missing)}"
            )
    if len(candidate_ids) == 1:
        only = candidate_ids[0]
        row = {only: 1.0} if only in evaluate_ids else {}
        return [dict(row) for _ in range(b)]

    n, n_eval = len(candidate_ids), len(evaluate_ids)
    if evaluate_ids == list(candidate_ids):
        eval_slots = None
        column = np.arange(n, dtype=np.int64)
    else:
        slot_of = {oid: i for i, oid in enumerate(candidate_ids)}
        eval_slots = np.fromiter(
            (slot_of[oid] for oid in evaluate_ids),
            dtype=np.int64,
            count=n_eval,
        )
        column = np.full(n, -1, dtype=np.int64)
        column[eval_slots] = np.arange(n_eval)

    store = dataset.instance_store()
    t_gather = t_eval = 0.0
    if sekernel.load() is not None:
        t0 = time.perf_counter()
        instances, weights, starts, lengths = store.rows(candidate_ids)
        t1 = time.perf_counter()
        P, tied = sekernel.step2_walk(
            instances, weights, starts, lengths, Q, column, n_eval
        )
        t_gather += t1 - t0
        t_eval += time.perf_counter() - t1
        rest = np.flatnonzero(tied)
    else:
        P = np.empty((b, n_eval))
        rest = np.arange(b)
    if len(rest):
        t0 = time.perf_counter()
        block = store.gather(candidate_ids)
        t1 = time.perf_counter()
        step = _chunk_rows(len(rest), n, block.weights.shape[1])
        for lo in range(0, len(rest), step):
            part = rest[lo : lo + step]
            D = _distance_tensor(block.instances, Q[part])
            P[part] = element_survival_probabilities(
                D, block.weights, eval_slots
            )
        t_gather += t1 - t0
        t_eval += time.perf_counter() - t1
    if stats is not None:
        stats.kernel_gather_seconds += t_gather
        stats.kernel_eval_seconds += t_eval

    return [
        {
            oid: float(P[row, i])
            for i, oid in enumerate(evaluate_ids)
        }
        for row in range(b)
    ]
