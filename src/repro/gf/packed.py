"""Batched GF(2) elimination: all nodes' echelon bases as stacked uint64 arrays.

:class:`~repro.gf.gf2.GF2Basis` maintains one node's received span as Python
integer bit masks — perfect for a single node, but a whole-network coded
round then costs ``n`` Python-level ``insert`` / ``random_combination`` calls.
This module stores *every* node's basis in one stacked ``uint64`` array with
per-node rank / pivot-lead / sorted-order vectors, so the three steps of a
network-coded round become a handful of numpy passes:

1. **compose** — one random (or pre-committed) pick matrix combined against
   all bases at once (:meth:`GF2BasisBatch.compose_random` /
   :meth:`GF2BasisBatch.combine_sorted`);
2. **insert** — word-parallel XOR elimination of a whole inbox, executed
   in lockstep across the network (:meth:`GF2BasisBatch.insert_batch`):
   one reduce pass against the bases as they stood, a short wave loop
   that appends each basis' innovative vectors in listed order, and one
   dense back-elimination of the previously held rows per call;
3. **decode readiness** — incremental coefficient-rank counters via stacked
   projection bases (:meth:`GF2BasisBatch.coefficient_ranks`), plus a final
   vectorised Gauss-Jordan :meth:`GF2BasisBatch.decode_payload_masks_batch`
   producing every node's payload masks at once.

The batch is *bit-exact* with the per-node implementation: feeding the same
insert sequence to a :class:`GF2Basis` and to one row of the batch yields the
same basis rows, the same innovative flags, the same coefficient ranks and
the same decoded payloads (hypothesis-tested in ``tests/test_gf_packed.py``).
That is what lets the coded kernels replay the object engines' rng streams
verbatim — a composed combination is the XOR of the *same* basis rows in the
same sorted order the per-node code uses.

Saturation short-circuit: when a basis' rank reaches ``span_cap`` (by default
the ambient ``length``, i.e. genuine saturation; kernels that know all
traffic lives in a ``k``-dimensional source span pass ``span_cap=k``),
further inserts skip elimination entirely — every incoming vector must
already be in the span.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "GF2BasisBatch",
    "PICK_REFILL_BYTES",
    "masks_to_packed",
    "packed_to_mask",
    "packed_to_masks",
]

#: Bytes drawn per rng refill of a compose pick-bit buffer.  One generator
#: call is amortised over many composes; the refill size and consumption
#: order are part of the cross-engine determinism contract (the scalar
#: :class:`~repro.coding.subspace.Subspace` replays the same schedule).
PICK_REFILL_BYTES = 512


_U32 = np.uint64(0xFFFFFFFF)


def _word_bit_length(words: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for a uint64 array (0 for zero words).

    ``frexp`` of an exactly-representable positive integer returns its bit
    length as the exponent; both 32-bit halves are < 2^53, so the conversion
    to float64 is exact.
    """
    hi = (words >> np.uint64(32)).astype(np.float64)
    lo = (words & _U32).astype(np.float64)
    return np.where(hi > 0, np.frexp(hi)[1] + 32, np.frexp(lo)[1])


def _leading_bits(vectors: np.ndarray) -> np.ndarray:
    """Highest set bit index of each packed row (-1 for all-zero rows)."""
    m, words = vectors.shape
    nonzero = vectors != 0
    any_nonzero = nonzero.any(axis=1)
    # argmax over the reversed word axis finds the highest non-zero word.
    top_word = words - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    top = vectors[np.arange(m), top_word]
    lead = top_word * 64 + _word_bit_length(top) - 1
    return np.where(any_nonzero, lead, -1)


def _lowest_bits(vectors: np.ndarray) -> np.ndarray:
    """Lowest set bit index of each packed row (-1 for all-zero rows)."""
    m, words = vectors.shape
    nonzero = vectors != 0
    any_nonzero = nonzero.any(axis=1)
    low_word = np.argmax(nonzero, axis=1)
    w = vectors[np.arange(m), low_word]
    isolated = w & (np.uint64(0) - w)  # two's-complement lowest-bit isolation
    low = low_word * 64 + _word_bit_length(isolated) - 1
    return np.where(any_nonzero, low, -1)


def masks_to_packed(masks: Sequence[int], words: int) -> np.ndarray:
    """Pack Python integer bit masks into an ``(m, words)`` uint64 array."""
    if not masks:
        return np.zeros((0, words), dtype=np.uint64)
    nbytes = words * 8
    buffer = b"".join(int(mask).to_bytes(nbytes, "little") for mask in masks)
    return (
        np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words).copy()
    )


def packed_to_mask(row: np.ndarray) -> int:
    """One packed uint64 row back to a Python integer bit mask."""
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


def packed_to_masks(rows: np.ndarray) -> list[int]:
    """Each row of an ``(m, words)`` packed array as a Python integer mask."""
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    stride = rows.shape[1] * 8
    return [
        int.from_bytes(data[i * stride : (i + 1) * stride], "little")
        for i in range(rows.shape[0])
    ]


class GF2BasisBatch:
    """``n`` independent :class:`~repro.gf.gf2.GF2Basis` instances, stacked.

    Parameters
    ----------
    n:
        Number of bases (one per network node).
    length:
        Ambient dimension shared by all bases.
    span_cap:
        Upper bound on any basis' reachable rank.  Defaults to ``length``
        (always sound).  A caller that *knows* all inserted vectors lie in a
        ``c``-dimensional subspace (e.g. RLNC traffic generated from ``c``
        source vectors) may pass ``c`` so saturated bases skip elimination.

    The storage layout:

    * ``rows`` — ``(n, words, capacity)`` uint64 (word-major, so the
      select-and-XOR passes reduce over the contiguous trailing axis, and
      a basis' live rows ``[:rank]`` form one contiguous block per word);
      column ``j`` of basis ``u`` is the ``j``-th *inserted*
      (post-reduction) basis row, bit-identical to the ``j``-th value added
      to ``GF2Basis._rows``.  Rows are kept mutually reduced: no row
      carries another row's leading bit.
    * ``ranks`` — per-basis rank.
    * pivot leads — per basis, row index -> leading bit (-1 when unused),
      with the same pivots cached as (word index, shift) pairs so the
      insert passes extract pivot bits with one gather.
    * sorted order — per basis, row index -> descending-leading-bit position,
      maintained incrementally so composing against ``basis_masks()`` order
      (what the per-node code does) is a gather, not a sort.

    An insert call touches the store in three passes (see
    :meth:`insert_batch`): a reduce against the live columns, a wave loop
    that works on a small per-call block of new rows, and one dense masked
    XOR per call depth that clears the new pivots from the held rows.
    """

    def __init__(self, n: int, length: int, *, span_cap: int | None = None):
        if n < 0:
            raise ValueError(f"batch size must be non-negative, got {n}")
        if length < 0:
            raise ValueError(f"vector length must be non-negative, got {length}")
        self.n = n
        self.length = length
        self.words = max(1, (length + 63) // 64)
        self.span_cap = length if span_cap is None else min(int(span_cap), length)
        self._capacity = max(1, min(self.span_cap, 16))
        # Transposed storage: reducing over the trailing (contiguous) row
        # axis is what lets numpy SIMD-vectorise the select-and-XOR passes.
        self.rows = np.zeros((n, self.words, self._capacity), dtype=np.uint64)
        self._rank = np.zeros(n, dtype=np.int64)
        #: Leading bit of each stored row (-1 for unused slots): the pivot
        #: positions the reduction pass tests the incoming vectors against.
        self._lead = np.full((n, self._capacity), -1, dtype=np.int64)
        #: The same pivots as (word index, shift) pairs, cached for bit
        #: extraction; unused slots point at the zero pad word ``words``.
        self._lead_word = np.full((n, self._capacity), self.words, dtype=np.int64)
        self._lead_shift = np.zeros((n, self._capacity), dtype=np.uint64)
        #: row index -> position in descending-leading-bit order (valid for
        #: row indices < rank; other entries are garbage and masked on use).
        self._pos = np.zeros((n, self._capacity), dtype=np.int64)
        #: Per-basis buffered compose pick bits (value, bit count).
        self._pick_buffer = [0] * n
        self._pick_bits = [0] * n
        self._projections: dict[int, "GF2BasisBatch"] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> np.ndarray:
        """Per-basis rank (a live read-only view; do not mutate)."""
        return self._rank

    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity = min(max(capacity * 2, needed), self.span_cap)
        if capacity == self._capacity:
            return
        extra = capacity - self._capacity
        self.rows = np.concatenate(
            [self.rows, np.zeros((self.n, self.words, extra), dtype=np.uint64)], axis=2
        )
        self._lead = np.concatenate(
            [self._lead, np.full((self.n, extra), -1, dtype=np.int64)], axis=1
        )
        self._lead_word = np.concatenate(
            [self._lead_word, np.full((self.n, extra), self.words, dtype=np.int64)],
            axis=1,
        )
        self._lead_shift = np.concatenate(
            [self._lead_shift, np.zeros((self.n, extra), dtype=np.uint64)], axis=1
        )
        self._pos = np.concatenate(
            [self._pos, np.zeros((self.n, extra), dtype=np.int64)], axis=1
        )
        self._capacity = capacity

    def _truncated(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """The low-``k``-bit projection of packed rows, in ``ceil(k/64)`` words."""
        words_k = max(1, (k + 63) // 64)
        out = vectors[:, :words_k].copy()
        rem = k & 63
        if rem:
            out[:, words_k - 1] &= np.uint64((1 << rem) - 1)
        elif k == 0:
            out[:] = 0
        return out

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert_batch(self, node_ids: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Insert one vector per listed basis, in lockstep; return innovative flags.

        ``vectors`` is ``(len(node_ids), words)`` uint64.  ``node_ids`` *may*
        repeat: repeated entries insert into the same basis in listed order
        (how a round's whole inbox is delivered in one call).  The result
        replicates ``GF2Basis.insert`` per (node, vector) pair, in three
        passes with no per-vector Python loop:

        1. *reduce*: every vector is reduced against its basis as it stood
           before the call — the pivot rows to XOR in are selected by the
           vector's bits at the basis' pivot positions (rows carry no
           foreign pivot bits, so no reduction chain exists);
        2. *waves*: each basis appends the first of its surviving vectors;
           the basis' later vectors are reduced against that one new row
           and re-enter the next wave.  Full reduction yields the canonical
           residual, which depends only on the span and the pivot set, so
           this matches sequential inserts.  Rows added in this call are
           back-eliminated against each other as they arrive; and
        3. *back-eliminate*: the rows a basis held before the call are
           cleared of the call's new pivot bits once, by one dense masked
           XOR per call depth.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        m = node_ids.size
        innovative = np.zeros(m, dtype=bool)
        if m == 0:
            return innovative
        # Saturation short-circuit: a full-rank basis cannot grow, so the
        # incoming vector necessarily reduces to zero.
        open_sel = np.flatnonzero(self._rank[node_ids] < self.span_cap)
        if open_sel.size == 0:
            return innovative
        nodes = node_ids[open_sel]
        words = self.words
        # One trailing zero word: unused pivot slots point at it, so their
        # extracted bit is 0 without a validity mask.
        v = np.zeros((nodes.size, words + 1), dtype=np.uint64)
        v[:, :words] = vectors[open_sel]
        width = int(self._rank[nodes].max())
        if width:
            # Pass 1 — reduce: select each basis' rows whose pivot bit is set
            # in the incoming vector, XOR them all in at once.  Only the live
            # ``[:width]`` columns are read, and the pivot bits come from
            # the cached (word, shift) pairs.
            whole = self._covers_all(nodes)
            at = slice(None) if whole else nodes
            bits = np.take_along_axis(v, self._lead_word[at, :width], axis=1)
            bits >>= self._lead_shift[at, :width]
            bits &= 1
            if bits.any():
                # Multiply-then-reduce over the contiguous row axis: the
                # branch-free form numpy vectorises best.  A gathered block
                # is a fresh copy, so it is multiplied in place.
                if whole:
                    block = self.rows[:, :, :width] * bits[:, None, :]
                else:
                    block = self.rows[nodes, :, :width]
                    block *= bits[:, None, :]
                body = v[:, :words]
                body ^= np.bitwise_xor.reduce(block, axis=2)
        lead = _leading_bits(v)
        pending = np.flatnonzero(lead >= 0)
        if pending.size == 0:
            return innovative
        # This call's new rows, per basis and depth (the wave that added
        # them); stored into ``rows`` only once pass 3 is done.
        depth = int(np.bincount(nodes[pending]).max())
        added = np.zeros((self.n, words, depth), dtype=np.uint64)
        waves: list[tuple[np.ndarray, np.ndarray]] = []
        while pending.size:
            # Pass 2 — one wave: the first listed occurrence per basis
            # appends.  A basis appends in consecutive waves from the first,
            # so its ``w``-th new row sits at depth ``w``.
            _, first, inverse = np.unique(
                nodes[pending], return_index=True, return_inverse=True
            )
            is_first = np.zeros(pending.size, dtype=bool)
            is_first[first] = True
            ready = pending[is_first]
            # Defensive cap clamp (mirrors the scalar short-circuit; a true
            # span_cap makes residuals vanish before this can trigger).
            ready = ready[self._rank[nodes[ready]] < self.span_cap]
            if ready.size:
                w = len(waves)
                ready_nodes = nodes[ready]
                ready_lead = lead[ready]
                y = v[ready, :words]
                if w:
                    # Clear the new pivot bit from the rows this call added
                    # to the same bases.
                    carrier = added[ready_nodes, ready_lead >> 6, :w]
                    carrier >>= (ready_lead & 63).astype(np.uint64)[:, None]
                    carrier &= 1
                    added[ready_nodes, :, :w] ^= y[:, :, None] * carrier[:, None, :]
                added[ready_nodes, :, w] = y
                slots = self._append_rows(ready_nodes, y, ready_lead)
                waves.append((ready_nodes, slots))
                innovative[open_sel[ready]] = True
            rest = pending[~is_first]
            if rest.size == 0:
                break
            # Each later duplicate already carries no pivot bit of its basis
            # except, possibly, the one appended this wave: one row to test.
            # (A basis the cap clamp stopped stays full, so its remaining
            # vectors are dropped whatever they reduce to.)
            rep = pending[first[inverse[~is_first]]]
            rep_lead = lead[rep]
            hit = v[rest, rep_lead >> 6] >> (rep_lead & 63).astype(np.uint64)
            hit &= 1
            v[rest] ^= v[rep] * hit[:, None]
            lead[rest] = _leading_bits(v[rest])
            pending = rest[lead[rest] >= 0]
        # Pass 3 — back-eliminate the rows each basis held before the call.
        # The final row for any pivot p is the unique span vector carrying p
        # and no other pivot.  The held rows were not touched in this call,
        # so they carry no pivot bits except their own and the new pivots
        # l_j they had on entry; hence a held row O ends as
        # O ^ sum_j bit(O, l_j) * N_j over the call's mutually reduced new
        # rows N_j, exactly what sequential inserts leave.  XORing one N_j
        # changes no other l_j' bit, so applying the depths in turn reads
        # each bit as it was on entry.  Columns past a basis' held rows are
        # empty or hold this call's earlier new rows (stored below, whose
        # carrier bit is 0), so the dense XOR needs no rank mask.
        for w, (wave_nodes, slots) in enumerate(waves):
            y = added[wave_nodes, :, w]
            held = int(slots.max()) - w
            if held:
                # repro: allow[REP401] loop is over call depth (<= new rows per basis); each pass batches all grown bases
                carrier = self.rows[wave_nodes, self._lead_word[wave_nodes, slots], :held]
                carrier >>= self._lead_shift[wave_nodes, slots][:, None]
                carrier &= 1
                delta = y[:, :, None] * carrier[:, None, :]
                if self._covers_all(wave_nodes):
                    block = self.rows[:, :, :held]
                    block ^= delta
                else:
                    self.rows[wave_nodes, :, :held] ^= delta
            self.rows[wave_nodes, :, slots] = y
        return innovative

    def _covers_all(self, nodes: np.ndarray) -> bool:
        """True iff ``nodes`` lists every basis once, in uid order.

        Row access for such a batch is a view of the store, not a gather.
        """
        return nodes.size == self.n and bool((nodes == np.arange(self.n)).all())

    def _append_rows(
        self, nodes: np.ndarray, v: np.ndarray, lead: np.ndarray
    ) -> np.ndarray:
        """Register one fully-reduced row per listed basis; return their slots.

        Updates rank, pivot tables, sorted order and the projections; the
        row values themselves are stored by :meth:`insert_batch` once the
        call's back-elimination is done.
        """
        r = self._rank[nodes]
        width = int(r.max())
        if width + 1 > self._capacity:
            self._grow(width + 1)
        if width:
            # Sorted-order maintenance: the new row's descending-lead
            # position is the number of existing leads above it (unused
            # slots hold lead -1, so they never count); rows at or below
            # that position shift down by one.  Only row indices < rank
            # hold meaningful positions, so the shift never needs to touch
            # slots beyond the current maximum rank.
            position = (self._lead[nodes, :width] > lead[:, None]).sum(axis=1)
            pos_rows = self._pos[nodes, :width]
            self._pos[nodes, :width] = pos_rows + (pos_rows >= position[:, None])
        else:
            position = np.zeros(nodes.size, dtype=np.int64)
        self._lead[nodes, r] = lead
        self._lead_word[nodes, r] = lead >> 6
        self._lead_shift[nodes, r] = (lead & 63).astype(np.uint64)
        self._pos[nodes, r] = position
        self._rank[nodes] = r + 1
        for k, projection in self._projections.items():
            projection.insert_batch(nodes, self._truncated(v, k))
        return r

    def lift_masks(self, per_node_masks: Sequence[Sequence[int]]) -> None:
        """Replay per-node mask sequences (e.g. existing ``GF2Basis`` rows).

        Entry ``u`` of ``per_node_masks`` is inserted into basis ``u`` in
        order; used to lift already-built per-node bases into the batch.
        """
        if len(per_node_masks) != self.n:
            raise ValueError(f"need {self.n} mask sequences, got {len(per_node_masks)}")
        depth = max((len(masks) for masks in per_node_masks), default=0)
        for j in range(depth):
            # repro: allow[REP401] loop is over basis depth (<= rank), each pass batches all n nodes
            nodes = np.array(
                [u for u, masks in enumerate(per_node_masks) if len(masks) > j],
                dtype=np.int64,
            )
            vectors = masks_to_packed(
                [per_node_masks[u][j] for u in nodes.tolist()], self.words
            )
            self.insert_batch(nodes, vectors)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def combine_sorted(
        self, picks_sorted: np.ndarray, node_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """XOR-combine each basis' rows selected by a sorted-order pick matrix.

        ``picks_sorted[u, s]`` selects the basis row at descending-leading-bit
        position ``s`` — the order ``GF2Basis.basis_masks()`` returns, i.e.
        the order both ``random_combination_mask`` and
        ``combination_mask_with`` apply coefficients in.  Entries at
        positions >= rank are ignored.  The result is always ``(n, words)``;
        when ``node_ids`` is given only those rows are computed (rows of
        unlisted bases stay zero) — what lets a kernel combine lazily for
        just the senders whose message anyone still needs.
        """
        combined = np.zeros((self.n, self.words), dtype=np.uint64)
        if node_ids is None:
            at = slice(None)
            ranks = self._rank
        else:
            at = node_ids = np.asarray(node_ids, dtype=np.int64)
            ranks = self._rank[node_ids]
            picks_sorted = picks_sorted[node_ids]
        max_rank = int(ranks.max()) if ranks.size else 0
        if max_rank == 0:
            return combined
        width = picks_sorted.shape[1]
        if width < max_rank:
            raise ValueError(f"pick matrix width {width} < max rank {max_rank}")
        # Map picks from sorted positions onto insertion-order rows; only
        # the live ``[:max_rank]`` columns are read (or gathered).
        pos = np.minimum(self._pos[at, :max_rank], width - 1)
        picked = np.take_along_axis(
            np.ascontiguousarray(picks_sorted) != 0, pos, axis=1
        )
        picked &= np.arange(max_rank)[None, :] < ranks[:, None]
        combined[at] = np.bitwise_xor.reduce(
            self.rows[at, :, :max_rank] * picked.astype(np.uint64)[:, None, :], axis=2
        )
        return combined

    def draw_random_picks(
        self,
        rngs: Sequence[np.random.Generator],
        node_ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw every (listed) basis' random non-zero pick vector at once.

        Replays ``Subspace.draw_pick_mask`` bit-for-bit: pick bits come from
        a per-basis buffer refilled with ``rng.bytes(PICK_REFILL_BYTES)``
        (one generator call amortised over many composes), with the all-zero
        draw resampled — basis rows are independent, so the combination is
        zero iff no row is picked.  Returns ``(active, picks)``; feed the
        picks to :meth:`combine_sorted` — possibly lazily and for a subset,
        the XOR work is independent of the rng stream.
        """
        ranks = self._rank
        active = np.zeros(self.n, dtype=bool)
        max_rank = int(ranks.max()) if self.n else 0
        picks = np.zeros((self.n, max(1, max_rank)), dtype=np.uint8)
        if max_rank == 0:
            return active, picks
        uids = np.flatnonzero(ranks > 0) if node_ids is None else np.asarray(node_ids)
        ranks_list = ranks.tolist()
        buffers = self._pick_buffer
        counts = self._pick_bits
        refill_bits = 8 * PICK_REFILL_BYTES
        width_bytes = (max_rank + 7) // 8
        drawn_uids: list[int] = []
        drawn: list[bytes] = []
        for uid in uids.tolist():
            r = ranks_list[uid]
            if r == 0:
                continue
            buffer = buffers[uid]
            bits = counts[uid]
            low = (1 << r) - 1
            while True:
                while bits < r:
                    refill = int.from_bytes(rngs[uid].bytes(PICK_REFILL_BYTES), "little")
                    buffer |= refill << bits
                    bits += refill_bits
                pick = buffer & low
                buffer >>= r
                bits -= r
                if pick:
                    break
            buffers[uid] = buffer
            counts[uid] = bits
            drawn_uids.append(uid)
            drawn.append(pick.to_bytes(width_bytes, "little"))
            active[uid] = True
        if drawn_uids:
            rows = np.unpackbits(
                np.frombuffer(b"".join(drawn), dtype=np.uint8).reshape(
                    len(drawn), width_bytes
                ),
                axis=1,
                count=max_rank,
                bitorder="little",
            )
            picks[drawn_uids] = rows
        return active, picks

    def compose_random(
        self,
        rngs: Sequence[np.random.Generator],
        node_ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw and combine every basis' random non-zero combination at once.

        ``(active, combined)``: ``active[u]`` is False for empty (or
        unlisted) bases, whose ``combined`` rows are zero.
        """
        active, picks = self.draw_random_picks(rngs, node_ids)
        if not active.any():
            return active, np.zeros((self.n, self.words), dtype=np.uint64)
        combined = self.combine_sorted(picks, node_ids)
        combined[~active] = 0
        return active, combined

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def coefficient_ranks(self, k: int) -> np.ndarray:
        """Rank of every basis projected onto its first ``k`` coordinates.

        Incremental exactly like ``GF2Basis.coefficient_rank``: the stacked
        projection for each queried ``k`` is materialised once (replaying the
        stored rows in insertion order) and fed one masked row per subsequent
        innovative insert.
        """
        if k <= 0:
            return np.zeros(self.n, dtype=np.int64)
        if k >= self.length:
            return self._rank.copy()
        projection = self._projections.get(k)
        if projection is None:
            projection = GF2BasisBatch(self.n, k)
            for j in range(int(self._rank.max()) if self.n else 0):
                # repro: allow[REP401] replay is per depth level; every insert batches all live nodes
                nodes = np.flatnonzero(self._rank > j)
                projection.insert_batch(
                    nodes, self._truncated(self.rows[nodes, :, j], k)
                )
            self._projections[k] = projection
        return projection._rank

    def row_masks(self, uid: int) -> list[int]:
        """Basis ``uid``'s rows as Python integer masks, in insertion order."""
        r = int(self._rank[uid])
        return packed_to_masks(self.rows[uid, :, :r].T)

    def basis_masks(self, uid: int) -> list[int]:
        """Basis ``uid``'s rows in descending-leading-bit order (as ints)."""
        r = int(self._rank[uid])
        order = np.argsort(self._pos[uid, :r], kind="stable")
        return packed_to_masks(self.rows[uid][:, order].T)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_payload_masks_batch(
        self, k: int, node_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised Gauss-Jordan decode of the listed bases at once.

        Returns ``(ok, payloads)``: ``ok[i]`` is True iff basis
        ``node_ids[i]``'s coefficient block (its first ``k`` coordinates)
        reached full rank, and ``payloads[i, d]`` is then the packed payload
        (coordinates ``k..length-1``) of the span's combination whose
        coefficient part is ``e_d`` — bit-identical to
        ``GF2Basis.decode_payload_masks``, including its insertion-order row
        scan and its early stop at ``k`` pivots.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        node_ids = (
            np.arange(self.n, dtype=np.int64)
            if node_ids is None
            else np.asarray(node_ids, dtype=np.int64)
        )
        m = node_ids.size
        payload_words = max(1, (max(0, self.length - k) + 63) // 64)
        if k == 0:
            return np.ones(m, dtype=bool), np.zeros((m, 0, payload_words), np.uint64)
        # Pivot rows are stored by their pivot bit, which is exactly the
        # dimension order the decoded payloads come out in.
        pivot_rows = np.zeros((m, k, self.words), dtype=np.uint64)
        pivot_exists = np.zeros((m, k), dtype=bool)
        counts = np.zeros(m, dtype=np.int64)
        ranks = self._rank[node_ids]
        max_rank = int(ranks.max()) if m else 0
        for j in range(max_rank):
            act = np.flatnonzero((ranks > j) & (counts < k))
            if act.size == 0:
                continue
            vec = np.ascontiguousarray(self.rows[node_ids[act], :, j])
            # Reduce by the existing pivot rows.  Pivot rows are mutually
            # reduced (no pivot row carries another pivot's bit), so the
            # per-node sequential loop of the scalar code collapses to one
            # masked XOR-reduce.
            selectors = self._coefficient_bits(vec, k) & pivot_exists[act]
            if selectors.any():
                vec ^= np.bitwise_xor.reduce(
                    pivot_rows[act] * selectors.astype(np.uint64)[:, :, None],
                    axis=1,
                )
            coeff = self._truncated(vec, k)
            pivot = _lowest_bits(coeff)
            good = pivot >= 0
            if not good.any():
                continue
            act, vec, pivot = act[good], vec[good], pivot[good]
            # Back-eliminate: clear the new pivot bit from existing pivot rows.
            word = (pivot >> 6)[:, None, None]
            shift = (pivot & 63).astype(np.uint64)[:, None]
            carrier = (
                np.take_along_axis(pivot_rows[act], word, axis=2)[:, :, 0] >> shift
            ) & np.uint64(1)
            hit_rows, hit_cols = np.nonzero(carrier.astype(bool) & pivot_exists[act])
            if hit_rows.size:
                pivot_rows[act[hit_rows], hit_cols] ^= vec[hit_rows]
            pivot_rows[act, pivot] = vec
            pivot_exists[act, pivot] = True
            counts[act] += 1
        ok = counts >= k
        payloads = self._shift_right(pivot_rows.reshape(m * k, self.words), k)
        return ok, payloads[:, :payload_words].reshape(m, k, payload_words)

    def _coefficient_bits(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """The low ``k`` bits of each packed row as a boolean ``(m, k)`` matrix."""
        m = vectors.shape[0]
        words_k = max(1, (k + 63) // 64)
        bits = np.unpackbits(
            np.ascontiguousarray(vectors[:, :words_k]).view(np.uint8).reshape(m, -1),
            axis=1,
            count=k,
            bitorder="little",
        )
        return bits.astype(bool)

    def _shift_right(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """Right-shift packed rows by ``k`` bits (dropping the low block)."""
        word_shift, bit_shift = divmod(k, 64)
        m, words = vectors.shape
        tail = vectors[:, word_shift:]
        if tail.shape[1] == 0:
            return np.zeros((m, 1), dtype=np.uint64)
        if bit_shift == 0:
            return tail.copy()
        carry = np.zeros_like(tail)
        carry[:, :-1] = tail[:, 1:] << np.uint64(64 - bit_shift)
        return (tail >> np.uint64(bit_shift)) | carry
