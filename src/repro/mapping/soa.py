"""Structure-of-arrays DP kernel: the combine step as numpy columns.

The reference kernel walks feasible fanin pairs one at a time, pricing
and bound-checking each candidate against its ``{W,H}`` slot.  This
kernel instead materializes the whole candidate batch of one combine
call as parallel numpy columns — just the *selection* columns (shape
id, key, ``p_dis``, ``p_tail``, ``par_b``) plus operand-index
provenance — and reduces each slot with vectorized selection.  Only the
winning tuples (one per slot) are ever materialized back into
:class:`MapTuple` objects, their scalar fields gathered straight from
the generation columns (whose arithmetic is the reference's, so the
values are bit-equal), so the per-candidate Python object overhead
disappears from the hot path.

Bit-identity with the reference kernel is the contract (DESIGN.md §12):

* Candidate *generation order* is preserved: ``np.nonzero`` on the
  row-major feasibility mask enumerates pairs a-major then b, exactly
  the reference loops; exhaustive ordering interleaves the two stacking
  orders of each pair as adjacent candidates.
* All scalar arithmetic is elementwise IEEE-754 double ops in the exact
  association the reference uses, so every ``wcost`` and selection key
  is bit-equal to its scalar twin.
* Single mode (and non-PBE pareto, whose slot front provably stays a
  singleton and degenerates to the same strict-min selection): the slot
  winner is the *first occurrence* of the lexicographic minimum of
  ``(key, p_dis)`` — one stable ``np.lexsort`` — which is precisely
  what the reference's strict-``<`` incumbent replacement converges to.
  Accept events (for stats parity) are counted with a segmented prefix
  minimum over the lex ranks, no per-group Python loop.  When the keys
  fit an exact integer image (integral costs, or float32-exact values),
  ``(key, p_dis)`` packs into one int64 word and the whole selection
  runs as a packed segmented prefix minimum with a single one-pass
  radix argsort on the shape id.  Realistic cost models defeat the
  pack — fanout amortization (``wcost / fanout`` in the area-flow
  seed) makes most keys binary-infinite fractions — so the workhorse
  is the sort path: a monotone uint16-digit image of the f64 key keeps
  ``np.lexsort`` on its radix path end to end (sticky per-run downgrade
  ladder int16 -> f32 image -> f64 image, re-validated every batch).
* PBE pareto tables and pre-seeded tables go to a
  :class:`~repro.mapping.kernel.ReferenceKernel` built for the same
  engine.  The bounded PBE front is a sequential recurrence within each
  slot, and a seeded table must replay every candidate against its
  incumbents.  The scalar loop's slot-indexed front matched or beat a
  columnwise replay up to W20/H24, and no workload maps larger Pareto
  tables (DESIGN.md §12).  Those calls count no soa batch, and the
  scalar loop updates the engine counters itself.
* Slot dict order is the shapes' first-candidate order, matching the
  reference's create-on-first-arrival — load-bearing because the tree
  cache serializes tables in slot-insertion order.

Stats parity: ``tuples_created``/``tuples_pruned``/``bound_skips`` are
reproduced exactly, so the auto kernel can mix both kernels within one
run without observable drift.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

import numpy as np

from .._compat import deprecated
from .kernel import ReferenceKernel, metric_fast_path
from .tuples import MapTuple, TupleTable


def make_soa_kernel() -> "SoAKernel":
    """A fresh :class:`SoAKernel`, the registry's construction path.

    The only supported way to instantiate the kernel: direct
    ``SoAKernel()`` construction is deprecated (remove_in 0.7) in favor
    of the kernel registry, and the built-in factories route here.
    """
    kernel = SoAKernel.__new__(SoAKernel)
    kernel._init()
    return kernel


#: The MapTuple fields ``_cols`` gathers, in column order.
_COL_FIELDS = attrgetter("width", "height", "wcost", "levels", "p_dis",
                         "p_tail", "par_b", "ends_par", "trans", "disch",
                         "has_pi")

#: uint16 digits of a uint64/uint32, least significant first
#: (endian-aware).
_DIGITS = (0, 1, 2, 3) if np.little_endian else (3, 2, 1, 0)
_DIGITS32 = (0, 1) if np.little_endian else (1, 0)
_SIGN64 = np.uint64(1 << 63)
_SIGN32 = np.uint32(1 << 31)
_U63 = np.uint64(63)
_U31 = np.uint32(31)


class SoAKernel:
    """The vectorized peer of :class:`~repro.mapping.kernel.ReferenceKernel`."""

    name = "soa"
    active = "soa"

    def __init__(self):
        deprecated(
            "constructing repro.mapping.soa.SoAKernel directly is "
            "deprecated; select it through the kernel registry instead "
            "(MapperConfig(kernel='soa'), or register_kernel() for a "
            "custom factory)", remove_in="0.7")
        self._init()

    def _init(self):
        self._engine = None
        self._batches = 0
        self._candidates = 0
        self._max_batch = 0
        #: id(view) -> column tuple; views are memoized per node by the
        #: engine for the whole run, so ids are stable until finalize().
        self._vcols = {}

    def build(self, engine) -> None:
        self._engine = engine
        self._vcols.clear()
        config = engine.config
        self._w_max = config.w_max
        self._h_max = config.h_max
        self._hstride = config.h_max + 1
        self._pbe = config.pbe_aware
        # PBE pareto fronts (and any pre-seeded table) run on the
        # scalar loop; the columns below only ever select one winner.
        self._scalar_front = config.pareto and config.pbe_aware
        self._scalar = ReferenceKernel()
        self._scalar.build(engine)
        ordering = config.ordering
        pbe = config.pbe_aware
        self._adverse = (ordering == "adverse"
                         or (not pbe and ordering != "naive"))
        self._naive = not self._adverse and (not pbe or ordering == "naive")
        self._exhaustive = (not self._adverse and not self._naive
                            and ordering == "exhaustive")
        self._discharge = engine.model.discharge_cost()
        self._ft = np.array([False, True])
        # Shape ids and potential-point counts fit int16 for any sane
        # limit pair (p_dis is bounded by the structure's device count,
        # itself at most w_max*h_max); numpy's radix sort only covers
        # <=16-bit integers, and the radix path sorts ~4x faster than a
        # comparison sort, so it is worth gating on.
        self._i16 = (config.w_max + 1) * (config.h_max + 1) < 32000
        # Key-image ladder for _key_cols: 0 = int16 (one radix pass),
        # 1 = float32 image (two), 2 = float64 image (four).  Sticky
        # downgrade: once a batch's keys outgrow a level it never comes
        # back (the equality check still runs every batch — soundness
        # never rests on the cached level).
        self._kimg = 0
        # Compound-packing budget for _pack: (key, p_dis) as one int64
        # whose strict < is the lex order.  pd_bits bounds p_dis (device
        # count <= w_max * h_max); g_bits bounds the per-batch group
        # count (shapes <= (w_max+1) * (h_max+1)); the key gets what is
        # left of 59 bits so group offsets never overflow an int64.
        pb = max((config.w_max * config.h_max).bit_length(), 1)
        gb = ((config.w_max + 1) * (config.h_max + 1)).bit_length()
        kb = 59 - pb - gb
        self._span = 1 << pb
        self._kint_max = 1 << min(kb, 52) if kb > 0 else 0
        self._off_int = 1 << (min(kb, 52) + pb + 2)
        self._f32_ok = kb >= 32
        self._off_f32 = 1 << (32 + pb + 1)
        #: pack ladder: 0 = integer keys, 1 = float32 image, 2 = give up
        #: (rank-compressing via np.unique was tried here and lost: its
        #: comparison sort costs more than the radix lexsort it avoids)
        self._pimg = 0
        metric = metric_fast_path(engine.model)
        if metric is None:  # resolve_kernel guarantees otherwise
            raise RuntimeError(
                "SoAKernel requires the scalar metric fast path")
        self._metric = metric

    def finalize(self) -> None:
        self._vcols.clear()

    def stats(self) -> dict:
        return {"active": self.active, "soa_batches": self._batches,
                "soa_candidates": self._candidates,
                "soa_max_batch": self._max_batch}

    # ------------------------------------------------------------------
    # column extraction
    # ------------------------------------------------------------------
    def _cols(self, view: List[MapTuple]):
        cols = self._vcols.get(id(view))
        if cols is None:
            # One C-level attrgetter pass + one float64 matrix instead
            # of eleven listcomps: every field is exact in a double
            # (ints bounded far below 2**53), so the per-column casts
            # reproduce the original values bit-for-bit.
            m = np.array([_COL_FIELDS(t) for t in view],
                         dtype=np.float64).reshape(len(view), 11)
            cols = (
                m[:, 0].astype(np.int64),   # width
                m[:, 1].astype(np.int64),   # height
                m[:, 2],                    # wcost
                m[:, 3].astype(np.int64),   # levels
                m[:, 4].astype(np.int64),   # p_dis
                m[:, 5].astype(np.int64),   # p_tail
                m[:, 6] != 0.0,             # par_b
                m[:, 7] != 0.0,             # ends_par
                m[:, 8].astype(np.int64),   # trans
                m[:, 9].astype(np.int64),   # disch
                m[:, 10] != 0.0,            # has_pi
            )
            self._vcols[id(view)] = cols
        return cols

    # ------------------------------------------------------------------
    # the combine step
    # ------------------------------------------------------------------
    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
        if self._scalar_front or table.raw_slots():
            self._scalar.combine(table, is_or, view_a, view_b)
            return
        stats = self._engine.stats
        self._batches += 1
        stats.soa_batches += 1
        batch = (self._gen_or if is_or else self._gen_ser)(view_a, view_b)
        if batch is None:
            return
        n = batch["n"]
        self._candidates += n
        stats.soa_candidates += n
        if n > self._max_batch:
            self._max_batch = n
            if n > stats.soa_max_batch:
                stats.soa_max_batch = n
        # Without PBE bookkeeping every p field is constant across a
        # slot, so pareto dominance collapses to "key not worse": the
        # front is always the strict running (key, p_dis) minimum —
        # exactly single-mode selection.
        pruned = self._reduce_single(table, batch, is_or, view_a, view_b)
        stats.tuples_created += n
        stats.tuples_pruned += pruned
        stats.bound_skips += pruned

    # ------------------------------------------------------------------
    # candidate generation (selection columns only)
    # ------------------------------------------------------------------
    def _gen_or(self, view_a, view_b):
        aW, aH, aWC, aLV, aPD = self._cols(view_a)[:5]
        bW, bH, bWC, bLV, bPD = self._cols(view_b)[:5]
        # Row-major nonzero == the reference's a-major, b-minor loop.
        ai, bi = np.nonzero(aW[:, None] + bW[None, :] <= self._w_max)
        n = ai.size
        if n == 0:
            return None
        sid = ((aW[ai] + bW[bi]) * self._hstride
               + np.maximum(aH[ai], bH[bi]))
        wcost = aWC[ai] + bWC[bi]
        levels = np.maximum(aLV[ai], bLV[bi])
        # Inside a parallel stack every potential point rides on the
        # stack's shared bottom node: p_tail == p_dis, par_b True.
        p_dis = aPD[ai] + bPD[bi] if self._pbe else None
        return {"n": n, "sid": sid, "key": self._metric(wcost, levels),
                "p_dis": p_dis, "p_tail": p_dis, "par_b": None,
                "pair_a": ai, "pair_b": bi, "top_is_b": None,
                "wcost": wcost, "levels": levels, "committed": None}

    def _gen_ser(self, view_a, view_b):
        aW, aH, aWC, aLV, aPD, aPT, aPB, aEP = self._cols(view_a)[:8]
        bW, bH, bWC, bLV, bPD, bPT, bPB, bEP = self._cols(view_b)[:8]
        ai, bi = np.nonzero(aH[:, None] + bH[None, :] <= self._h_max)
        n0 = ai.size
        if n0 == 0:
            return None
        # Shape, base cost and levels are symmetric in the operands, so
        # they never need the top/bottom pick below.
        sid = (np.maximum(aW[ai], bW[bi]) * self._hstride
               + (aH[ai] + bH[bi]))
        wbase = aWC[ai] + bWC[bi]
        levels = np.maximum(aLV[ai], bLV[bi])

        if not self._pbe:
            # No committed discharges: both stacking orders share every
            # scalar, the ordering rule only affects provenance.
            top_is_b = (bEP[bi] & ~aEP[ai]) if self._adverse else None
            return {"n": n0, "sid": sid,
                    "key": self._metric(wbase, levels),
                    "p_dis": None, "p_tail": None, "par_b": None,
                    "pair_a": ai, "pair_b": bi, "top_is_b": top_is_b,
                    "wcost": wbase, "levels": levels, "committed": None}

        aPDs, bPDs = aPD[ai], bPD[bi]
        aPTs, bPTs = aPT[ai], bPT[bi]
        aPBs, bPBs = aPB[ai], bPB[bi]
        if self._exhaustive:
            # Both stacking orders per pair, as adjacent candidates in
            # the reference's (a,b)-then-(b,a) order.
            def ilv(xa, xb):
                out = np.empty(2 * n0, dtype=xa.dtype)
                out[0::2] = xa
                out[1::2] = xb
                return out

            tPD, bPD_ = ilv(aPDs, bPDs), ilv(bPDs, aPDs)
            tPT, bPT_ = ilv(aPTs, bPTs), ilv(bPTs, aPTs)
            tPB, bPB_ = ilv(aPBs, bPBs), ilv(bPBs, aPBs)
            sid = np.repeat(sid, 2)
            wbase = np.repeat(wbase, 2)
            levels = np.repeat(levels, 2)
            pair_a = np.repeat(ai, 2)
            pair_b = np.repeat(bi, 2)
            top_is_b = np.tile(self._ft, n0)
            n = 2 * n0
        else:
            if self._adverse:
                # Bulk-CMOS habit: the parallel stack rises toward the
                # dynamic node.
                swap = bEP[bi] & ~aEP[ai]
            elif self._naive:
                swap = None
            else:
                # The paper's rule: a parallel-stack-bearing operand
                # sinks to the bottom; with both or neither, the operand
                # with more potential discharge points sinks.
                swap = np.where(aPBs != bPBs, aPBs, aPDs >= bPDs)
            if swap is None:
                tPD, bPD_ = aPDs, bPDs
                tPT, bPT_ = aPTs, bPTs
                tPB, bPB_ = aPBs, bPBs
            else:
                tPD, bPD_ = np.where(swap, bPDs, aPDs), np.where(swap, aPDs, bPDs)
                tPT, bPT_ = np.where(swap, bPTs, aPTs), np.where(swap, aPTs, bPTs)
                tPB, bPB_ = np.where(swap, bPBs, aPBs), np.where(swap, aPBs, bPBs)
            pair_a, pair_b, top_is_b = ai, bi, swap
            n = n0
        # A parallel-ending top commits its trailing-stack points plus
        # the new junction; a series-ending top adds the junction to the
        # spine as a new potential point.
        committed = np.where(tPB, tPT + 1, 0)
        p_dis = np.where(tPB, (tPD - tPT) + bPD_, tPD + 1 + bPD_)
        # Same association as the reference: (top + bottom) + committed*d.
        wcost = wbase + committed * self._discharge
        return {"n": n, "sid": sid, "key": self._metric(wcost, levels),
                "p_dis": p_dis, "p_tail": bPT_, "par_b": bPB_,
                "pair_a": pair_a, "pair_b": pair_b, "top_is_b": top_is_b,
                "wcost": wcost, "levels": levels, "committed": committed}

    # ------------------------------------------------------------------
    # winner materialization
    # ------------------------------------------------------------------
    def _mat_many(self, batch, idx, is_or: bool,
                  view_a, view_b) -> List[MapTuple]:
        """Materialize the tuples at batch positions ``idx``, in order.

        Every scalar field is gathered from the generation columns
        (already bit-exact); only the provenance back-pointers touch the
        operand objects, so no winner is re-priced in Python.
        """
        acols = self._cols(view_a)
        bcols = self._cols(view_b)
        pa = batch["pair_a"][idx]
        pb = batch["pair_b"][idx]
        trans = acols[8][pa] + bcols[8][pb]
        disch = acols[9][pa] + bcols[9][pb]
        committed = batch["committed"]
        if committed is not None:
            cm = committed[idx]
            trans = trans + cm
            disch = disch + cm
        sid = batch["sid"][idx]
        wl = (sid // self._hstride).tolist()
        hl = (sid % self._hstride).tolist()
        wcost = batch["wcost"][idx].tolist()
        levels = batch["levels"][idx].tolist()
        transl = trans.tolist()
        dischl = disch.tolist()
        haspil = (acols[10][pa] | bcols[10][pb]).tolist()
        p_dis = batch["p_dis"]
        if p_dis is None:
            pdl = ptl = None
        else:
            pdl = p_dis[idx].tolist()
            p_tail = batch["p_tail"]
            ptl = pdl if p_tail is p_dis else p_tail[idx].tolist()
        par_b = batch["par_b"]
        parl = par_b[idx].tolist() if par_b is not None else None
        m = len(wl)
        if pdl is None:
            pdl = ptl = [0] * m
        nones = [None] * m
        # ``map(MapTuple, ...)`` drives the construction loop in C with
        # all-positional calls (structure=None slot included) — no
        # per-tuple bytecode, measurable at this call volume.
        lefts = list(map(view_a.__getitem__, pa.tolist()))
        rights = list(map(view_b.__getitem__, pb.tolist()))
        if is_or:
            trues = [True] * m
            return list(map(MapTuple, wl, hl, wcost, transl, dischl,
                            levels, pdl, trues, haspil, nones, ptl,
                            trues, ["par"] * m, lefts, rights))
        if parl is None:
            parl = [False] * m
        tib = batch["top_is_b"]
        if tib is not None:
            for j in np.flatnonzero(tib[idx]).tolist():
                lefts[j], rights[j] = rights[j], lefts[j]
        # ends_par (the second ``nones``) is derived in
        # MapTuple.__init__ from right.ends_par, exactly the bottom's.
        return list(map(MapTuple, wl, hl, wcost, transl, dischl,
                        levels, pdl, parl, haspil, nones, ptl, nones,
                        ["ser"] * m, lefts, rights))

    # ------------------------------------------------------------------
    # sorting and packing
    # ------------------------------------------------------------------
    def _sort_cols(self, batch):
        """``(sid, p_dis)`` as sort columns, int16 when limits allow.

        numpy's stable argsort is a radix sort only for <=16-bit
        integers; selection sorts these columns once or twice per batch,
        so the one-pass downcast pays for itself many times.
        """
        sid = batch["sid"]
        p_dis = batch["p_dis"]
        if not self._i16:
            return sid, p_dis
        return (sid.astype(np.int16),
                None if p_dis is None else p_dis.astype(np.int16))

    def _order(self, sid_s, key, pd_s):
        """Stable order by (shape id, key, p_dis, arrival).

        The float key is mapped to its order-isomorphic unsigned-int
        image and split into uint16 digits, so the whole lexsort runs on
        numpy's radix path (LSD radix over the digits reproduces the
        exact integer — hence float — order).  When every key survives a
        float32 round trip (distinct doubles stay distinct, order and
        equality intact — always true for integer-like area costs) the
        image needs two digits instead of four.  Zero keys are
        normalized to one image so a -0.0/+0.0 tie cannot disturb
        arrival order.
        """
        if self._i16:
            cols = self._key_cols(key) + (sid_s,)
            if pd_s is not None:
                cols = (pd_s,) + cols
            return np.lexsort(cols)
        if pd_s is None:
            return np.lexsort((key, sid_s))
        return np.lexsort((pd_s, key, sid_s))

    def _pack(self, key, pd_s):
        """``(pack, off)``: int64 image of ``(key, p_dis)``, or None.

        Strict ``<`` on the pack is exactly lexicographic
        ``(key, p_dis)``, which turns per-slot winner selection and
        accept counting into a segmented prefix minimum in arrival
        order — no sort over the key at all.  Integer-valued keys (all
        built-in cost models) embed directly; otherwise a verified
        float32 round trip supplies an order-isomorphic uint32 image.
        ``off`` is a power of two exceeding the pack range, used to
        separate shape groups under one global running minimum.  Sticky
        downgrade as in :meth:`_key_cols`; returns None (caller falls
        back to the sort path) when the key fits neither form.
        """
        lvl = self._pimg
        if lvl == 2:
            return None
        with np.errstate(invalid="ignore"):
            if lvl == 0:
                ki = key.astype(np.int64)
                if (np.array_equal(ki, key)
                        and int(ki.min()) > -self._kint_max
                        and int(ki.max()) < self._kint_max):
                    pack = ki * self._span
                    if pd_s is not None:
                        pack += pd_s
                    return pack, self._off_int
                self._pimg = lvl = 1
            if lvl == 1 and self._f32_ok:
                k32 = key.astype(np.float32)
                if np.array_equal(k32, key):
                    kb = k32.view(np.uint32)
                    ku = np.where(kb >> _U31 != 0, ~kb, kb | _SIGN32)
                    ku[k32 == 0.0] = _SIGN32
                    pack = ku.astype(np.int64) * self._span
                    if pd_s is not None:
                        pack += pd_s
                    return pack, self._off_f32
        self._pimg = 2
        return None

    def _key_cols(self, key):
        """Radix digits of ``key``, least significant first.

        Integer-valued keys below 2**15 (plain area costs) sort in one
        int16 pass; keys that survive a float32 round trip in two; the
        general double in four.  Each cast is verified by exact
        equality, so a passing level is a proof that distinct doubles
        stay distinct with order intact.
        """
        lvl = self._kimg
        with np.errstate(invalid="ignore"):
            if lvl == 0:
                k16 = key.astype(np.int16)
                if np.array_equal(k16, key):
                    return (k16,)
                self._kimg = lvl = 1
            if lvl == 1:
                k32 = key.astype(np.float32)
                if np.array_equal(k32, key):
                    kb = k32.view(np.uint32)
                    ku = np.where(kb >> _U31 != 0, ~kb, kb | _SIGN32)
                    ku[k32 == 0.0] = _SIGN32
                    d = ku.view(np.uint16).reshape(-1, 2)
                    return (d[:, _DIGITS32[0]], d[:, _DIGITS32[1]])
                self._kimg = 2
        kb = key.view(np.uint64)
        ku = np.where(kb >> _U63 != 0, ~kb, kb | _SIGN64)
        ku[key == 0.0] = _SIGN64
        d = ku.view(np.uint16).reshape(-1, 4)
        return (d[:, _DIGITS[0]], d[:, _DIGITS[1]],
                d[:, _DIGITS[2]], d[:, _DIGITS[3]])

    def _reduce_single(self, table, batch, is_or, view_a, view_b):
        n = batch["n"]
        sid = batch["sid"]
        key = batch["key"]
        sid_s, pd_s = self._sort_cols(batch)
        packoff = self._pack(key, pd_s) if self._i16 else None
        if packoff is not None:
            # Packed path: strict < on the int64 pack is lexicographic
            # (key, p_dis), so the reference's strict-< incumbent
            # replacement is a running minimum of the pack in arrival
            # order.  One stable (radix) argsort on the shape id lays
            # candidates out group-by-group with arrival order intact;
            # per-group offsets larger than the pack range then let a
            # single global prefix minimum reset at group boundaries.
            pack, off = packoff
            gorder = np.argsort(sid_s, kind="stable")
            sid_g = sid_s[gorder]
            newgrp = np.empty(n, dtype=bool)
            newgrp[0] = True
            np.not_equal(sid_g[1:], sid_g[:-1], out=newgrp[1:])
            starts = np.flatnonzero(newgrp)
            G = starts.size
            seg = np.cumsum(newgrp)
            rr = pack[gorder] + (G + 1 - seg) * off
            cm = np.minimum.accumulate(rr)
            # Accept events (stats parity): every strict running
            # minimum (group firsts included, via the offset drop).
            accepts = 1 + int(np.count_nonzero(rr[1:] < cm[:-1]))
            # The slot winner is the *first* position attaining the
            # group's final minimum: cm is non-increasing, so within a
            # group cm == final-min marks a suffix whose length counts
            # back to the first attainment.
            ends = np.empty(G, dtype=np.int64)
            ends[:-1] = starts[1:]
            ends[-1] = n
            hits = cm == np.repeat(cm[ends - 1], ends - starts)
            hitn = np.add.reduceat(hits.astype(np.int64), starts)
            winners = gorder[ends - hitn]
            # Slots are created in each shape's first-arrival order.
            first_arrival = np.minimum.reduceat(gorder, starts)
            winners = winners[np.argsort(first_arrival, kind="stable")]
        else:
            winners, accepts = self._select_sorted(batch, sid_s, pd_s, n)
        slots = table.raw_slots()
        ws = sid[winners]
        wl = (ws // self._hstride).tolist()
        hl = (ws % self._hstride).tolist()
        kl = key[winners].tolist()
        mats = self._mat_many(batch, winners, is_or, view_a, view_b)
        for w_, h_, k_, m_ in zip(wl, hl, kl, mats):
            slots[(w_, h_)] = [(k_, m_)]
        return n - accepts

    def _select_sorted(self, batch, sid_s, pd_s, n):
        """Sort-based single-mode selection (keys that defeat _pack).

        Stable lexsort: primary shape, then (key, p_dis), ties in
        original order — the first element of each shape group is the
        first occurrence of the lexicographic minimum, exactly the
        incumbent the reference's strict-< replacement ends up with.
        """
        order = self._order(sid_s, batch["key"], pd_s)
        sid_o = sid_s[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(sid_o[1:], sid_o[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        G = starts.size
        seg = np.cumsum(newgrp)
        # Accept events (stats parity): the reference's strict-<
        # incumbent replacement fires exactly when a candidate arrives
        # before every lex-smaller candidate of its group, i.e. at the
        # running strict minima of *arrival index* along lex order.
        # Per-group offsets decrease by more than the index range so one
        # global prefix minimum resets at each group boundary.
        rr = order + (G + 1 - seg) * n
        cm = np.minimum.accumulate(rr)
        accepts = 1 + int(np.count_nonzero(rr[1:] < cm[:-1]))
        # First lex element per group is the winner; slots are created
        # in each shape's first-*arrival* order (= ascending group
        # minimum of the arrival index).
        first_arrival = np.minimum.reduceat(order, starts)
        winners = order[starts][np.argsort(first_arrival, kind="stable")]
        return winners, accepts
