"""DP kernel selection: the kernel registry and the reference kernel.

The combine/dominance inner loop of the mapping DP is pluggable: a
*kernel registry* maps the spellings :attr:`MapperConfig.kernel`
accepts to factories producing :class:`KernelProtocol` implementations.
Three kernels ship built in:

* ``"reference"`` — the scalar Python kernel (this module), a literal
  transcription of :meth:`TupleTable.insert` with the lazy-structure and
  incumbent-bound optimizations of PR 2.  It is the oracle: every other
  kernel must reproduce its tables bit-for-bit.
* ``"soa"`` — the structure-of-arrays numpy kernel
  (:mod:`repro.mapping.soa`): candidate generation and single-best
  selection as broadcasted column arithmetic, bit-identical to the
  reference by construction; PBE-Pareto and pre-seeded tables run on
  the reference loop (see DESIGN.md §12).
* ``"auto"`` — a hybrid that routes a series (AND) combine call of a
  single-best run to the soa kernel when numpy is importable and its
  candidate grid is at least ``MapperConfig.auto_threshold`` pairs, and
  every other call to the reference kernel; Pareto runs never route to
  soa (see :data:`AUTO_THRESHOLD` for the measured crossover behind the
  rule).  Sound because both kernels
  produce identical tables *and* identical stats counters; the per-call
  routing tally lands in ``stats.auto_routed_soa`` /
  ``stats.auto_routed_reference`` and the report kernel block.

Third-party kernels plug in via :func:`register_kernel` and are
selected with ``MapperConfig(kernel="<name>")`` like the built-ins.
They inherit the same parity obligations: identical tables (slot
insertion order included — the tree cache serializes it) and identical
``tuples_created``/``tuples_pruned``/``bound_skips`` counters, so runs
mixing kernels stay bit-identical.  The dual-kernel digest sweep and
the fuzzed slot-for-slot harness in ``tests/mapping`` are the reusable
parity witnesses.

A kernel is bound to one :class:`~repro.mapping.engine.MappingEngine`
run via :meth:`KernelProtocol.build` and then receives every per-node
:meth:`KernelProtocol.combine` call.  :meth:`KernelProtocol.finalize`
runs once after the DP; :meth:`KernelProtocol.stats` exposes per-kernel
diagnostics for reports.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Protocol, runtime_checkable

try:  # numpy is an optional dependency: the soa kernel needs it,
    import numpy as np  # everything else runs without it.
except ImportError:  # pragma: no cover - exercised via monkeypatch
    np = None

from ..errors import MappingError
from ..pipeline.metrics import MappingStats
from .cost import CostModel
from .tuples import MapTuple, TupleTable

#: The built-in kernel spellings (CLI choices; the registry may hold
#: more — ``available_kernels()`` is the authoritative list).
KERNELS = ("reference", "soa", "auto")

#: Default for ``MapperConfig.auto_threshold``: minimum
#: ``len(view_a) * len(view_b)`` for the auto kernel to route a series
#: combine call to the soa kernel.  Measured with
#: ``benchmarks/kernel_crossover.py`` (per-op tables in DESIGN.md §12):
#: soa wins every single-best series bucket from 2,048 pairs at W5/H8,
#: W8/H10 and W12/H14, and loses every parallel (OR) bucket at W5/H8
#: and W8/H10 up to 8,192 pairs.  2,048 also sits
#: above every single-best grid at the paper's W5/H8 (at most about
#: 41 x 41 pairs), so paper-limit runs never pay for soa.
AUTO_THRESHOLD = 2048

#: name -> factory.  A factory is called with the bound-to-be
#: :class:`~repro.mapping.engine.MappingEngine` and returns an
#: *unbuilt* kernel instance; ``resolve_kernel`` calls ``build`` on it.
_REGISTRY: Dict[str, Callable] = {}


def register_kernel(name: str, factory: Callable, *,
                    replace: bool = False) -> None:
    """Register a DP kernel factory under ``name``.

    ``factory(engine)`` must return an object satisfying
    :class:`KernelProtocol`; it receives the engine *before* ``build``
    so it can inspect ``engine.config`` / ``engine.model`` and choose
    what to instantiate (the built-in ``"soa"`` factory, for example,
    degrades to the reference kernel for non-vectorizable cost models).
    The returned kernel carries the full parity obligations spelled out
    in the module docstring — bit-identical tables and work counters.

    Registered names become valid ``MapperConfig(kernel=...)`` values
    immediately.  Re-registering an existing name raises
    :class:`~repro.errors.MappingError` unless ``replace=True`` — the
    guard that keeps a plugin from silently shadowing a built-in.
    """
    if not isinstance(name, str) or not name:
        raise MappingError("kernel name must be a non-empty string, "
                           f"got {name!r}")
    if not callable(factory):
        raise MappingError(f"kernel factory for {name!r} must be callable, "
                           f"got {factory!r}")
    if name in _REGISTRY and not replace:
        raise MappingError(
            f"kernel {name!r} is already registered; pass replace=True "
            "to override it")
    _REGISTRY[name] = factory


def unregister_kernel(name: str) -> None:
    """Remove a registered kernel (built-ins refuse to unregister)."""
    if name in KERNELS:
        raise MappingError(f"cannot unregister built-in kernel {name!r}")
    if name not in _REGISTRY:
        raise MappingError(f"kernel {name!r} is not registered")
    del _REGISTRY[name]


def available_kernels() -> tuple:
    """Registered kernel names, built-ins first, in registration order.

    This is the list ``MapperConfig`` validates ``kernel=`` against and
    the list error messages cite.
    """
    return tuple(_REGISTRY)


def metric_fast_path(model: CostModel):
    """``model.tuple_key_metrics`` when the scalar fast path is sound.

    The fast path prices candidates from raw ``(wcost, levels)`` metrics
    without allocating a tuple.  It is only trusted when ``tuple_key``
    is the base-class delegation to ``tuple_key_metrics``; a model
    overriding ``tuple_key`` directly gets ``None`` (and the reference
    kernel's allocate-then-insert path).
    """
    return (model.tuple_key_metrics
            if type(model).tuple_key is CostModel.tuple_key else None)


def metric_vectorizable(model: CostModel) -> bool:
    """True when ``tuple_key_metrics`` prices numpy columns elementwise.

    Probes the metric with small arrays and checks the result is a
    float64 column that agrees with the scalar spelling — the condition
    under which the soa kernel's vectorized keys are bit-identical to
    the reference kernel's scalar keys.  Both shipped key forms (plain
    ``wcost`` and ``level_weight * levels + wcost``) pass; a subclass
    using non-ufunc arithmetic fails closed.
    """
    metric = metric_fast_path(model)
    if metric is None or np is None:
        return False
    wcost = np.array([0.0, 1.5], dtype=np.float64)
    levels = np.array([0, 3], dtype=np.int64)
    try:
        out = metric(wcost, levels)
    except Exception:
        return False
    if not (isinstance(out, np.ndarray) and out.shape == (2,)
            and out.dtype == np.float64):
        return False
    return (float(out[0]) == float(metric(0.0, 0))
            and float(out[1]) == float(metric(1.5, 3)))


@runtime_checkable
class KernelProtocol(Protocol):
    """What the mapping engine requires of a DP kernel."""

    #: the configured spelling this kernel implements
    name: str
    #: what actually runs ("reference", "soa", or "hybrid")
    active: str

    def build(self, engine) -> None:
        """Bind per-run state (config, cost model, stats) from ``engine``."""

    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
        """Fill ``table`` with the surviving combinations of the views."""

    def finalize(self) -> None:
        """Flush any buffered per-run state (called once after the DP)."""

    def stats(self) -> dict:
        """Per-kernel diagnostics for reports (JSON-ready)."""


#: Stacking-order choices of one series pair, as "is ``b`` on top?"
#: flags: one order for the single-order rules, both for exhaustive.
_A_ON_TOP = (False,)
_B_ON_TOP = (True,)
_BOTH_ORDERS = (False, True)

#: Truncation rank of a Pareto-front record: ``(key, p_dis)``, the
#: stable sort :meth:`TupleTable.insert` truncates by.
_FRONT_RANK = itemgetter(0, 1)


def _par_tuple(a: MapTuple, b: MapTuple, pbe: bool) -> MapTuple:
    """``a`` beside ``b``: the parallel combination of two tuples."""
    a_h = a.height
    b_h = b.height
    a_lv = a.levels
    b_lv = b.levels
    # Inside a parallel stack every potential point rides on the
    # stack's shared bottom node: all of them are "tail" points
    # (p_tail == p_dis, par_b True).
    p_dis = (a.p_dis + b.p_dis) if pbe else 0
    return MapTuple(a.width + b.width, b_h if b_h > a_h else a_h,
                    a.wcost + b.wcost, a.trans + b.trans, a.disch + b.disch,
                    b_lv if b_lv > a_lv else a_lv, p_dis, True,
                    a.has_pi or b.has_pi, p_tail=p_dis, ends_par=True,
                    op="par", left=a, right=b)


def _ser_tuple(top: MapTuple, bottom: MapTuple, pbe: bool,
               discharge: float) -> MapTuple:
    """``top`` stacked on ``bottom``: the series combination."""
    if pbe:
        if top.par_b:
            # The new junction is the never-grounded bottom node of the
            # top's trailing parallel stack: discharge it and the
            # stack's internal (tail) points now.  The top's spine
            # junctions keep their own classification.
            committed = top.p_tail + 1
            p_dis = (top.p_dis - top.p_tail) + bottom.p_dis
        else:
            # Series-ending top: the junction joins the combined spine
            # as a new potential point; nothing commits.
            committed = 0
            p_dis = top.p_dis + 1 + bottom.p_dis
        p_tail = bottom.p_tail
        par_b = bottom.par_b
    else:
        committed = 0
        p_dis = 0
        p_tail = 0
        par_b = False
    t_w = top.width
    b_w = bottom.width
    t_lv = top.levels
    b_lv = bottom.levels
    return MapTuple(t_w if t_w > b_w else b_w, top.height + bottom.height,
                    top.wcost + bottom.wcost + committed * discharge,
                    top.trans + bottom.trans + committed,
                    top.disch + bottom.disch + committed,
                    t_lv if t_lv > b_lv else b_lv, p_dis, par_b,
                    top.has_pi or bottom.has_pi, p_tail=p_tail,
                    ends_par=bottom.ends_par, op="ser", left=top,
                    right=bottom)


def _par_buckets(view_b, pbe, stride, w_max):
    """``view_b`` as parallel-operand records per remaining width budget.

    A record is ``(b, width, width * stride, height, wcost, levels,
    p_dis)``; bucket ``budget`` holds, in view order, the operands
    whose width fits it.
    """
    recs = [(b, b.width, b.width * stride, b.height, b.wcost, b.levels,
             b.p_dis if pbe else 0) for b in view_b]
    return [[r for r in recs if r[1] <= budget] for budget in range(w_max)]


def _ser_terms(t, pbe, discharge):
    """What ``t`` brings to either side of a series stack.

    ``(p_dis, p_tail, par_b)`` as the bottom, then ``(p_dis, committed
    discharge cost)`` as the top — ``_ser_tuple``'s arithmetic.
    """
    if not pbe:
        return 0, 0, False, 0, 0 * discharge
    if t.par_b:
        return (t.p_dis, t.p_tail, True, t.p_dis - t.p_tail,
                (t.p_tail + 1) * discharge)
    return t.p_dis, t.p_tail, False, t.p_dis + 1, 0 * discharge


def _ser_buckets(view_b, pbe, discharge, h_max):
    """``view_b`` as series-operand records per remaining height budget.

    A record is ``(b, width, height, wcost, levels, *_ser_terms(b),
    ends_par)``; bucket ``budget`` holds, in view order, the operands
    whose height fits it.
    """
    recs = [(b, b.width, b.height, b.wcost, b.levels,
             *_ser_terms(b, pbe, discharge), b.ends_par) for b in view_b]
    return [[r for r in recs if r[2] <= budget] for budget in range(h_max)]


class ReferenceKernel:
    """The scalar oracle kernel.

    ``combine`` is deliberately written flat: configuration, cost
    prices, and per-call slot state are bound to locals once per node,
    the fanin view is pre-filtered per ``{W,H}`` budget so the inner
    loop touches only feasible pairs, and a candidate's scalar metrics
    are priced and bound-checked against the slot incumbent *before*
    any MapTuple is allocated.  Survivors are allocated lazily: a
    provenance back-pointer (op/left/right) instead of a built
    structure tree.

    Single-best tables (the paper's mode) run a slot-indexed loop: a
    slot is the integer ``width * (h_max + 1) + height``, the incumbent
    key, ``p_dis`` and operand pair of every slot live in flat per-call
    lists, and a :class:`MapTuple` is built only for each slot's final
    winner — from the same operands with the same arithmetic, so it is
    the tuple an eager loop would have kept.  Pareto tables use the same
    slot ids; each slot's front is a per-call list of flat records
    ``(key, p_dis, p_tail, par_b, top, bottom)``, dominance and eviction
    compare record fields, and a :class:`MapTuple` is built only for a
    record still in a front when the call ends (entries of a pre-seeded
    table keep their own tuples).  With the base ``tuple_key_metrics``
    (key is ``wcost``) the metric call is skipped altogether.

    Bit-identity with the eager seed kernel is load-bearing and rests
    on three invariants: (1) feasible pairs are visited in exactly the
    original view order (the pre-filtered lists preserve relative
    order), (2) the keep/evict decisions are literal transcriptions of
    :meth:`TupleTable.insert`, and (3) a slot enters the table when its
    first candidate arrives, so slot insertion order — which the tree
    cache serializes — is unchanged.
    """

    name = "reference"
    active = "reference"

    def __init__(self):
        self._engine = None
        self._plain_key = False

    def build(self, engine) -> None:
        self._engine = engine
        metric = engine._metric_key
        self._plain_key = (getattr(metric, "__func__", None)
                           is CostModel.tuple_key_metrics)
        # The series stacking rule in force: bulk-CMOS "adverse", the
        # a-on-top "naive", both orders ("exhaustive"), or the paper's.
        config = engine.config
        pbe = config.pbe_aware
        ordering = config.ordering
        self._adverse = (ordering == "adverse"
                         or (not pbe and ordering != "naive"))
        self._naive = not self._adverse and (not pbe or ordering == "naive")
        self._exhaustive = (not self._adverse and not self._naive
                            and ordering == "exhaustive")

    def finalize(self) -> None:
        pass

    def stats(self) -> dict:
        return {"active": self.active}

    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
        if self._engine.config.pareto:
            self._combine_pareto(table, is_or, view_a, view_b)
        else:
            self._combine_single(table, is_or, view_a, view_b)

    def _combine_single(self, table, is_or, view_a, view_b) -> None:
        engine = self._engine
        config = engine.config
        w_max = config.w_max
        h_max = config.h_max
        pbe = config.pbe_aware
        adverse = self._adverse
        naive = self._naive
        exhaustive = self._exhaustive
        metric = engine._metric_key
        plain = self._plain_key
        key_fn = table.key_fn
        discharge = engine.model.discharge_cost()
        stride = h_max + 1
        size = (w_max + 1) * stride
        # Incumbent state per slot id; a slot's operands stay None until
        # a candidate of this call wins it.
        inc_key = [None] * size
        inc_pd = [0] * size
        inc_top = [None] * size
        inc_bot = [None] * size
        arrivals = []
        slots = table.raw_slots()
        seeded = []
        for (width, height), slot in slots.items():
            if 0 < width <= w_max and 0 < height <= h_max:
                sid = width * stride + height
                inc_key[sid], incumbent = slot[0]
                inc_pd[sid] = incumbent.p_dis
                seeded.append(sid)
        created = 0
        replaced = 0
        if is_or:
            def make(a, b):
                return _par_tuple(a, b, pbe)

            # Parallel composition: W adds, so b must fit the remaining
            # width budget (heights are both within h_max already).
            by_budget = _par_buckets(view_b, pbe, stride, w_max)
            for a in view_a:
                a_w = a.width
                budget = w_max - a_w
                if budget < 1:
                    continue
                bucket = by_budget[budget]
                created += len(bucket)
                base = a_w * stride
                a_h = a.height
                a_wc = a.wcost
                a_lv = a.levels
                a_pd = a.p_dis if pbe else 0
                for b, _, b_ws, b_h, b_wc, b_lv, b_pd in bucket:
                    sid = base + b_ws + (b_h if b_h > a_h else a_h)
                    wcost = a_wc + b_wc
                    if plain:
                        key = wcost
                    elif metric is not None:
                        key = metric(wcost, b_lv if b_lv > a_lv else a_lv)
                    else:
                        key = key_fn(make(a, b))
                    p_dis = a_pd + b_pd
                    inc = inc_key[sid]
                    if inc is None:
                        arrivals.append(sid)
                    elif key < inc or (key == inc and p_dis < inc_pd[sid]):
                        replaced += 1
                    else:
                        continue
                    inc_key[sid] = key
                    inc_pd[sid] = p_dis
                    inc_top[sid] = a
                    inc_bot[sid] = b
        else:
            def make(top, bottom):
                return _ser_tuple(top, bottom, pbe, discharge)

            # Series composition: H adds, so b must fit the remaining
            # height budget (widths are both within w_max already).
            by_budget = _ser_buckets(view_b, pbe, discharge, h_max)
            pair_cands = 2 if exhaustive else 1
            for a in view_a:
                a_h = a.height
                budget = h_max - a_h
                if budget < 1:
                    continue
                bucket = by_budget[budget]
                created += pair_cands * len(bucket)
                a_w = a.width
                a_wc = a.wcost
                a_lv = a.levels
                a_pd, _, a_pb, a_tpd, a_cc = _ser_terms(a, pbe, discharge)
                a_ep = a.ends_par
                for (b, b_w, b_h, b_wc, b_lv, b_pd, _, b_pb, b_tpd, b_cc,
                     b_ep) in bucket:
                    sid = (b_w if b_w > a_w else a_w) * stride + a_h + b_h
                    # Stacking order: the configured ordering rule picks
                    # which operand(s) go on top.
                    if exhaustive:
                        orders = _BOTH_ORDERS
                    elif adverse:
                        # Bulk-CMOS habit (Figure 2(a)): the parallel
                        # stack rises toward the dynamic node.
                        orders = (_B_ON_TOP if b_ep and not a_ep
                                  else _A_ON_TOP)
                    elif naive:
                        orders = _A_ON_TOP
                    # The paper's rule: a parallel-stack-bearing operand
                    # sinks to the bottom (its discharge points may be
                    # protected by ground); with both or neither, the
                    # operand with more potential discharge points sinks.
                    elif a_pb != b_pb:
                        orders = _B_ON_TOP if a_pb else _A_ON_TOP
                    elif a_pd >= b_pd:
                        orders = _B_ON_TOP
                    else:
                        orders = _A_ON_TOP
                    wsum = a_wc + b_wc
                    for b_on_top in orders:
                        if b_on_top:
                            p_dis = b_tpd + a_pd
                            wcost = wsum + b_cc
                        else:
                            p_dis = a_tpd + b_pd
                            wcost = wsum + a_cc
                        if plain:
                            key = wcost
                        elif metric is not None:
                            key = metric(wcost,
                                         b_lv if b_lv > a_lv else a_lv)
                        else:
                            key = key_fn(make(b, a) if b_on_top
                                         else make(a, b))
                        inc = inc_key[sid]
                        if inc is None:
                            arrivals.append(sid)
                        elif key < inc or (key == inc
                                           and p_dis < inc_pd[sid]):
                            replaced += 1
                        else:
                            continue
                        inc_key[sid] = key
                        inc_pd[sid] = p_dis
                        if b_on_top:
                            inc_top[sid] = b
                            inc_bot[sid] = a
                        else:
                            inc_top[sid] = a
                            inc_bot[sid] = b
        # Only now does any tuple exist: one per slot won in this call.
        for sid in seeded:
            top = inc_top[sid]
            if top is not None:
                slots[divmod(sid, stride)][0] = (
                    inc_key[sid], make(top, inc_bot[sid]))
        for sid in arrivals:
            slots[divmod(sid, stride)] = [
                (inc_key[sid], make(inc_top[sid], inc_bot[sid]))]
        pruned = created - len(arrivals) - replaced
        stats = engine.stats
        stats.tuples_created += created
        stats.tuples_pruned += pruned
        if metric is not None:
            stats.bound_skips += pruned

    def _combine_pareto(self, table, is_or, view_a, view_b) -> None:
        engine = self._engine
        config = engine.config
        w_max = config.w_max
        h_max = config.h_max
        pbe = config.pbe_aware
        adverse = self._adverse
        naive = self._naive
        exhaustive = self._exhaustive
        metric = engine._metric_key
        plain = self._plain_key
        key_fn = table.key_fn
        discharge = engine.model.discharge_cost()
        max_front = table.max_front
        stride = h_max + 1
        # Each slot's front as flat records (key, p_dis, p_tail, par_b,
        # top, bottom): a candidate's operands, or (tuple, None) for a
        # pre-seeded entry or a tuple built to price an opaque key.
        fronts = [None] * ((w_max + 1) * stride)
        arrivals = []
        slots = table.raw_slots()
        seeded = []
        for (width, height), slot in slots.items():
            if 0 < width <= w_max and 0 < height <= h_max:
                sid = width * stride + height
                fronts[sid] = [(key, t.p_dis, t.p_tail, t.par_b, t, None)
                               for key, t in slot]
                seeded.append(sid)
        created = 0
        pruned = 0
        if is_or:
            def make(a, b):
                return _par_tuple(a, b, pbe)

            # Parallel composition.  The candidate has par_b True and
            # p_tail == p_dis, which simplifies both dominance
            # directions of TupleTable.insert.
            by_budget = _par_buckets(view_b, pbe, stride, w_max)
            for a in view_a:
                a_w = a.width
                budget = w_max - a_w
                if budget < 1:
                    continue
                bucket = by_budget[budget]
                created += len(bucket)
                base = a_w * stride
                a_h = a.height
                a_wc = a.wcost
                a_lv = a.levels
                a_pd = a.p_dis if pbe else 0
                for b, _, b_ws, b_h, b_wc, b_lv, b_pd in bucket:
                    sid = base + b_ws + (b_h if b_h > a_h else a_h)
                    wcost = a_wc + b_wc
                    top = a
                    bottom = b
                    if plain:
                        key = wcost
                    elif metric is not None:
                        key = metric(wcost, b_lv if b_lv > a_lv else a_lv)
                    else:
                        top = make(a, b)
                        bottom = None
                        key = key_fn(top)
                    p_dis = a_pd + b_pd
                    front = fronts[sid]
                    if front is None:
                        fronts[sid] = [(key, p_dis, p_dis, True, top, bottom)]
                        arrivals.append(sid)
                        continue
                    # One pass makes both of insert()'s decisions: an
                    # entry dominating the candidate rejects it (nothing
                    # is evicted then); otherwise the entries it
                    # dominates are dropped before it is appended.
                    evict = False
                    for k, pd, pt, pb, _, _ in front:
                        if k <= key and pd <= p_dis and pt <= p_dis:
                            pruned += 1
                            break
                        if (pb and key <= k and p_dis <= pd
                                and p_dis <= pt):
                            evict = True
                    else:
                        if evict:
                            front[:] = [r for r in front
                                        if not (r[3] and key <= r[0]
                                                and p_dis <= r[1]
                                                and p_dis <= r[2])]
                        front.append((key, p_dis, p_dis, True, top, bottom))
                        if len(front) > max_front:
                            front.sort(key=_FRONT_RANK)
                            del front[max_front:]
        else:
            def make(top, bottom):
                return _ser_tuple(top, bottom, pbe, discharge)

            # Series composition: the ordering rules and stacking terms
            # are the single-best loop's, the front handling the OR
            # branch's.
            by_budget = _ser_buckets(view_b, pbe, discharge, h_max)
            pair_cands = 2 if exhaustive else 1
            for a in view_a:
                a_h = a.height
                budget = h_max - a_h
                if budget < 1:
                    continue
                bucket = by_budget[budget]
                created += pair_cands * len(bucket)
                a_w = a.width
                a_wc = a.wcost
                a_lv = a.levels
                a_pd, a_pt, a_pb, a_tpd, a_cc = _ser_terms(a, pbe, discharge)
                a_ep = a.ends_par
                for (b, b_w, b_h, b_wc, b_lv, b_pd, b_pt, b_pb, b_tpd, b_cc,
                     b_ep) in bucket:
                    sid = (b_w if b_w > a_w else a_w) * stride + a_h + b_h
                    if exhaustive:
                        orders = _BOTH_ORDERS
                    elif adverse:
                        orders = (_B_ON_TOP if b_ep and not a_ep
                                  else _A_ON_TOP)
                    elif naive:
                        orders = _A_ON_TOP
                    elif a_pb != b_pb:
                        orders = _B_ON_TOP if a_pb else _A_ON_TOP
                    elif a_pd >= b_pd:
                        orders = _B_ON_TOP
                    else:
                        orders = _A_ON_TOP
                    wsum = a_wc + b_wc
                    for b_on_top in orders:
                        if b_on_top:
                            top = b
                            bottom = a
                            p_dis = b_tpd + a_pd
                            p_tail = a_pt
                            par_b = a_pb
                            wcost = wsum + b_cc
                        else:
                            top = a
                            bottom = b
                            p_dis = a_tpd + b_pd
                            p_tail = b_pt
                            par_b = b_pb
                            wcost = wsum + a_cc
                        if plain:
                            key = wcost
                        elif metric is not None:
                            key = metric(wcost,
                                         b_lv if b_lv > a_lv else a_lv)
                        else:
                            top = make(top, bottom)
                            bottom = None
                            key = key_fn(top)
                        front = fronts[sid]
                        if front is None:
                            fronts[sid] = [(key, p_dis, p_tail, par_b, top,
                                            bottom)]
                            arrivals.append(sid)
                            continue
                        evict = False
                        for k, pd, pt, pb, _, _ in front:
                            if (k <= key and pd <= p_dis and pt <= p_tail
                                    and (par_b or not pb)):
                                pruned += 1
                                break
                            if (key <= k and p_dis <= pd and p_tail <= pt
                                    and (pb or not par_b)):
                                evict = True
                        else:
                            if evict:
                                front[:] = [r for r in front
                                            if not (key <= r[0]
                                                    and p_dis <= r[1]
                                                    and p_tail <= r[2]
                                                    and (r[3] or not par_b))]
                            front.append((key, p_dis, p_tail, par_b, top,
                                          bottom))
                            if len(front) > max_front:
                                front.sort(key=_FRONT_RANK)
                                del front[max_front:]
        # Only now are tuples built: one per record still in a front.
        for sid in seeded:
            slots[divmod(sid, stride)][:] = [
                (r[0], r[4] if r[5] is None else make(r[4], r[5]))
                for r in fronts[sid]]
        for sid in arrivals:
            slots[divmod(sid, stride)] = [
                (r[0], r[4] if r[5] is None else make(r[4], r[5]))
                for r in fronts[sid]]
        stats = engine.stats
        stats.tuples_created += created
        stats.tuples_pruned += pruned
        if metric is not None:
            stats.bound_skips += pruned


def auto_series_cutoff(config, threshold: int) -> float:
    """Smallest series grid the ``auto`` kernel sends to soa in a run.

    ``threshold`` (``MapperConfig.auto_threshold``) for a single-best
    run; a Pareto run sends none (infinity).
    """
    return float("inf") if config.pareto else threshold


class AutoKernel:
    """Hybrid dispatch: soa for large series grids, reference otherwise.

    A series (AND) combine call goes to the soa kernel when its
    candidate grid ``len(view_a) * len(view_b)`` is at least
    ``MapperConfig.auto_threshold`` pairs (via ``resolve_kernel``);
    parallel (OR) calls and smaller grids stay on the reference kernel,
    which the measured crossover (:data:`AUTO_THRESHOLD`) shows never
    losing to soa on OR calls of any size that mattered.  A Pareto run
    keeps every call on the reference kernel (soa would hand a PBE
    front to that same scalar loop anyway).  ``build`` binds the table
    mode from the engine's config.

    Sound as a per-call choice because both kernels produce identical
    tables and identical stats counters — the routing decision is pure
    execution strategy.  Every
    per-call decision is tallied into ``stats.auto_routed_soa`` /
    ``stats.auto_routed_reference`` so reports can show how a hybrid
    run actually split its work.
    """

    name = "auto"
    active = "hybrid"

    def __init__(self, reference, soa, threshold=None):
        self._reference = reference
        self._soa = soa
        self._threshold = AUTO_THRESHOLD if threshold is None else threshold
        # The series cutoff in force; build() lifts it out of reach for
        # Pareto runs.
        self._cutoff = self._threshold
        # Replaced by the engine's stats on build(); a throwaway default
        # keeps an unbuilt hybrid (unit tests, ad-hoc harnesses) usable.
        self._stats = MappingStats()

    def build(self, engine) -> None:
        self._stats = engine.stats
        self._cutoff = auto_series_cutoff(engine.config, self._threshold)
        self._reference.build(engine)
        self._soa.build(engine)

    def combine(self, table, is_or, view_a, view_b) -> None:
        if not is_or and len(view_a) * len(view_b) >= self._cutoff:
            self._stats.auto_routed_soa += 1
            self._soa.combine(table, is_or, view_a, view_b)
        else:
            self._stats.auto_routed_reference += 1
            self._reference.combine(table, is_or, view_a, view_b)

    def finalize(self) -> None:
        self._reference.finalize()
        self._soa.finalize()

    def stats(self) -> dict:
        routed = self._stats
        return {"active": self.active, "threshold": self._threshold,
                "routed_soa": routed.auto_routed_soa,
                "routed_reference": routed.auto_routed_reference,
                **{k: v for k, v in self._soa.stats().items()
                   if k != "active"}}


def _reference_factory(engine):
    return ReferenceKernel()


def _soa_factory(engine):
    """``kernel="soa"``: numpy is a hard requirement, the model soft.

    An explicit soa request without numpy must not be silently ignored;
    a non-vectorizable cost model degrades to the reference kernel with
    ``stats.kernel_fallbacks`` incremented (the tables are bit-identical
    either way, so the fallback is observable only in the counter).
    """
    if np is None:
        raise MappingError(
            "kernel='soa' requires numpy, which is not importable; "
            "install numpy or pick another registered kernel "
            f"(available_kernels(): {', '.join(available_kernels())})")
    if not metric_vectorizable(engine.model):
        # The model overrides tuple_key directly or its metric form is
        # not elementwise-exact on arrays: the soa kernel cannot match
        # the oracle, so the run degrades to the reference kernel.
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import make_soa_kernel

    return make_soa_kernel()


def _auto_factory(engine):
    """``kernel="auto"``: the hybrid when numpy and the model allow."""
    if np is None:
        return ReferenceKernel()
    if not metric_vectorizable(engine.model):
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import make_soa_kernel

    return AutoKernel(ReferenceKernel(), make_soa_kernel(),
                      threshold=engine.config.auto_threshold)


register_kernel("reference", _reference_factory)
register_kernel("soa", _soa_factory)
register_kernel("auto", _auto_factory)


def resolve_kernel(engine):
    """The kernel instance a configured engine runs, already built.

    Looks ``engine.config.kernel`` up in the registry, calls the
    factory with the engine, and binds the returned kernel via
    ``build``.  ``MapperConfig`` validates the spelling eagerly, so an
    unknown name here means the registry changed between config
    construction and the run — still a typed error, never a
    ``KeyError``.
    """
    choice = engine.config.kernel
    factory = _REGISTRY.get(choice)
    if factory is None:
        raise MappingError(
            f"unknown kernel {choice!r}; available kernels: "
            f"{', '.join(available_kernels())}")
    kernel = factory(engine)
    kernel.build(engine)
    return kernel
