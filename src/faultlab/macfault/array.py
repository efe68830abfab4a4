"""Systolic-array state: fault seeding, FSR, deactivation, faulty inference.

The array is weight-stationary: weight matrix entry (i, j) lives on PE
(i mod N_Row, j mod N_Col), so larger layers tile onto the grid and a
faulty PE corrupts every product it hosts. Deactivated PEs contribute
nothing (their weights are pruned to zero).

A fault map (``faults.FaultMap``) holds the faulty PEs as parallel
arrays ``rows, cols, stuck0, stuck1, carry`` in (row, col) order; the
FSR, deactivation, the map file and the faulty matmul all read these
arrays. Seeding draws every per-PE random value in bulk, indexed in
column-major PE order (column by column, rows ascending), so a given
seed keeps its map; the map is then reordered to row-major storage.

The FSR (fault status register) is the criticality of each PE of a map,
in the map's order. Deactivation finds the fewest PEs to disable such
that no critical-faulty PE stays active, the active-faulty rate is within
FR_max_non_crit, and no two active faulty PEs are 4-neighbour adjacent.
The adjacency part is a minimum vertex cover of a graph whose vertices
are map indices, solved exactly per connected component by branch and
bound (components beyond a size cap fall back to max-degree greedy).

The array owns the faulty matmul's arithmetic in each format, for
inference (``run_array``) and for fault-aware retraining alike: both see
one faulty array. Its error is the faulty accumulator minus the exact
matmul: per output column, the faulty-minus-exact products of every fault
site (a weight hosted by an active faulty PE), less the products of the
weights on deactivated PEs, which are pruned. Inference adds the error
onto the exact matmul; training adds it, in value units, onto its float
preactivation. Each layer keeps its sites in flat arrays sorted by
column, built once per factory.

int8 sites use a residue-class table, which is exact: let m - 1 be the
highest stuck bit among a layer's sites. A site's fault rewrites only
magnitude bits below m (``faults.stick_bits``, which
``apply_fault_to_products`` shares), so for p = a*w != 0 its error is
sign(p) * (((|p| mod 2^m) & ~stuck0 | stuck1) - |p| mod 2^m), and
|p| mod 2^m = ((|a| mod 2^m) * |w|) mod 2^m. The error therefore depends
on a only through sign(a) and |a| mod 2^m; a = 0 is a class of its own,
and a zero product becomes +stuck1. Per call, one operand per class gives
a (sites x classes) table of errors; the correction is a table lookup per
product, summed per column. There are at most 2^(m+1) + 1 classes, and
never more than the 256 int8 values. In worst mode the carry (sign of the
stuck-bit error, + on a tie) is folded into the table.

Sim-mode carry signs are random and drawn from the caller's rng exactly as
``apply_fault_to_products(products, stuck0, stuck1, carry, ...)`` draws
them, called once per signature with a carry fault on the (N, S) products
of its S sites: one ``rng.integers(0, 2, size=(N, S))`` per such
signature, in the order each signature first appears among the sorted
active faulty PEs that host a weight of the layer; a PE lists its sites
row tile by row tile. A drawn 1 adds the carry weight, a 0 subtracts it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..netcore.data import LabeledDataset
from ..netcore.inference import exact_int_matmul, model_input, quant_forward
from ..quantnum import bf16_round_array, int8_scale, quantize_int8
from .faults import (
    NON_CRITICAL_LSBS,
    PRODUCT_WIDTH,
    SIM,
    WORST,
    FaultMap,
    _check_width,
    apply_fault_to_products,
    stick_bits,
)

_EXACT_COVER_LIMIT = 36


@dataclass(frozen=True)
class ArrayConfig:
    n_row: int = 128
    n_col: int = 128
    fmt: str = "int8"

    def __post_init__(self):
        if self.n_row < 1 or self.n_col < 1:
            raise ValueError("array dimensions must be >= 1")
        if self.fmt not in PRODUCT_WIDTH:
            raise ValueError(f"unknown data format {self.fmt!r}")


@dataclass(frozen=True)
class SignatureMix:
    """Distribution the per-PE fault signatures are drawn from.

    Non-critical signatures stick a nonempty subset of the lowest
    ``lsb_bits`` product bits; critical ones include at least one bit
    above that window. ``carry_fraction`` of faults also corrupt the
    carry-in one bit above their highest stuck bit.
    """

    critical_fraction: float = 0.0
    lsb_bits: int = 2
    carry_fraction: float = 0.0
    stuck_one_bias: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise ValueError("critical_fraction must be in [0, 1]")
        if self.lsb_bits < 1:
            raise ValueError("lsb_bits must be >= 1")

def per_column_fault_count(fr_percent: float, n_row: int) -> int:
    """round(0.01 * FR * N_Row), halves rounded up."""
    return int(math.floor(0.01 * fr_percent * n_row + 0.5))


def _sample_signatures(rows, cols, mix: SignatureMix, rng, fmt: str) -> FaultMap:
    """Draw one fault signature per PE, with bulk rng draws.

    The draws are indexed in the order the PEs are given (column-major);
    the map is stored in (row, col) order.
    """
    n = len(rows)
    width = PRODUCT_WIDTH[fmt]
    lsb = min(mix.lsb_bits, width)
    critical = rng.random(n) < mix.critical_fraction
    counts = rng.integers(1, lsb + 1, size=n)
    bit_order = np.argsort(rng.random((n, lsb)), axis=1)
    high_bits = rng.integers(lsb, width, size=n) if lsb < width else np.zeros(n, int)
    extra_low = rng.random(n) < 0.5
    low_bits = rng.integers(0, lsb, size=n)
    stuck = rng.random((n, width)) < mix.stuck_one_bias
    carry = rng.random(n) < mix.carry_fraction

    # non-critical: the first counts[i] bits of a random order of the window;
    # critical: one bit above the window, plus one inside it half the time
    window = np.where(np.arange(lsb) < counts[:, None], 1 << bit_order, 0).sum(axis=1)
    above = (1 << high_bits) | np.where(extra_low, 1 << low_bits, 0)
    bits = np.where(critical & (lsb < width), above, window)
    ones = (stuck << np.arange(width)).sum(axis=1)
    order = np.lexsort((cols, rows))
    return FaultMap(rows=rows[order], cols=cols[order], stuck0=(bits & ~ones)[order],
                    stuck1=(bits & ones)[order], carry=carry[order])


def seed_fault_map(config: ArrayConfig, fr_percent: float, mix: SignatureMix,
                   seed: int) -> FaultMap:
    """Exactly round(0.01*FR*N_Row) faulty PEs per column at random rows."""
    if not 0.0 <= fr_percent <= 100.0:
        raise ValueError("fault rate must be a percentage in [0, 100]")
    k = per_column_fault_count(fr_percent, config.n_row)
    if k == 0:
        return FaultMap.from_entries(())
    rng = np.random.default_rng(seed)
    # the k smallest of iid uniforms per column = a uniform k-subset of rows
    scores = rng.random((config.n_col, config.n_row))
    picked = np.sort(np.argpartition(scores, k - 1, axis=1)[:, :k], axis=1)
    cols = np.repeat(np.arange(config.n_col), k)
    return _sample_signatures(picked.ravel(), cols, mix, rng, config.fmt)


@dataclass(frozen=True, eq=False)
class FaultStatusRegister:
    """The FSR: the criticality of each faulty PE, in the fault map's order.

    ``critical[i]`` belongs to PE i of the map it was built from; the FSR
    names no PE itself, so it is read together with that map.
    """

    critical: np.ndarray
    fr_max_non_crit: float

    def __post_init__(self):
        if not 0.0 <= self.fr_max_non_crit <= 1.0:
            raise ValueError("FR_max_non_crit must be in [0, 1]")


def build_fsr(fault_map: FaultMap, fmt: str,
              fr_max_non_crit: float) -> FaultStatusRegister:
    """Each PE is critical unless all its cone bits sit in the tolerated LSBs.

    int8 tolerates bits {0,1}, bfloat16 the 4 mantissa LSBs; the carry
    term of a tolerated fault perturbs one bit above the window, which
    stays within the next bit's bound, so carry does not make a fault
    critical on its own.
    """
    return FaultStatusRegister(critical=fault_map.max_bit >= NON_CRITICAL_LSBS[fmt],
                               fr_max_non_crit=fr_max_non_crit)


@dataclass
class ArrayState:
    config: ArrayConfig
    faults: FaultMap
    active: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.active is None:
            self.active = np.ones((self.config.n_row, self.config.n_col), dtype=bool)
        f, cfg = self.faults, self.config
        outside = np.flatnonzero((f.rows < 0) | (f.rows >= cfg.n_row)
                                 | (f.cols < 0) | (f.cols >= cfg.n_col))
        if len(outside):
            raise ValueError(f"fault site {list(f)[outside[0]]} outside the array")
        if len(f):
            _check_width(int(f.max_bit.max()), cfg.fmt)


class DeactivationInfeasible(RuntimeError):
    pass


def _components(adj):
    """Vertex sets of the components with an edge, each from its lowest vertex."""
    seen = set()
    for start in adj:
        if start in seen or not adj[start]:
            continue
        comp, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        yield comp


def _branch_vertex(adj):
    """The vertex with the most edges, the lowest on a tie; None if no edge is left.

    Vertices are indices into PEs in (row, col) order, so they sort as the
    PEs' (row, col) tuples do. This tie-break is why the covers are the ones
    a graph over (row, col) tuples gives.
    """
    live = [v for v in adj if adj[v]]
    return min(live, key=lambda v: (-len(adj[v]), v)) if live else None


def _greedy_cover(adj):
    """Take ``_branch_vertex``'s pick until no edge is left.

    A heap keyed on (-degree, vertex) yields that pick. A degree only falls,
    so an entry whose degree is no longer the vertex's is stale and skipped,
    and the vertex's current entry is in the heap.
    """
    adj = {v: set(ns) for v, ns in adj.items()}
    heap = [(-len(ns), v) for v, ns in adj.items() if ns]
    heapq.heapify(heap)
    cover = set()
    while heap:
        degree, v = heapq.heappop(heap)
        if -degree != len(adj[v]):
            continue
        cover.add(v)
        for u in adj[v]:
            adj[u].discard(v)
            if adj[u]:
                heapq.heappush(heap, (-len(adj[u]), u))
        adj[v] = set()
    return cover


def _exact_cover(adj):
    """Minimum vertex cover by branch and bound (small components only)."""
    best = [set(adj)]

    def search(adj, cover):
        if len(cover) >= len(best[0]):
            return
        v = _branch_vertex(adj)
        if v is None:
            best[0] = set(cover)
            return
        neighbors = set(adj[v])
        # branch 1: v joins the cover
        sub = {u: ns - {v} for u, ns in adj.items() if u != v}
        search(sub, cover | {v})
        # branch 2: all of v's neighbors join the cover
        if len(cover) + len(neighbors) < len(best[0]):
            drop = neighbors | {v}
            sub = {u: ns - drop for u, ns in adj.items() if u not in drop}
            search(sub, cover | neighbors)

    search({v: set(ns) for v, ns in adj.items()}, set())
    return best[0]


def min_adjacency_cover(rows, cols, n_col) -> set:
    """Indices of PEs whose removal leaves no two of the PEs 4-adjacent.

    ``rows`` and ``cols`` hold the PEs in (row, col) order, on an array of
    ``n_col`` columns. Each connected component of at most
    ``_EXACT_COVER_LIMIT`` PEs gets a minimum cover; a larger one gets the
    greedy max-degree cover, which may not be the fewest PEs.
    """
    # one key per PE, with a gap column so no right neighbour wraps a row
    stride = n_col + 1
    index = {k: i for i, k in enumerate((rows * stride + cols).tolist())}
    adj = {i: {index[n] for n in (k - stride, k - 1, k + 1, k + stride) if n in index}
           for k, i in index.items()}
    cover = set()
    for comp in _components(adj):
        comp_adj = {v: adj[v] for v in comp}
        if len(comp) <= _EXACT_COVER_LIMIT:
            cover |= _exact_cover(comp_adj)
        else:
            cover |= _greedy_cover(comp_adj)
    return cover


def deactivate(state: ArrayState, fsr: FaultStatusRegister) -> np.ndarray:
    """Updated active mask meeting the deactivation protocol's constraints.

    ``fsr`` is the FSR of ``state.faults``. Returns a new mask; the input
    state is not modified. Raises DeactivationInfeasible when the
    constraints would disable every PE.
    """
    faults = state.faults
    active = state.active.copy()
    active[faults.rows[fsr.critical], faults.cols[fsr.critical]] = False

    live = np.flatnonzero(active[faults.rows, faults.cols])
    cover = live[list(min_adjacency_cover(faults.rows[live], faults.cols[live],
                                          state.config.n_col))]
    active[faults.rows[cover], faults.cols[cover]] = False

    # the rate cap disables the first live faulty PEs in map order
    live = np.flatnonzero(active[faults.rows, faults.cols])
    n_active, n_faulty, k = int(active.sum()), len(live), 0
    while k < n_active and (n_faulty - k) / (n_active - k) > fsr.fr_max_non_crit:
        k += 1
    active[faults.rows[live[:k]], faults.cols[live[:k]]] = False
    if k == n_active:
        raise DeactivationInfeasible(
            "constraints disable every PE "
            f"(fr_max_non_crit={fsr.fr_max_non_crit}, all PEs faulty)"
        )
    return active


# --- faulty inference -------------------------------------------------------

# products gathered per site block of the int8 correction (256 kB of int32)
_BLOCK_PRODUCTS = 1 << 16


def _column_runs(sorted_cols):
    """Start offsets and values of the runs of equal entries."""
    starts = np.flatnonzero(np.diff(sorted_cols, prepend=-1))
    return starts, sorted_cols[starts]


@dataclass(frozen=True)
class _Group:
    """The sites of one fault signature in a layer, in PE order."""

    fault: tuple  # the signature (stuck0, stuck1, carry)
    carry: int  # 2^(max_bit+1) if the signature has a carry fault, else 0
    ii: np.ndarray
    jj: np.ndarray
    order: np.ndarray  # stable sort of the sites by column
    starts: np.ndarray  # column runs of the sorted sites
    cols: np.ndarray


@dataclass(frozen=True)
class _LayerPlan:
    """Where one weight matrix meets the array: pruning and fault sites."""

    disabled: np.ndarray  # flat indices of weights on deactivated PEs
    ii: np.ndarray  # every fault site, sorted by column
    jj: np.ndarray
    and_mask: np.ndarray  # clears the stuck-at-0 bits
    or_mask: np.ndarray  # sets the stuck-at-1 bits
    carry: np.ndarray  # 2^(max_bit+1) where the site has a carry fault, else 0
    starts: np.ndarray  # column runs of the sites
    cols: np.ndarray
    lut: np.ndarray  # residue class of each int8 operand, indexed by its byte
    reps: np.ndarray  # one operand value per residue class
    offsets: np.ndarray  # start of each site's row in the flat delta table
    carry_bias: np.ndarray  # per column, the carry weights of its sites
    groups: tuple  # one _Group per signature, in order of first appearance


def _layer_plan(shape, state: ArrayState) -> _LayerPlan:
    """Pruning mask and fault sites of one weight matrix on the array."""
    fan_in, fan_out = shape
    n_row, n_col = state.config.n_row, state.config.n_col
    tiles_r = -(-fan_in // n_row)
    tiles_c = -(-fan_out // n_col)
    mask = np.tile(state.active, (tiles_r, tiles_c))[:fan_in, :fan_out]
    faults = state.faults
    live = np.flatnonzero(state.active[faults.rows, faults.cols])
    # each active faulty PE's sites, row tile major, in the map's order
    rows, cols = np.broadcast_arrays(
        faults.rows[live, None, None] + n_row * np.arange(tiles_r)[:, None],
        faults.cols[live, None, None] + n_col * np.arange(tiles_c),
    )
    hosted = (rows < fan_in) & (cols < fan_out)
    pe_of = live[np.nonzero(hosted)[0]]  # the map index of each site
    ii, jj = rows[hosted], cols[hosted]
    max_bit = faults.max_bit
    carry = np.where(faults.carry, 1 << (max_bit + 1), 0)

    groups = []
    if len(pe_of):
        # group order: first appearance among the PEs hosting this layer
        # stuck bits lie below 16, the widest product (FaultMap checks it)
        signature = faults.stuck0 << 17 | faults.stuck1 << 1 | faults.carry
        _, first, inverse = np.unique(signature[pe_of], return_index=True,
                                      return_inverse=True)
        gid = np.argsort(np.argsort(first))[inverse.ravel()]
        by_gid = np.argsort(gid, kind="stable")
        for sel in np.split(by_gid, np.cumsum(np.bincount(gid))[:-1]):
            order = np.argsort(jj[sel], kind="stable")
            starts, gcols = _column_runs(jj[sel][order])
            i = pe_of[sel[0]]
            fault = (int(faults.stuck0[i]), int(faults.stuck1[i]), bool(faults.carry[i]))
            groups.append(_Group(fault, int(carry[i]), ii[sel], jj[sel], order, starts,
                                 gcols))

    by_col = np.argsort(jj, kind="stable")
    site_pe = pe_of[by_col]
    starts, run_cols = _column_runs(jj[by_col])
    # residue classes of the operand: its sign, and |a| mod 2^m below the
    # highest stuck bit m-1 of the layer; m >= 8 leaves every int8 value apart
    m = int(max_bit[pe_of].max()) + 1 if len(pe_of) else 0
    values = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.int64)
    key = np.sign(values) * (1 + np.abs(values) % (1 << m))
    _, first, lut = np.unique(key, return_index=True, return_inverse=True)
    n_flat = len(ii) * len(first)
    offsets = np.arange(0, n_flat, len(first),
                        dtype=np.int32 if n_flat < 2**31 else np.int64)
    return _LayerPlan(
        disabled=np.flatnonzero(~mask), ii=ii[by_col], jj=jj[by_col],
        and_mask=~faults.stuck0[site_pe], or_mask=faults.stuck1[site_pe],
        carry=carry[site_pe], starts=starts, cols=run_cols,
        lut=lut.ravel().astype(np.uint8), reps=values[first], offsets=offsets,
        carry_bias=np.bincount(jj, weights=carry[pe_of],
                               minlength=fan_out).astype(np.int64),
        groups=tuple(groups),
    )


def _delta_table(plan: _LayerPlan, w_sites, mode: str):
    """delta[s, c]: the error of site s on any operand of residue class c.

    Flattened row-major; worst mode folds in the carry, whose sign is the
    sign of the stuck-bit error (+ on a tie).
    """
    n_cls = len(plan.reps)
    table = np.empty((len(w_sites), n_cls), dtype=np.int32)
    step = max(1, _BLOCK_PRODUCTS // n_cls)
    for b0 in range(0, len(w_sites), step):
        blk = slice(b0, b0 + step)
        p = w_sites[blk, None] * plan.reps
        delta = stick_bits(p, plan.and_mask[blk, None], plan.or_mask[blk, None]) - p
        if mode == WORST:
            carry = plan.carry[blk, None]
            delta += np.where(delta < 0, -carry, carry)
        table[blk] = delta
    return table.ravel()


def _int8_correction(plan: _LayerPlan, aq, w_sites, mode: str, rng):
    """Sum of (faulty - exact) products per output column, shape (fan_out, N).

    ``w_sites`` holds the int8 weight of every site of ``plan`` in its order,
    in any integer dtype: the delta table multiplies it in int64.
    """
    n = aq.shape[0]
    corr = np.zeros((len(plan.carry_bias), n), dtype=np.int64)
    if not len(plan.ii):
        return corr
    table = _delta_table(plan, w_sites, mode)
    classes = plan.lut[np.asarray(aq, dtype=np.int8).view(np.uint8).T]
    step = max(1, _BLOCK_PRODUCTS // max(n, 1))
    for b0 in range(0, len(plan.ii), step):
        blk = slice(b0, b0 + step)
        products = table.take(classes[plan.ii[blk]] + plan.offsets[blk, None])
        k0 = np.searchsorted(plan.starts, b0, side="right") - 1
        k1 = np.searchsorted(plan.starts, b0 + step)
        local = np.maximum(plan.starts[k0:k1] - b0, 0)
        corr[plan.cols[k0:k1]] += np.add.reduceat(products, local, axis=0,
                                                  dtype=np.int64)
    if mode == SIM and plan.carry_bias.any():
        if rng is None:
            raise ValueError("simulation mode needs an rng for the carry sign")
        # a carry of weight c adds c * (2 * up - 1); draws as apply_fault_to_products
        for g in plan.groups:
            if g.carry:
                ups = rng.integers(0, 2, size=(n, len(g.ii)))[:, g.order]
                ups = np.add.reduceat(ups, g.starts, axis=1)
                corr[g.cols] += 2 * g.carry * ups.T
        corr -= plan.carry_bias[:, None]
    return corr


def faulty_matmul_factory(state: ArrayState, weight_shapes, mode: str, rng,
                          error_only: bool = False):
    """Matmul callback for quant_forward that routes through faulty PEs.

    The array owns each format's arithmetic. int8 has one kernel: the
    array's accumulator minus the exact ``aq @ wq``, from the int8
    activations, the int8 weights at the fault sites and those on
    deactivated PEs. The callback ``matmul(idx, aq, wq)`` takes the format's
    operands (int8 raw or bfloat16-rounded floats) and returns the faulty
    accumulator; int8 adds the kernel to the exact matmul.

    With ``error_only`` the callback ``error(idx, a, w)`` takes float
    activations ``a`` and float weights ``w`` and returns the array's error
    in value units, which fault-aware training adds to ``a @ w``. int8
    quantizes ``a``, and only the site and deactivated weights at
    ``int8_scale(w)``, and scales the kernel by both scales; bfloat16
    rounds both operands and returns ``matmul - ab @ wb``.
    """
    fmt = state.config.fmt
    if mode not in (SIM, WORST):
        raise ValueError(f"mode must be '{SIM}' or '{WORST}'")
    plans = [_layer_plan(shape, state) for shape in weight_shapes]
    # the int8 weights on deactivated PEs, refilled on each call
    w_offs = [np.zeros(shape, dtype=np.int8) for shape in weight_shapes]

    def int8_error(idx, aq, w_sites, w_off):
        """The array's accumulator minus the exact ``aq @ wq``, as a new
        float64 array, from the int8 weights at the sites and on deactivated
        PEs. Every term is an integer below 2^53, so every sum is exact."""
        plan = plans[idx]
        err = _int8_correction(plan, aq, w_sites, mode, rng).T.astype(np.float64)
        if len(plan.disabled):
            np.put(w_offs[idx], plan.disabled, w_off)
            err -= exact_int_matmul(aq, w_offs[idx])
        return err

    def matmul(idx, aq, wq):
        plan = plans[idx]
        if fmt == "int8":
            # the error first, so that its temporaries are freed before the exact matmul
            acc = int8_error(idx, aq, wq[plan.ii, plan.jj], wq.take(plan.disabled))
            acc += exact_int_matmul(aq, wq)
            return acc
        w_on = wq.copy()
        w_on.flat[plan.disabled] = 0
        acc = aq @ w_on
        for g in plan.groups:
            products = aq[:, g.ii] * wq[g.ii, g.jj]
            faulty = apply_fault_to_products(products, *g.fault, fmt, mode, rng)
            contrib = (faulty - products).astype(np.float64)
            acc[:, g.cols] += np.add.reduceat(contrib[:, g.order], g.starts, axis=1)
        return acc

    def error(idx, a, w):
        plan = plans[idx]
        if fmt == "int8":
            q, scale = quantize_int8(a), int8_scale(w)
            w_sites, w_off = (quantize_int8(v, scale).raw
                              for v in (w[plan.ii, plan.jj], w.take(plan.disabled)))
            return int8_error(idx, q.raw, w_sites, w_off) * (q.scale * scale)
        ab, wb = (bf16_round_array(v).astype(np.float64) for v in (a, w))
        return matmul(idx, ab, wb) - ab @ wb

    return error if error_only else matmul


def run_array(model, state: ArrayState, dataset: LabeledDataset, mode: str = "sim",
              seed: int = 0) -> float:
    """Top-1 accuracy with every multiply routed through its hosting PE."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    rng = np.random.default_rng(seed)
    matmul = faulty_matmul_factory(state, [w.shape for w in model.weights], mode, rng)
    logits = quant_forward(model, model_input(dataset.images), fmt=state.config.fmt,
                           matmul_fn=matmul)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
