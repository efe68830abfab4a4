"""Frozen per-signature faulty matmul and fault-aware training forward pass.

This is the original, straightforward implementation: every signature
group applies ``apply_fault_to_products`` to its gathered products and
scatters the difference into the output columns. It is kept verbatim as
the reference the site-table fast path must match bit for bit, including
the order in which sim-mode carry signs are drawn from the rng.
"""

from __future__ import annotations

import numpy as np

from faultlab.macfault.faults import apply_fault_to_products
from faultlab.netcore.inference import exact_int_matmul
from faultlab.netcore.train import train_sgd
from faultlab.quantnum import bf16_round_array, quantize_int8


def _layer_plan(shape, state):
    """Pruning mask and per-signature fault sites for one weight matrix."""
    fan_in, fan_out = shape
    n_row, n_col = state.config.n_row, state.config.n_col
    tiles_r = -(-fan_in // n_row)
    tiles_c = -(-fan_out // n_col)
    mask = np.tile(state.active, (tiles_r, tiles_c))[:fan_in, :fan_out]

    groups = {}
    signatures = {(r, c): (s0, s1, carry)
                  for r, c, s0, s1, carry in state.faults.entries()}
    for pe in sorted(signatures):
        if not state.active[pe]:
            continue
        r, c = pe
        rows = np.arange(r, fan_in, n_row)
        cols = np.arange(c, fan_out, n_col)
        if not len(rows) or not len(cols):
            continue
        fault = signatures[pe]
        ii, jj = np.meshgrid(rows, cols, indexing="ij")
        entry = groups.setdefault(fault, (fault, [], []))
        entry[1].append(ii.ravel())
        entry[2].append(jj.ravel())
    plans = []
    for fault, i_parts, j_parts in groups.values():
        plans.append((fault, np.concatenate(i_parts), np.concatenate(j_parts)))
    return mask, plans


def _scatter_columns(acc, cols, contrib):
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    sorted_contrib = contrib[:, order]
    starts = np.flatnonzero(np.r_[True, sorted_cols[1:] != sorted_cols[:-1]])
    sums = np.add.reduceat(sorted_contrib, starts, axis=1)
    acc[:, sorted_cols[starts]] += sums


def faulty_matmul_factory(state, weight_shapes, mode, rng):
    """Matmul callback for quant_forward that routes through faulty PEs."""
    fmt = state.config.fmt
    plans = {}
    for idx, shape in enumerate(weight_shapes):
        plans[idx] = _layer_plan(shape, state)

    def matmul(idx, aq, wq):
        mask, fault_plans = plans[idx]
        w_eff = np.where(mask, wq, 0)
        if fmt == "int8":
            acc = exact_int_matmul(aq, w_eff)
        else:
            acc = aq @ w_eff
        for fault, ii, jj in fault_plans:
            if fmt == "int8":
                products = aq[:, ii].astype(np.int64) * w_eff[ii, jj].astype(np.int64)
            else:
                products = aq[:, ii] * w_eff[ii, jj]
            faulty = apply_fault_to_products(products, *fault, fmt, mode, rng)
            _scatter_columns(acc, jj, (faulty - products).astype(np.float64))
        return acc

    return matmul


def fault_aware_train(model, state, train, epochs, lr, seed, batch_size=64,
                      mode="sim"):
    """Fault-aware SGD through the frozen matmul (faults assumed present)."""
    fmt = state.config.fmt
    rng = np.random.default_rng(seed)
    matmul = faulty_matmul_factory(state, [w.shape for w in model.weights], mode, rng)

    def linear(live, idx, a):
        w = live.weights[idx]
        exact = a @ w + live.biases[idx]
        if fmt == "int8":
            wq = quantize_int8(w)
            aq = quantize_int8(a)
            err = matmul(idx, aq.raw, wq.raw) - exact_int_matmul(aq.raw, wq.raw)
            return exact + err * (aq.scale * wq.scale)
        ab = bf16_round_array(a).astype(np.float64)
        wb = bf16_round_array(w).astype(np.float64)
        return exact + (matmul(idx, ab, wb) - ab @ wb)

    return train_sgd(model, train, epochs=epochs, lr=lr, seed=seed,
                     batch_size=batch_size, linear_fn=linear)
