"""Time the numpy kernels, and the block-jump LFSR against its
bit-by-bit oracle.

Run with ``python -m y00sim.bench``; pass ``--scale`` to shrink or grow the
workloads. Exits 1 if the LFSR kernel and the oracle disagree.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import kernels
from .overlap_coding import pattern_array


def _time(fn, *args, repeats: int = 5) -> float:
    fn(*args)  # warm-up (and the LFSR's jump tables)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _workloads(scale: float):
    rng = np.random.default_rng(7)
    n_bits = int(2_000_000 * scale)
    n_sym = int(400_000 * scale)
    n_states = 32
    m = n_states // 2

    cdf = np.cumsum(rng.dirichlet(np.ones(n_states), size=n_states), axis=1)
    cdf /= cdf[:, -1:]
    level_idx = rng.integers(0, n_states, n_sym)
    basis = rng.integers(0, m, n_sym)
    polarity = rng.integers(0, 2, n_sym, dtype=np.uint8)
    bits = rng.integers(0, 2, n_sym, dtype=np.uint8)
    mean_i = np.linspace(1.0, 2.0, n_states)
    sigma_i = np.full(n_states, 0.2)
    thr = np.linspace(1.2, 1.8, m)
    code_ids = rng.integers(0, 3, n_sym)
    patterns = pattern_array()
    return {
        "lfsr_fill": (np.uint64(0xACE1F00D), np.uint64(0x80000062), np.empty(n_bits, np.uint8)),
        "srm_sample": (cdf, level_idx, rng.random(n_sym), np.empty(n_sym, dtype=np.int64)),
        "bob_errors": (level_idx, basis, polarity, bits, rng.standard_normal(n_sym), mean_i, sigma_i, thr),
        "coded_errors": (
            basis, polarity, code_ids, bits, rng.standard_normal((n_sym, 3)),
            mean_i, sigma_i, thr, patterns, m,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernel benchmark")
    parser.add_argument("--scale", type=float, default=1.0, help="workload size multiplier")
    args = parser.parse_args(argv)

    loads = _workloads(args.scale)
    print(f"{'kernel':<24}{'numpy (s)':>12}{'oracle (s)':>12}{'speedup':>10}")
    for name, work in loads.items():
        t_np = _time(getattr(kernels, name), *work)
        if name != "lfsr_fill":
            print(f"{name:<24}{t_np:>12.5f}")
            continue
        state, mask, out = work
        reference = np.empty_like(out)
        t_ref = _time(kernels._lfsr_fill_py, state, mask, reference, repeats=1)
        if not np.array_equal(out, reference):
            print("lfsr_fill disagrees with the bit-by-bit oracle")
            return 1
        ratio = t_ref / t_np if t_np > 0 else float("inf")
        print(f"{name:<24}{t_np:>12.5f}{t_ref:>12.5f}{ratio:>9.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
