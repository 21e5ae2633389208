"""Fixed reference kernels that gauge the host's current speed.

The benchmark's host is shared, and its speed drifts by 20-40% over
seconds to minutes.  The worker runs a kernel of this module right after
every timed ``cli.main`` call, and the end-to-end time metric is the
median of each call's time divided by the time of the kernel run after
it, so that a slow phase of the host scales both and cancels.

The kernels import nothing from bootgrid and must never change: a change
here rescales ``wall_ratio`` for every commit measured after it.  They mix
the kinds of work the workloads do: per-character Python loops over
lattice text (``lattice.to_text``/``from_text``), numpy stencil sweeps over
a stack of small grids (``rules.closure_batch``), index-array work queues
on one grid (``rules.closure_fast``), uniform random blocks (``rng``), bit
planes and bit arithmetic over arrays of several MB (``growth``) and a
plain interpreter loop.  The worker reads the peak RSS before the first kernel run, so a
kernel's memory never counts in ``peak_rss_mb``.
"""

import numpy as np

SEED = 20140501


def _text_round_trip(cells: np.ndarray) -> int:
    rows = ["".join("1" if v else "0" for v in row) for row in cells]
    text = "\n".join(rows) + "\n"
    parsed = [[1 if ch == "1" else 0 for ch in ln] for ln in text.splitlines()]
    return sum(map(sum, parsed))


def _stencil_closure(occ: np.ndarray) -> int:
    """Synchronous 2-neighbour closure of a (m, L, L) stack, open boundary."""
    m, ly, lx = occ.shape
    pad = np.zeros((m, ly + 2, lx + 2), dtype=np.uint8)
    while True:
        pad[:, 1:-1, 1:-1] = occ
        n = pad[:, :-2, 1:-1] + pad[:, 2:, 1:-1] + pad[:, 1:-1, :-2] + pad[:, 1:-1, 2:]
        new = occ | (n >= 2)
        if np.array_equal(new, occ):
            return int(occ.sum())
        occ = new


def _queue_closure(occ: np.ndarray) -> int:
    """The same closure of one grid by waves of newly occupied cells."""
    ly, lx = occ.shape
    flat = occ.reshape(-1).copy()
    counts = np.zeros(flat.size, dtype=np.uint8)
    wave = np.flatnonzero(flat)
    while wave.size:
        y, x = np.divmod(wave, lx)
        hits = [wave[y > 0] - lx, wave[y < ly - 1] + lx, wave[x > 0] - 1, wave[x < lx - 1] + 1]
        for h in hits:
            np.add.at(counts, h, 1)
        touched = np.unique(np.concatenate(hits))
        wave = touched[(counts[touched] >= 2) & ~flat[touched]]
        flat[wave] = True
    return int(flat.sum())


def _bit_counts(bits: int) -> int:
    """Popcounts of all ``bits``-bit indices, tallied for one subset of them:
    passes over arrays of several MB, like ``growth.growth_polynomial``."""
    idx = np.arange(1 << bits, dtype=np.uint32)
    k = idx - ((idx >> 1) & 0x55555555)
    k = (k & 0x33333333) + ((k >> 2) & 0x33333333)
    k = (((k + (k >> 4)) & 0x0F0F0F0F) * 0x01010101) >> 24
    hit = (idx & (idx >> 1) & (idx >> bits // 2)) != 0
    return int(np.bincount(k[hit], minlength=bits + 1) @ np.arange(bits + 1))


def _python_loop(n: int) -> int:
    """Plain interpreter work: argument parsing, manifests, result rows."""
    return sum(i * i for i in range(n)) & 0xFFFF


def mixed() -> int:
    """About 0.15 s of every kind of work above; returns a fixed checksum."""
    rng = np.random.default_rng(SEED)
    total = _text_round_trip(rng.random((320, 320)) < 0.05)
    total += _stencil_closure(rng.random((24, 64, 64)) < 0.06)
    total += _queue_closure(rng.random((192, 192)) < 0.07)
    total += int(rng.random(1 << 20).sum() > 0)
    total += _bit_counts(19)
    total += _python_loop(200_000)
    return total


def _bit_planes(bits: int) -> int:
    """Plane h packs bit h of every ``bits``-bit index, 64 to a word, as
    ``growth`` lays out its helper configurations."""
    idx = np.arange(1 << bits, dtype=np.uint32)
    planes = np.empty((bits, (1 << bits) // 64), dtype=np.uint64)
    for h in range(bits):
        one = ((idx >> np.uint32(h)) & np.uint32(1)).astype(np.uint8)
        planes[h] = np.packbits(one, bitorder="little").view(np.uint64)
    full = np.bitwise_and.reduce(planes[: bits // 2]) | np.bitwise_and.reduce(planes[bits // 2 :])
    return int(np.unpackbits(full.view(np.uint8)).sum())


def arrays() -> int:
    """About 0.05 s of passes over arrays of several MB; returns a fixed
    checksum.  For a workload that spends its time on memory traffic: a
    slow phase of the host slows it less than interpreter work, so
    ``mixed`` would over-correct it."""
    return _bit_planes(20) + _bit_counts(20)


# Kernel by the name a workload gives as its ``reference``.
KERNELS = {"mixed": mixed, "arrays": arrays}
