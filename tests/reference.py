"""Independent per-cell reference implementations used as test oracles.

Everything here is deliberately dumb: plain Python loops over coordinates,
no numpy tricks shared with the production code.  The one exception is
:func:`ref_subset_success_counts`, the enumeration that closes every word
with the production lane kernel; it is the oracle for the work the
production enumerator skips, not for the kernel, which the per-cell
closures check.
"""

from __future__ import annotations

import numpy as np

from bootgrid import Configuration, GridSpec, Rule, RuleFamily, closure_lanes
from bootgrid.rules import _axis_units, _check_dimensions


def ref_make_rule(family: RuleFamily) -> Rule:
    """The concrete rule of a family, one branch per kind: the oracle for
    ``bootgrid.rules.make_rule``, which reads the family table."""
    if family.kind == "standard":
        d = family.params[0]
        return Rule("threshold", d, _axis_units(d), d)
    if family.kind == "modified":
        d = family.params[0]
        return Rule("modified", d, _axis_units(d), d)
    if family.kind == "one_two":
        return ref_make_rule(RuleFamily.parse("1b:2"))
    if family.kind == "one_b":
        b = family.params[0]
        offsets = [(i, 0) for i in range(1, b + 1)] + [(-i, 0) for i in range(1, b + 1)]
        offsets += [(0, 1), (0, -1)]
        return Rule("threshold", 2, tuple(offsets), b + 1)
    if family.kind == "duarte":
        return Rule("threshold", 2, ((0, 1), (1, 0), (0, -1)), 2)
    if family.kind == "abc":
        a, b, c = family.params
        offsets = [(s * i, 0, 0) for i in range(1, a + 1) for s in (1, -1)]
        offsets += [(0, s * j, 0) for j in range(1, b + 1) for s in (1, -1)]
        offsets += [(0, 0, s * k) for k in range(1, c + 1) for s in (1, -1)]
        return Rule("threshold", 3, tuple(offsets), a + b + c)
    raise ValueError(f"unknown family kind {family.kind!r}")


def ref_family_name(family: RuleFamily) -> str:
    """The CLI name of a family, one branch per kind: the oracle for
    ``RuleFamily.name``."""
    if family.kind == "standard":
        return f"standard{family.params[0]}"
    if family.kind == "modified":
        return f"modified{family.params[0]}"
    if family.kind == "one_two":
        return "12"
    if family.kind == "one_b":
        return f"1b:{family.params[0]}"
    if family.kind == "duarte":
        return "duarte"
    return "abc:" + ",".join(str(v) for v in family.params)


def ref_count_occupied(config: Configuration) -> int:
    total = 0
    for v in config.cells.reshape(-1):
        if v:
            total += 1
    return total


def _wrap(coord, dims):
    return tuple(c % d for c, d in zip(coord, dims))


def _inside(coord, dims):
    return all(0 <= c < d for c, d in zip(coord, dims))


def ref_step(config: Configuration, rule: Rule) -> Configuration:
    """One synchronous update computed cell by cell."""
    grid = config.grid
    dims = grid.dims
    periodic = grid.periodic
    out = config.copy()

    def occupied(coord):
        if periodic:
            coord = _wrap(coord, dims)
        elif not _inside(coord, dims):
            return False
        return config.get(coord)

    for flat in range(grid.cells):
        coord = []
        rest = flat
        for d in dims:
            coord.append(rest % d)
            rest //= d
        coord = tuple(coord)
        if config.get(coord):
            continue
        if rule.kind == "threshold":
            hits = 0
            for off in rule.offsets:
                if occupied(tuple(c + o for c, o in zip(coord, off))):
                    hits += 1
            fire = hits >= rule.theta
        else:
            fire = True
            for axis in range(rule.dimension):
                plus = list(coord)
                plus[axis] += 1
                minus = list(coord)
                minus[axis] -= 1
                if not (occupied(tuple(plus)) or occupied(tuple(minus))):
                    fire = False
                    break
        if fire:
            out.cells[tuple(reversed(coord))] = True
    return out


def ref_closure(config: Configuration, rule: Rule) -> Configuration:
    current = config
    while True:
        nxt = ref_step(current, rule)
        if nxt == current:
            return nxt
        current = nxt


def ref_to_text(config: Configuration) -> str:
    """Render in the row-of-0/1-characters text format (round-trip exact)."""
    grid = config.grid
    lines = [
        "dims: " + " ".join(str(d) for d in grid.dims),
        f"boundary: {grid.boundary}",
    ]
    arr = config.cells.astype(np.uint8)
    if grid.ndim == 1:
        lines.append("".join("1" if v else "0" for v in arr))
    elif grid.ndim == 2:
        for row in arr:
            lines.append("".join("1" if v else "0" for v in row))
    else:
        for zi, block in enumerate(arr):
            if zi:
                lines.append("")
            for row in block:
                lines.append("".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


def ref_from_text(text: str) -> Configuration:
    """Parse the text format produced by :func:`ref_to_text`.

    Lines starting with ``#`` are ignored so files carrying a metadata
    preamble stay readable.
    """
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if not ln.startswith("#")]
    if len(lines) < 2 or not lines[0].startswith("dims:"):
        raise ValueError("expected a 'dims: ...' header line")
    dims = tuple(int(tok) for tok in lines[0][len("dims:") :].split())
    if not lines[1].startswith("boundary:"):
        raise ValueError("expected a 'boundary: ...' header line")
    boundary = lines[1][len("boundary:") :].strip()
    grid = GridSpec(dims, boundary)

    body = lines[2:]
    rows: list[list[int]] = []
    for ln in body:
        if ln.strip() == "":
            continue
        if set(ln) - {"0", "1"}:
            raise ValueError(f"invalid row characters in {ln!r}")
        rows.append([1 if ch == "1" else 0 for ch in ln])

    lx = dims[0]
    ly = dims[1] if grid.ndim >= 2 else 1
    lz = dims[2] if grid.ndim == 3 else 1
    if len(rows) != ly * lz or any(len(r) != lx for r in rows):
        raise ValueError(f"body does not match dims {dims}")
    arr = np.array(rows, dtype=bool).reshape(grid.shape)
    return Configuration(grid, arr)


# bit j of _LANE_BITS[h] is bit h of j, and bit j of _LANE_CLASSES[c] is set
# when j has c bits set
_LANE_BITS = np.array([sum(1 << j for j in range(64) if j >> h & 1) for h in range(6)], np.uint64)
_LANE_CLASSES = np.array(
    [sum(1 << j for j in range(64) if bin(j).count("1") == c) for c in range(7)], np.uint64
)
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def ref_subset_success_counts(
    rule: Rule, grid: GridSpec, free: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """counts[k] = number of k-cell subsets of the ``free`` cells whose
    closure, with every other cell held occupied, occupies every ``target``
    cell.

    The close-every-word enumeration: all 2^len(free) subsets, 64 to a word
    of ``closure_lanes``, every word closed.  It is the oracle for
    ``bootgrid.montecarlo.subset_success_counts``, which skips words whose
    hits monotonicity already decides.  Subset ``64 g + j`` has
    ``popcount(g) + popcount(j)`` cells, so the hits of word ``g`` are
    counted by popcount once per lane class (the lanes ``j`` of one
    popcount).
    """
    _check_dimensions(grid, rule)
    m = len(free)
    words = max(1, (1 << m) // 64)
    # A block is a power of two of words, about 2^14 words over all its
    # cells.  The word count is a power of two too, so whole blocks tile
    # the 2^m subsets exactly and no block runs past the last one.
    block = min(words, 1 << max(0, ((1 << 14) // grid.cells).bit_length() - 1))
    # With m < 6 free cells word 0 is the only word and only its lanes below
    # 2^m are subsets; the others repeat them and must not be counted.
    lanes = min(1 << m, 64)
    classes = _LANE_CLASSES[: min(m, 6) + 1] & np.uint64((1 << lanes) - 1)
    counts = np.zeros(m + 1, dtype=np.int64)
    for first in range(0, words, block):
        planes = _subset_planes(first, block, grid.cells, free)
        closed = closure_lanes(planes.reshape((block,) + grid.shape), rule, grid.periodic)
        hits = np.bitwise_and.reduce(closed.reshape(block, -1)[:, target], axis=1)
        high = _popcount(np.arange(first, first + block, dtype=np.uint64))[:, None]
        np.add.at(counts, high + np.arange(len(classes)), _popcount(hits[:, None] & classes))
    return counts


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word: a byte table gives each byte's count,
    and one multiply sums a word's eight byte counts into its top byte."""
    octets = np.take(_POPCOUNT8, np.ascontiguousarray(words).view(np.uint8))
    total = octets.view(np.uint64) * np.uint64(0x0101010101010101)
    return (total >> np.uint64(56)).astype(np.int64)


def _subset_planes(first_word: int, n_words: int, cells: int, free: np.ndarray) -> np.ndarray:
    """Subset ``64 g + j`` of the free cells as lane ``j`` of word ``g``,
    for words ``first_word`` on, every other cell occupied in every lane:
    free cell ``h`` holds bit ``h`` of the subset index.  Below bit 6 that
    bit depends on the lane only, a constant word; from bit 6 on it
    depends on the word only, so the word is all ones or all zeros."""
    g = np.arange(first_word, first_word + n_words, dtype=np.uint64)
    planes = np.full((n_words, cells), ~np.uint64(0))
    for h, cell in enumerate(free):
        if h < 6:
            planes[:, cell] = _LANE_BITS[h]
        else:
            planes[:, cell] = np.uint64(0) - ((g >> np.uint64(h - 6)) & np.uint64(1))
    return planes
