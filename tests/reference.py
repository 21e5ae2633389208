"""Independent per-cell reference implementations used as test oracles.

Everything here is deliberately dumb: plain Python loops over coordinates,
no numpy tricks shared with the production code.
"""

from __future__ import annotations

import numpy as np

from bootgrid import Configuration, GridSpec, Rule


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
