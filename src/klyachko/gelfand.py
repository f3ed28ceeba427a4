"""Gelfand-model verification for GL_n(F_q), from its group table.

`load_or_compute_table` gives the table of GL_n(F_q), and
`load_or_compute_characters` builds the arena for one ell and gives the
character table in it, each character a tuple of residues mod ell in
the table's class order; each table is read from its cache file or
computed and written there by one helper (see tablecache for the
files).  `verify_gelfand` reads n and q from the table and, for every
irreducible pi and every k with r = n - 2k >= 0, computes the
multiplicity of pi in the Klyachko model Ind_{H_{r,2k}}^G(psi_r), the
model's character and the multiplicities all read in the one arena.
It reports four flags:

- existence:    every irreducible appears in some model,
- disjointness: no irreducible appears in two different models,
- uniqueness:   no multiplicity exceeds one,
- gelfand:      every total multiplicity is exactly one.

Disjointness and uniqueness are empirical findings per (n, q); nothing
here assumes them.  Each model's dimension is checked where it is
computed: `characters.induced_klyachko_character` lifts chi(1) to the
index |G| / |H|, with |H| the count of members that
`groups.enumerate_h` checks against the closed form |H_{r,2k}|.  The
dimension cross-check compares sum_k [G : H_{n-2k,2k}] with
sum_pi dim(pi), two independently computed integers.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

from .arena import ModularArena, build_arena
from .characters import character_table, dimension, induced_klyachko_character, multiplicity
from .errors import CacheError, UsageError
from .gf import field_from_q
from .groups import (
    DEFAULT_MAX_ELEMENTS,
    GroupTable,
    check_group_cap,
    gl_enumerate,
)
from .tablecache import (
    cache_path,
    characters_path,
    load_characters,
    load_table,
    save_characters,
    save_table,
)


def _load_or_compute(path: Path | None, load, compute, save):
    """`load(path)` when the file at `path` is a good cache, otherwise
    `compute()`, written to `path` by `save(value, path)`; only
    `compute()` when `path` is None.  A path that cannot be in a
    directory, or that is a directory, is refused before computing; a
    write that fails is refused after it."""
    if path is None:
        return compute()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if path.exists():
            try:
                return load(path)
            except CacheError:
                pass  # fall through, recompute and overwrite
        value = compute()
        save(value, path)
    except OSError as exc:  # a bad --cache-dir is bad usage, not an engine bug
        raise UsageError(f"cannot write the table cache {path}: {exc.strerror or exc}") from exc
    return value


def load_or_compute_table(n: int, q: int, cache_dir: str | Path | None = None,
                          max_elements: int = DEFAULT_MAX_ELEMENTS) -> GroupTable:
    """The table of GL_n(F_q): read from `cache_dir` when it holds a good
    one, otherwise computed and written there; only computed when
    `cache_dir` is None."""
    field = field_from_q(q)
    check_group_cap(n, q, max_elements)  # a cached table obeys the cap too
    return _load_or_compute(None if cache_dir is None else cache_path(cache_dir, n, q),
                            lambda path: load_table(path, field, n),
                            lambda: gl_enumerate(n, field, max_elements=max_elements),
                            save_table)


def load_or_compute_characters(table: GroupTable, ell: int | None, cache_dir: str | Path | None,
                               ) -> tuple[ModularArena, list[tuple[int, ...]]]:
    """The arena of `table` for `ell` (the least valid prime when None)
    and the character table in it: read from `cache_dir` when it holds a
    good one for this ell, otherwise computed and written there, beside
    the group table; only computed when `cache_dir` is None."""
    arena = build_arena(table.order, table.exponent(), table.field.p, ell=ell)
    path = None if cache_dir is None else characters_path(cache_dir, table.n, table.q, arena.ell)
    return arena, _load_or_compute(
        path, lambda path: load_characters(path, table, arena),
        lambda: character_table(table, arena),
        lambda chars, path: save_characters(chars, table, arena.ell, path))


def verify_gelfand(table: GroupTable, *, ell: int | None = None, psi: int = 1,
                   cache_dir: str | Path | None = None) -> dict:
    """Run the full verification on the table of GL_n(F_q), with its
    character table cached in `cache_dir`; the result is the
    gelfand-report schema's payload without `meta`."""
    n, q = table.n, table.q
    arena, chars = load_or_compute_characters(table, ell, cache_dir)
    matrix: list[list[int]] = [[] for _ in chars]  # multiplicities [pi][k]
    model_dims = []
    for k in range(n // 2 + 1):
        chi_model = induced_klyachko_character(table, k, psi, arena)
        model_dims.append(dimension(chi_model, table, arena))
        for mults, m in zip(matrix, multiplicity(chi_model, chars, table, arena)):
            mults.append(m)
    rows = [{"index": i, "dim": dimension(chi, table, arena),
             "mults": [[k, m] for k, m in enumerate(mults)], "total": sum(mults)}
            for i, (chi, mults) in enumerate(zip(chars, matrix))]
    model_total = sum(model_dims)
    irreducible_total = sum(row["dim"] for row in rows)
    return {
        "n": n,
        "q": q,
        "ell": arena.ell,
        "psi_seed": psi,
        "class_count": len(table.classes),
        "rows": rows,
        "flags": {
            "existence": all(row["total"] >= 1 for row in rows),
            "disjointness": all(sum(1 for m in mults if m) <= 1 for mults in matrix),
            "uniqueness": all(m <= 1 for mults in matrix for m in mults),
            "gelfand": all(row["total"] == 1 for row in rows),
        },
        "model_dims": [[k, d] for k, d in enumerate(model_dims)],
        "dim_check": {
            "model_total": model_total,
            "irreducible_total": irreducible_total,
            "equal": model_total == irreducible_total,
        },
    }
