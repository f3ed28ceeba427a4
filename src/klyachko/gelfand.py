"""Gelfand-model verification for GL_n(F_q), from its group table.

`load_or_compute_table` gives the table of GL_n(F_q), from the table
cache or computed.  `verify_gelfand` reads n and q from that table and,
for every irreducible pi and every decomposition n = r + 2k, computes
the multiplicity of pi in the Klyachko model
Ind_{H_{r,2k}}^G(psi_r).  It reports four flags:

- existence:    every irreducible appears in some model,
- disjointness: no irreducible appears in two different models,
- uniqueness:   no multiplicity exceeds one,
- gelfand:      every total multiplicity is exactly one.

Disjointness and uniqueness are empirical findings per (n, q); nothing
here assumes them.  The dimension cross-check compares
sum_k [G : H_{n-2k,2k}] with sum_pi dim(pi), two independently computed
integers.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .arena import build_arena
from .characters import character_table, induced_klyachko_character, multiplicity
from .errors import CacheError, InvariantViolation, UsageError
from .gf import field_from_q
from .groups import (
    DEFAULT_MAX_ELEMENTS,
    GroupTable,
    KlyachkoSubgroupSpec,
    check_group_cap,
    gl_enumerate,
    h_order,
)
from .tablecache import cache_path, load_table, save_table


@dataclass(frozen=True)
class GelfandRow:
    index: int
    dim: int
    mults: tuple[tuple[int, int], ...]  # (k, multiplicity)
    total: int


@dataclass(frozen=True)
class GelfandReport:
    n: int
    q: int
    ell: int
    psi_seed: int
    class_count: int
    rows: tuple[GelfandRow, ...]
    existence: bool
    disjointness: bool
    uniqueness: bool
    gelfand: bool
    model_dims: tuple[tuple[int, int], ...]  # (k, [G : H_{n-2k,2k}])
    irreducible_dim_sum: int

    @property
    def model_dim_sum(self) -> int:
        return sum(d for _, d in self.model_dims)

    @property
    def dim_check(self) -> bool:
        return self.model_dim_sum == self.irreducible_dim_sum

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "ell": self.ell,
            "psi_seed": self.psi_seed,
            "class_count": self.class_count,
            "rows": [
                {
                    "index": row.index,
                    "dim": row.dim,
                    "mults": [list(pair) for pair in row.mults],
                    "total": row.total,
                }
                for row in self.rows
            ],
            "flags": {
                "existence": self.existence,
                "disjointness": self.disjointness,
                "uniqueness": self.uniqueness,
                "gelfand": self.gelfand,
            },
            "model_dims": [list(pair) for pair in self.model_dims],
            "dim_check": {
                "model_total": self.model_dim_sum,
                "irreducible_total": self.irreducible_dim_sum,
                "equal": self.dim_check,
            },
            "meta": {"version": __version__},
        }


def load_or_compute_table(n: int, q: int, cache_dir: str | Path | None = None,
                          max_elements: int = DEFAULT_MAX_ELEMENTS) -> GroupTable:
    """The table of GL_n(F_q): read from `cache_dir` when it holds a good
    one, otherwise computed and written there.  A cache directory that
    cannot hold the file is refused before the group is enumerated."""
    field = field_from_q(q)
    check_group_cap(n, q, max_elements)  # a cached table obeys the cap too
    if cache_dir is None:
        return gl_enumerate(n, field, max_elements=max_elements)
    path = cache_path(cache_dir, n, q)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if path.exists():
            try:
                return load_table(path, field, n)
            except CacheError:
                pass  # fall through, recompute and overwrite
        table = gl_enumerate(n, field, max_elements=max_elements)
        save_table(table, path)
    except OSError as exc:  # a bad --cache-dir is bad usage, not an engine bug
        raise UsageError(f"cannot write the table cache {path}: {exc.strerror or exc}") from exc
    return table


def verify_gelfand(table: GroupTable, *, ell: int | None = None, psi: int = 1) -> GelfandReport:
    """Run the full verification on the table of GL_n(F_q)."""
    n, q = table.n, table.q
    arena = build_arena(table.order, table.exponent(), table.field.p, ell=ell)
    chars = character_table(table, arena)
    matrix: list[list[int]] = [[] for _ in chars]  # multiplicities [pi][k]
    model_dims = []
    for k in range(n // 2 + 1):
        spec = KlyachkoSubgroupSpec(n - 2 * k, k, psi_generator=psi)
        chi_model = induced_klyachko_character(table, spec, arena)
        # independent dimension bookkeeping: index formula vs character dims
        dim = chi_model.dimension(table)
        if dim != table.order // h_order(n - 2 * k, k, q):
            raise InvariantViolation(f"model k={k} has dimension {dim}, not the index of H")
        model_dims.append(dim)
        for mults, cf in zip(matrix, chars):
            mults.append(multiplicity(chi_model, cf, table))
    rows = tuple(
        GelfandRow(index=i, dim=cf.dimension(table), mults=tuple(enumerate(mults)),
                   total=sum(mults))
        for i, (cf, mults) in enumerate(zip(chars, matrix))
    )
    return GelfandReport(
        n=n,
        q=q,
        ell=arena.ell,
        psi_seed=psi,
        class_count=len(table.classes),
        rows=rows,
        existence=all(row.total >= 1 for row in rows),
        disjointness=all(sum(1 for _, m in row.mults if m) <= 1 for row in rows),
        uniqueness=all(m <= 1 for row in rows for _, m in row.mults),
        gelfand=all(row.total == 1 for row in rows),
        model_dims=tuple(enumerate(model_dims)),
        irreducible_dim_sum=sum(row.dim for row in rows),
    )
