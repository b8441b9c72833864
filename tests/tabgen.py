"""Seeded random generators for correspondence tables and count datasets."""

from __future__ import annotations

import random
from fractions import Fraction

from ardkit.correspondence import CorrespondenceEdge, CorrespondenceTable
from conftest import E2011, E2016, SA3, make_counts


def random_table(rng: random.Random, *, max_regions=50, split_only=False):
    """A valid random table: per-source ratios are exact fractions summing to one.

    With split_only=True every target is fed by exactly one source (pure
    splits), the precondition for exact backward reconstruction.
    Returns (table, source codes that carry edges).
    """
    n_sources = rng.randint(1, max_regions)
    n_targets = rng.randint(1, max_regions)
    sources = [f"S{i:03d}" for i in range(n_sources)]
    targets = [f"T{i:03d}" for i in range(n_targets)]
    by_source: dict[str, list[str]] = {}
    if split_only:
        for target in targets:
            by_source.setdefault(rng.choice(sources), []).append(target)
    else:
        for source in sources:
            fanout = rng.randint(1, min(4, n_targets))
            by_source[source] = rng.sample(targets, fanout)
    edges = []
    for source in sorted(by_source):
        mine = sorted(by_source[source])
        weights = [rng.randint(1, 9) for _ in mine]
        total = sum(weights)
        for target, weight in zip(mine, weights):
            edges.append(CorrespondenceEdge(source, target, Fraction(weight, total)))
    table = CorrespondenceTable(E2011, E2016, SA3, tuple(edges))
    return table, sorted(by_source)


def random_counts(rng: random.Random, codes, *, edition=E2011, indicator=None):
    cells = {code: rng.randint(0, 10_000) for code in codes}
    return make_counts(cells, edition=edition, indicator=indicator)
