"""Disclosure-control transforms: suppression and randomisation.

Suppression replaces every count strictly between zero and the threshold
(five by default) with a suppressed marker.  True zeros are kept unless
``suppress_zero`` is set: a zero discloses only absence, and atlas-style
outputs display zeros.  The suppression log records how many cells were
hidden per stratum, never which ones or what they held.

Randomisation perturbs counts with seeded uniform integer noise, clamped
at zero; it runs before suppression when both are configured.
"""

from __future__ import annotations

import random
from typing import Mapping, NamedTuple

from .errors import ConfigError, PrivacyError
from .model import CellKind, Checked, Dataset


class _SuppressionPolicyFields(NamedTuple):
    threshold: int = 5
    suppress_zero: bool = False


class SuppressionPolicy(Checked, _SuppressionPolicyFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.threshold, int) or isinstance(self.threshold, bool) or self.threshold < 1:
            raise PrivacyError(f"suppression threshold must be a positive integer, got {self.threshold!r}")
        if not isinstance(self.suppress_zero, bool):
            raise PrivacyError(f"suppress_zero must be true or false, not {self.suppress_zero!r}")
        return self

    @classmethod
    def from_json(cls, doc: Mapping) -> "SuppressionPolicy":
        if not isinstance(doc, Mapping):
            raise PrivacyError(f"privacy settings {doc!r} are not a JSON object")
        return cls(threshold=doc.get("threshold", 5), suppress_zero=doc.get("suppress_zero", False))


class SuppressionLog(NamedTuple):
    """Per-stratum counts of suppressed cells; values are never recorded."""

    strata: tuple[tuple[tuple[int, str, str], int], ...]
    total: int

    def to_json(self) -> dict:
        return {
            "strata": [
                {
                    "calendar_year": stratum[0],
                    "age_group": stratum[1],
                    "sex": stratum[2],
                    "suppressed_cell_count": count,
                }
                for stratum, count in self.strata
            ],
            "total_suppressed": self.total,
        }


def suppress(dataset: Dataset, policy: SuppressionPolicy) -> tuple[Dataset, SuppressionLog]:
    """Hide small counts: 0 < magnitude < threshold (and zero when configured).

    Rows keep their order.  Hiding is decided once per distinct magnitude;
    when no cell is hidden, the result is the input itself.
    """
    if dataset.indicator.value_kind is not CellKind.COUNT:
        raise PrivacyError(
            "suppression applies to count datasets only; suppress rates and "
            "percentages upstream through their numerator counts"
        )
    c = dataset.columns
    hidden = {m for m in set(c.magnitude) - {None} if 0 < m < policy.threshold or (policy.suppress_zero and m == 0)}
    if not hidden:
        return dataset, SuppressionLog(strata=(), total=0)
    kinds, magnitudes = list(c.kind), list(c.magnitude)
    per_stratum: dict[tuple[int, str, str], int] = {}
    for i, (kind, magnitude) in enumerate(zip(c.kind, c.magnitude)):
        if kind is CellKind.COUNT and magnitude in hidden:
            stratum = (c.year[i], c.age[i], c.sex[i])
            per_stratum[stratum] = per_stratum.get(stratum, 0) + 1
            kinds[i], magnitudes[i] = CellKind.SUPPRESSED, None
    log = SuppressionLog(
        strata=tuple(sorted(per_stratum.items())),
        total=sum(per_stratum.values()),
    )
    if per_stratum:
        dataset = dataset.with_columns(c._replace(kind=tuple(kinds), magnitude=tuple(magnitudes)))
    return dataset, log


def check_seed(noise_magnitude: int, seed) -> None:
    """Require a seed exactly when noise is on; raises ConfigError otherwise.

    Noise without a seed would not be reproducible, and a seed without
    noise is dead entropy.  `run` and `suppress` both check the values
    they will use, before they write anything.
    """
    if noise_magnitude and seed is None:
        raise ConfigError(f"randomisation is enabled (noise magnitude {noise_magnitude}) but no seed is given")
    if seed is not None and not noise_magnitude:
        raise ConfigError("a seed is given but randomisation is disabled (noise magnitude 0); remove the seed")


def randomize(dataset: Dataset, noise_magnitude: int, seed) -> Dataset:
    """Perturb counts by uniform integer noise in [-k, +k], clamped at zero.

    Seeded and reproducible; draws follow the input's row order, which is
    canonical order for every dataset a stage or reader returns.  Rows keep
    their order.  Zero magnitude is the identity.
    """
    if not isinstance(noise_magnitude, int) or isinstance(noise_magnitude, bool) or noise_magnitude < 0:
        raise PrivacyError(f"noise magnitude must be a non-negative integer, got {noise_magnitude!r}")
    if dataset.indicator.value_kind is not CellKind.COUNT:
        raise PrivacyError("randomisation applies to count datasets only")
    if noise_magnitude == 0:
        return dataset
    rng = random.Random(f"{seed}:{dataset.indicator.id}")
    c = dataset.columns
    magnitudes = list(c.magnitude)
    for i, kind in enumerate(c.kind):
        if kind is CellKind.COUNT:
            noise = rng.randint(-noise_magnitude, noise_magnitude)
            magnitudes[i] = max(0, magnitudes[i] + noise)
    return dataset.with_columns(c._replace(magnitude=tuple(magnitudes)))
