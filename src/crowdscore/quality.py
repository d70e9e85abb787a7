"""Quality function: reference statistics, Gaussian costs, weighted score.

Each feature cost is the mean over its samples of 1 - exp(-(s-mu)^2/(2 sigma^2))
against reference statistics fitted on golden data; the score is one minus the
weighted sum of costs, so it lives in [0, 1] when the weights sum to at most 1.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .features import (
    FD_BIN_WIDTH,
    FEATURE_CODES,
    FeatureSamples,
    FundamentalDiagramCurve,
    extract,
    fd_gap,
    fundamental_diagram_curve,
    merge_flat_samples,
)
from .keyvalue import format_keyvalue, parse_float, parse_keyvalue
from .trajectory import CrowdTrajectory, to_canonical

SIGMA_FLOOR = 1e-3  # feature units, keeps the Gaussian denominator sane

_STAT_FIELDS = ("mu", "sigma", "omega", "curve")


def _flat(values) -> np.ndarray:
    if isinstance(values, FeatureSamples):
        return values.flat()
    return np.ravel(np.asarray(values, dtype=float))


@dataclass
class ReferenceStats:
    """Per-feature mean/spread of golden data plus the speed-density curve."""

    mu: dict[str, float]
    sigma: dict[str, float]
    sample_count: dict[str, int] = field(default_factory=dict)
    fd_curve: FundamentalDiagramCurve | None = None

    def require(self, code: str) -> tuple[float, float]:
        if code not in self.mu or code not in self.sigma:
            raise ConfigError(f"reference stats missing feature {code}")
        return self.mu[code], self.sigma[code]


@dataclass
class WeightVector:
    """Non-negative per-feature weights; rescaled so they sum to at most 1."""

    omega: dict[str, float]

    def __post_init__(self) -> None:
        missing = [c for c in FEATURE_CODES if c not in self.omega]
        if missing:
            raise ConfigError(f"weights missing features: {', '.join(missing)}")
        extra = [c for c in self.omega if c not in FEATURE_CODES]
        if extra:
            raise ConfigError(f"weights name unknown features: {', '.join(extra)}")
        for code, w in self.omega.items():
            if not np.isfinite(w) or w < 0.0:
                raise ConfigError(f"weight for {code} must be finite and >= 0, got {w}")
        total = sum(self.omega[c] for c in FEATURE_CODES)
        if total > 1.0 + 1e-12:
            self.omega = {c: self.omega[c] / total for c in FEATURE_CODES}

    @classmethod
    def from_vector(cls, values) -> "WeightVector":
        vec = np.asarray(values, dtype=float)
        if vec.shape != (len(FEATURE_CODES),):
            raise ConfigError(f"expected {len(FEATURE_CODES)} weights, got shape {vec.shape}")
        return cls({c: float(v) for c, v in zip(FEATURE_CODES, vec)})

    def vector(self) -> np.ndarray:
        return np.array([self.omega[c] for c in FEATURE_CODES])

    def total(self) -> float:
        return float(sum(self.omega[c] for c in FEATURE_CODES))


@dataclass
class QualityScore:
    total: float
    per_feature_cost: dict[str, float]
    per_feature_contribution: dict[str, float]


def fit_reference(
    samples,
    *,
    fd_curve: FundamentalDiagramCurve | None = None,
    fd_bin_width: float = FD_BIN_WIDTH,
) -> ReferenceStats:
    """Fit per-feature (mu, sigma) from golden-data samples.

    ``samples`` maps feature codes to FeatureSamples or plain arrays.  Sigma
    uses the population convention and is floored at SIGMA_FLOOR.  Unless a
    curve is supplied, the fundamental diagram is fitted from the paired
    (LDN, AWS) samples.
    """
    mu: dict[str, float] = {}
    sigma: dict[str, float] = {}
    count: dict[str, int] = {}
    flats: dict[str, np.ndarray] = {}
    for code in FEATURE_CODES:
        if code not in samples:
            raise DataError(f"feature {code}: no samples provided")
        vals = _flat(samples[code])
        if vals.size < 2:
            raise DataError(f"feature {code}: need at least 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise DataError(f"feature {code}: samples contain non-finite values")
        flats[code] = vals
        mu[code] = float(np.mean(vals))
        sigma[code] = max(float(np.std(vals)), SIGMA_FLOOR)
        count[code] = int(vals.size)
    curve = fd_curve
    if curve is None:
        ldn, aws = flats["LDN"], flats["AWS"]
        if ldn.size != aws.size:
            raise DataError(
                f"LDN and AWS sample counts differ ({ldn.size} vs {aws.size}), "
                "cannot pair them for the fundamental diagram"
            )
        curve = fundamental_diagram_curve(np.column_stack([ldn, aws]), fd_bin_width)
    return ReferenceStats(mu=mu, sigma=sigma, sample_count=count, fd_curve=curve)


def fit_reference_from_crowds(crowds, *, fd_bin_width: float = FD_BIN_WIDTH) -> ReferenceStats:
    """Fit reference statistics directly from golden crowd trajectories.

    The fundamental diagram is fitted from the pooled (LDN, AWS) pairs of all
    crowds, and each crowd's FDG samples are then measured against that
    shared curve, so the FDG statistics describe deviations from it.
    """
    crowds = list(crowds)
    if not crowds:
        raise DataError("no golden crowd trajectories provided")
    maps = [extract(c) for c in crowds]
    merged = merge_flat_samples(maps)
    pairs = np.column_stack([merged["LDN"], merged["AWS"]])
    curve = fundamental_diagram_curve(pairs, fd_bin_width)
    merged["FDG"] = np.concatenate(
        [fd_gap(m["AWS"].values, m["LDN"].values, curve) for m in maps]
    )
    return fit_reference(merged, fd_curve=curve)


def cost(samples: FeatureSamples, stats: ReferenceStats) -> float:
    """Mean Gaussian penalty of one feature's samples against the reference."""
    vals = _flat(samples)
    if vals.size == 0:
        raise ValueError(f"feature {samples.code}: empty sample set")
    mu, sigma = stats.require(samples.code)
    z = (vals - mu) / sigma
    return float(np.mean(1.0 - np.exp(-0.5 * z * z)))


def cost_vector(sample_map, stats: ReferenceStats) -> np.ndarray:
    """All 21 costs in canonical listing order."""
    return np.array([cost(sample_map[code], stats) for code in FEATURE_CODES])


def combine(costs, weights: WeightVector) -> QualityScore:
    """Weighted combination of per-feature costs into the quality score."""
    if isinstance(costs, dict):
        missing = [c for c in FEATURE_CODES if c not in costs]
        if missing:
            raise ConfigError(f"costs missing features: {', '.join(missing)}")
        cvec = np.array([float(costs[c]) for c in FEATURE_CODES])
    else:
        cvec = np.asarray(costs, dtype=float)
        if cvec.shape != (len(FEATURE_CODES),):
            raise ConfigError(f"expected {len(FEATURE_CODES)} costs, got shape {cvec.shape}")
    wvec = weights.vector()
    contrib = wvec * cvec
    total = min(1.0, max(0.0, 1.0 - float(np.sum(contrib))))
    return QualityScore(
        total=total,
        per_feature_cost={c: float(v) for c, v in zip(FEATURE_CODES, cvec)},
        per_feature_contribution={c: float(v) for c, v in zip(FEATURE_CODES, contrib)},
    )


def score(
    crowd: CrowdTrajectory,
    stats: ReferenceStats,
    weights: WeightVector | None = None,
    *,
    window: tuple[float, float] | None = None,
) -> QualityScore:
    """Quality score of a crowd trajectory against fitted reference stats.

    The crowd is resampled to the canonical timestep first.  ``window``
    optionally restricts scoring to a [start, stop) span in seconds; the
    default is the full trajectory.
    """
    if weights is None:
        weights = default_weights()
    crowd = to_canonical(crowd)
    if window is not None:
        start_s, stop_s = window
        if not (math.isfinite(start_s) and math.isfinite(stop_s)):
            raise DataError(f"scoring window [{start_s}, {stop_s}) s has a non-finite bound")
        lo = max(0, int(np.ceil((start_s - crowd.t0) / crowd.dt - 1e-9)))
        hi = min(crowd.n_steps, int(np.ceil((stop_s - crowd.t0) / crowd.dt - 1e-9)))
        if hi - lo < 2:
            raise DataError(
                f"scoring window [{start_s}, {stop_s}) s covers fewer than 2 steps"
            )
        crowd = crowd.window(lo, hi)
    sample_map = extract(crowd, stats.fd_curve)
    return combine(cost_vector(sample_map, stats), weights)


def radar(quality: QualityScore) -> list[tuple[str, float]]:
    """Per-feature closeness to the reference (1 - cost), canonical order."""
    return [(code, 1.0 - quality.per_feature_cost[code]) for code in FEATURE_CODES]


# --- stats / weights files (shared line-oriented key-value grammar) ---


def _split_key(key: str, source: str) -> tuple[str, str]:
    parts = key.split(".")
    if len(parts) != 2 or parts[0] not in FEATURE_CODES or parts[1] not in _STAT_FIELDS:
        raise DataError(f"{source}: unknown key {key!r}")
    code, fieldname = parts
    if fieldname == "curve" and code != "FDG":
        raise DataError(f"{source}: curve entry only valid for FDG, got {key!r}")
    return code, fieldname


def parse_reference_stats(text: str, source: str = "<stats>") -> ReferenceStats:
    entries = parse_keyvalue(text, source)
    mu: dict[str, float] = {}
    sigma: dict[str, float] = {}
    curve = None
    for key, raw in entries.items():
        code, fieldname = _split_key(key, source)
        if fieldname == "mu":
            mu[code] = parse_float(key, raw, source)
        elif fieldname == "sigma":
            value = parse_float(key, raw, source)
            if value < 0.0:
                raise DataError(f"{source}: {key} must be >= 0, got {value}")
            sigma[code] = max(value, SIGMA_FLOOR)
        elif fieldname == "curve":
            curve = FundamentalDiagramCurve.deserialize(raw)
        # omega entries are valid grammar (combined files) but ignored here
    missing = [c for c in FEATURE_CODES if c not in mu or c not in sigma]
    if missing:
        raise DataError(f"{source}: missing mu/sigma for: {', '.join(missing)}")
    return ReferenceStats(mu=mu, sigma=sigma, fd_curve=curve)


def format_reference_stats(stats: ReferenceStats) -> str:
    items = []
    for code in FEATURE_CODES:
        mu, sigma = stats.require(code)
        items.append((f"{code}.mu", repr(mu)))
        items.append((f"{code}.sigma", repr(sigma)))
    if stats.fd_curve is not None:
        items.append(("FDG.curve", stats.fd_curve.serialize()))
    return format_keyvalue(items)


def load_reference_stats(path) -> ReferenceStats:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_reference_stats(fh.read(), source=str(path))


def save_reference_stats(stats: ReferenceStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_reference_stats(stats))


def parse_weights(text: str, source: str = "<weights>") -> WeightVector:
    entries = parse_keyvalue(text, source)
    omega: dict[str, float] = {}
    for key, raw in entries.items():
        code, fieldname = _split_key(key, source)
        if fieldname == "omega":
            omega[code] = parse_float(key, raw, source)
        # mu/sigma/curve entries are valid grammar (combined files), ignored
    missing = [c for c in FEATURE_CODES if c not in omega]
    if missing:
        raise DataError(f"{source}: missing omega for: {', '.join(missing)}")
    return WeightVector(omega)


def format_weights(weights: WeightVector) -> str:
    return format_keyvalue(
        (f"{code}.omega", repr(weights.omega[code])) for code in FEATURE_CODES
    )


def load_weights(path) -> WeightVector:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weights(fh.read(), source=str(path))


def save_weights(weights: WeightVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_weights(weights))


def default_weights() -> WeightVector:
    """The weight set trained on the reference dataset, shipped with the package."""
    text = (
        importlib.resources.files("crowdscore")
        .joinpath("data/default_weights.txt")
        .read_text(encoding="utf-8")
    )
    return parse_weights(text, source="default_weights.txt")
