"""Quality function: reference statistics, Gaussian costs, weighted score.

Each feature cost is the mean over its samples of 1 - exp(-(s-mu)^2/(2 sigma^2))
against reference statistics fitted on golden data; the score is one minus the
weighted sum of costs, so it lives in [0, 1] when the weights sum to at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import (
    FD_BIN_WIDTH,
    FEATURE_CODES,
    FundamentalDiagramCurve,
    extract,
    fd_gap,
    fundamental_diagram_curve,
)
from .keyvalue import decode_input, parse_float, parse_keyvalue, read_input, write_keyvalue
from .trajectory import CrowdTrajectory, to_canonical

SIGMA_FLOOR = 1e-3  # feature units, keeps the Gaussian denominator sane

_STAT_FIELDS = ("mu", "sigma", "omega", "curve")


@dataclass
class ReferenceStats:
    """Per-feature mean/spread of golden data plus the speed-density curve."""

    mu: dict[str, float]
    sigma: dict[str, float]
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
    samples: dict[str, np.ndarray], fd_curve: FundamentalDiagramCurve
) -> ReferenceStats:
    """Fit per-feature (mu, sigma) from golden-data samples.

    ``samples`` maps feature codes to sample arrays, raveled here.  Sigma
    uses the population convention and is floored at SIGMA_FLOOR.  The FDG
    samples must have been measured against ``fd_curve``, which the stats keep.
    """
    mu: dict[str, float] = {}
    sigma: dict[str, float] = {}
    for code in FEATURE_CODES:
        if code not in samples:
            raise DataError(f"feature {code}: no samples provided")
        vals = np.ravel(samples[code])
        if vals.size < 2:
            raise DataError(f"feature {code}: need at least 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise DataError(f"feature {code}: samples contain non-finite values")
        mu[code] = float(np.mean(vals))
        sigma[code] = max(float(np.std(vals)), SIGMA_FLOOR)
    return ReferenceStats(mu=mu, sigma=sigma, fd_curve=fd_curve)


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
    merged = {code: np.concatenate([np.ravel(m[code]) for m in maps]) for code in FEATURE_CODES}
    pairs = np.column_stack([merged["LDN"], merged["AWS"]])
    curve = fundamental_diagram_curve(pairs, fd_bin_width)
    merged["FDG"] = np.concatenate([fd_gap(m["AWS"], m["LDN"], curve) for m in maps])
    return fit_reference(merged, curve)


def cost(code: str, samples: np.ndarray, stats: ReferenceStats) -> float:
    """Mean Gaussian penalty of one feature's samples against the reference."""
    vals = np.ravel(samples)
    if vals.size == 0:
        raise ValueError(f"feature {code}: empty sample set")
    mu, sigma = stats.require(code)
    z = (vals - mu) / sigma
    return float(np.mean(1.0 - np.exp(-0.5 * z * z)))


def cost_vector(sample_map: dict[str, np.ndarray], stats: ReferenceStats) -> np.ndarray:
    """All 21 costs in canonical listing order."""
    return np.array([cost(code, sample_map[code], stats) for code in FEATURE_CODES])


def combine(costs: np.ndarray, weights: WeightVector) -> QualityScore:
    """Weighted combination of the (21,) cost vector into the quality score."""
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
        # Clamped in float: a huge bound would overflow the int conversion.
        lo, hi = (
            int(np.clip(np.ceil((s - crowd.t0) / crowd.dt - 1e-9), 0, crowd.n_steps))
            for s in (start_s, stop_s)
        )
        if hi - lo < 2:
            raise DataError(
                f"scoring window [{start_s}, {stop_s}) s covers fewer than 2 steps"
            )
        crowd = crowd.window(lo, hi)
    sample_map = extract(crowd, stats.fd_curve)
    return combine(cost_vector(sample_map, stats), weights)


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


def save_reference_stats(stats: ReferenceStats, path) -> None:
    items = []
    for code in FEATURE_CODES:
        mu, sigma = stats.require(code)
        items.append((f"{code}.mu", repr(mu)))
        items.append((f"{code}.sigma", repr(sigma)))
    if stats.fd_curve is not None:
        items.append(("FDG.curve", stats.fd_curve.serialize()))
    write_keyvalue(path, items)


def load_reference_stats(path) -> ReferenceStats:
    return parse_reference_stats(decode_input(read_input(path), path), source=str(path))


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


def load_weights(path) -> WeightVector:
    return parse_weights(decode_input(read_input(path), path), source=str(path))


def save_weights(weights: WeightVector, path) -> None:
    write_keyvalue(path, ((f"{code}.omega", repr(weights.omega[code])) for code in FEATURE_CODES))


def default_weights() -> WeightVector:
    """The weight set trained on the reference dataset, shipped with the package."""
    return load_weights(Path(__file__).with_name("data") / "default_weights.txt")
