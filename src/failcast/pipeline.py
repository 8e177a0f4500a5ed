"""Two-stage cascade: one-class filter in front of a random forest.

Stage 1 trains on normal instances only and routes suspected anomalies to
stage 2; everything stage 1 clears is predicted Normal without touching
the forest. Stage 2 trains on the stage-1 survivors of the full training
set, leaked normals included, so it keeps a Normal class.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from . import forest as forest_mod
from . import ocsvm as ocsvm_mod
from .errors import (
    ConfigError,
    DegenerateTrainingError,
    FailcastError,
    InfeasibleNuError,
    ModelFormatError,
    StratificationError,
)
from .features import FeatureConfig, class_ranks
from .forest import ForestModel, ForestParams
from .ocsvm import OcsvmModel, OcsvmParams
from .trace_model import N_CLASSES

logger = logging.getLogger(__name__)

BUNDLE_OCSVM = "ocsvm.txt"
BUNDLE_FOREST = "forest.txt"
BUNDLE_LAYOUT = "layout.json"
BUNDLE_MANIFEST = "manifest.json"
BUNDLE_FILES = (BUNDLE_OCSVM, BUNDLE_FOREST, BUNDLE_LAYOUT, BUNDLE_MANIFEST)
_MANIFEST_FORMAT = "cascade-manifest v1"

#: how far a bundle's stage-1 alphas may sum from 1; training drifts a few 1e-16
ALPHA_SUM_TOL = 1e-9


@dataclass
class CascadeModel:
    """Trained filter + classifier pair with the config that produced them."""

    ocsvm: OcsvmModel
    forest: ForestModel
    manifest: dict

    def __post_init__(self):
        if self.ocsvm.support_vectors.shape[1] != self.forest.dim:
            raise ModelFormatError("stage dimensions disagree")

    @property
    def feature_config(self) -> FeatureConfig:
        """The feature layout of the stages' width."""
        return FeatureConfig.of_width(self.forest.dim)


@dataclass(frozen=True)
class GridSpec:
    gammas: tuple[float, ...] = (2.0**-7, 2.0**-5, 2.0**-3, 2.0**-1, 2.0)
    nus: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2)
    tree_counts: tuple[int, ...] = (50, 100, 200)
    folds: int = 5

    def __post_init__(self):
        if not (self.gammas and self.nus and self.tree_counts):
            raise FailcastError("every grid axis must be non-empty")
        if self.folds < 2:
            raise FailcastError("folds must be >= 2")
        for gamma, nu, n_trees in self.cells():
            # each raises ConfigError on a value its model rejects
            OcsvmParams(nu=nu, gamma=gamma)
            ForestParams(n_trees=n_trees)

    def cells(self) -> list[tuple[float, float, int]]:
        return list(itertools.product(self.gammas, self.nus, self.tree_counts))


def _digest(X: np.ndarray, y: np.ndarray) -> str:
    import hashlib  # loads OpenSSL, which only training needs

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X).tobytes())
    h.update(np.ascontiguousarray(y).tobytes())
    return h.hexdigest()


def train(
    X: np.ndarray,
    y: np.ndarray,
    ocsvm_params: OcsvmParams,
    forest_params: ForestParams,
) -> CascadeModel:
    """Train the cascade on (n, dim) features ``X`` and (n,) classes ``y``.

    The one-class stage fits the normals; every training row is then
    filtered through it and the forest learns from whatever it flags.
    Raises ConfigError before any fit unless dim is a whole number of
    12-feature lags, and DegenerateTrainingError when no failure instance
    survives the filter, since stage 2 would have nothing to separate.
    """
    feature_config = FeatureConfig.of_width(X.shape[1])
    y = np.asarray(y, dtype=np.int64)  # the manifest digest hashes int64 classes
    normals = X[y == 0]
    if len(normals) == 0 or len(normals) == len(y):
        raise ValueError("training data needs both normal and failure instances")

    stage1 = ocsvm_mod.train(normals, ocsvm_params)
    flagged = ocsvm_mod.decision(stage1, X) < 0.0
    if not np.any(flagged & (y != 0)):
        raise DegenerateTrainingError(
            "stage-1 filter removed every failure instance"
        )
    X2, y2 = X[flagged], y[flagged]
    stage2 = forest_mod.train(X2, y2, forest_params)

    manifest = {
        "format": _MANIFEST_FORMAT,
        "feature": {"lags": feature_config.lags, "dim": feature_config.dim},
        "ocsvm": asdict(ocsvm_params),
        "forest": asdict(forest_params),
        "data": {
            "n_train": int(len(y)),
            "class_counts": [int(c) for c in np.bincount(y, minlength=N_CLASSES)],
            "sha256": _digest(X, y),
            "stage2_train": int(len(y2)),
            "stage2_class_counts": [int(c) for c in np.bincount(y2, minlength=N_CLASSES)],
            "stage2_includes_leaked_normals": True,
        },
    }
    return CascadeModel(ocsvm=stage1, forest=stage2, manifest=manifest)


def predict_batch(
    model: CascadeModel, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, scores) for an (n, d) batch; one row is a batch of one.

    Rows stage 1 clears (g(x) >= 0) are Normal and never reach the forest,
    which is both the cascade's definition and its latency story; they
    score 0.5*sigmoid(-g(x)) from the stage-1 margin, below 0.5. Routed
    rows take the forest's majority class and score 0.5 plus half the
    non-Normal vote share, so at least 0.5. The score is a local
    definition for ranking, not a calibrated probability. A batch of the
    wrong width or with a non-finite feature raises FailcastError.
    """
    X = np.asarray(X, dtype=float)
    dim = model.forest.dim
    if X.ndim != 2 or X.shape[1] != dim:
        raise FailcastError(f"expected rows of {dim} features, got shape {X.shape}")
    if not np.isfinite(X).all():
        bad = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise FailcastError(f"row {bad} has a non-finite feature")
    return _cascade(model.forest, X, ocsvm_mod.decision(model.ocsvm, X))


def _cascade(
    forest: ForestModel, X: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``predict_batch`` of the rows ``X`` whose stage-1 margins are ``g``, by ``forest``."""
    flagged = g < 0.0
    preds = np.zeros(len(X), dtype=np.int64)
    scores = np.empty(len(X))
    scores[~flagged] = 0.25 * (1.0 + np.tanh(-g[~flagged] / 2.0))  # 0.5*sigmoid(-g)
    if np.any(flagged):
        votes = forest_mod.predict_votes_batch(forest, X[flagged])
        preds[flagged] = np.argmax(votes, axis=1)
        share = 1.0 - votes[:, 0] / votes.sum(axis=1)
        scores[flagged] = 0.5 + 0.5 * share
    return preds, scores


def _stratified_folds(
    y: np.ndarray, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Round-robin per-class fold assignment; every fold must see a failure."""
    fold_of = class_ranks(y, rng) % k
    folds = [np.nonzero(fold_of == f)[0] for f in range(k)]
    for f, members in enumerate(folds):
        if not np.any(y[members] != 0):
            raise StratificationError(f"fold {f} contains no failure instances")
        if not np.any(y[members] == 0):
            raise StratificationError(f"fold {f} contains no normal instances")
    return folds


def grid_search_cv(
    X: np.ndarray, y: np.ndarray, grid: GridSpec, base_ocsvm: OcsvmParams, base_forest: ForestParams
) -> tuple[tuple[float, float, int], np.ndarray]:
    """Pick (gamma, nu, n_trees) by mean binary F3 over stratified folds.

    Returns the pick and the F3 of every cell on every fold, a
    (gammas, nus, tree_counts, folds) array whose flattened leading axes
    follow ``grid.cells()``. Each (fold, gamma, nu) fits the cascade once,
    at the largest tree count, and filters the test fold through stage 1
    once; each tree count is scored on the first trees of that forest,
    which are the forest it would grow on its own.
    A fit that is unusable scores 0.0 at every tree count. Ties break
    toward fewer trees, then larger nu, then smaller gamma: the cheaper
    and more conservative model. The fold split depends only on
    ``base_forest.rng_seed``.
    """
    from . import metrics as metrics_mod

    forest_params = replace(base_forest, n_trees=max(grid.tree_counts))
    folds = _stratified_folds(y, grid.folds, np.random.default_rng(base_forest.rng_seed))
    f3 = np.zeros((len(grid.gammas), len(grid.nus), len(grid.tree_counts), grid.folds))
    for f, test_idx in enumerate(folds):
        train_idx = np.delete(np.arange(len(y)), test_idx)  # not np.setdiff1d: numpy.ma
        X_test, y_test = X[test_idx], y[test_idx]
        for (i, gamma), (j, nu) in itertools.product(enumerate(grid.gammas), enumerate(grid.nus)):
            stage1_params = replace(base_ocsvm, nu=nu, gamma=gamma)
            try:
                model = train(X[train_idx], y[train_idx], stage1_params, forest_params)
            except (DegenerateTrainingError, InfeasibleNuError) as exc:
                # unusable fit: the filter ate all failures, or nu*n < 1
                logger.warning("grid gamma=%g nu=%g fold %d unusable: %s", gamma, nu, f, exc)
                continue
            g = ocsvm_mod.decision(model.ocsvm, X_test)
            for k, n_trees in enumerate(grid.tree_counts):
                preds, _ = _cascade(forest_mod.first_trees(model.forest, n_trees), X_test, g)
                f3[i, j, k, f] = metrics_mod.binary_f3(metrics_mod.confusion(preds, y_test))
    ranks = [(-m, b, -nu, gamma) for (gamma, nu, b), m in zip(grid.cells(), f3.mean(-1).flat)]
    return grid.cells()[ranks.index(min(ranks))], f3


def _bundle_texts(model: CascadeModel) -> dict[str, str]:
    """The text of each bundle file, by name."""
    import io

    stage1, stage2 = io.StringIO(), io.StringIO()
    ocsvm_mod.save(model.ocsvm, stage1)
    forest_mod.save(model.forest, stage2)
    return {
        BUNDLE_OCSVM: stage1.getvalue(),
        BUNDLE_FOREST: stage2.getvalue(),
        BUNDLE_LAYOUT: model.feature_config.layout_json(),
        BUNDLE_MANIFEST: json.dumps(model.manifest, indent=1, sort_keys=True),
    }


def save_bundle(model: CascadeModel, out_dir: Path) -> None:
    """Write the model as a directory of versioned text/JSON artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in _bundle_texts(model).items():
        (out_dir / name).write_text(text)


def _open_part(bundle: Path, name: str) -> TextIO:
    """One file of a bundle directory, or of a ``save_archive`` zip, as text."""
    if bundle.is_dir():
        return open(bundle / name)
    import io
    import zipfile
    import zlib

    try:
        with zipfile.ZipFile(bundle) as archive:
            return io.TextIOWrapper(io.BytesIO(archive.read(name)))
    # zlib.error: a damaged compressed stream
    except (zipfile.BadZipFile, KeyError, zlib.error):
        raise ModelFormatError(
            f"{bundle}: not a bundle directory or a readable zip holding {name}"
        ) from None


def _load_part(bundle: Path, name: str, loader):
    with _open_part(bundle, name) as f:
        try:
            return loader(f)
        # ValueError: bad JSON, or bytes that are not text
        except (ModelFormatError, ValueError) as exc:
            raise ModelFormatError(f"{bundle / name}: {exc}") from None


def load_bundle(bundle: Path) -> CascadeModel:
    """Read a bundle directory or a ``train --archive`` zip of one.

    A malformed file raises ModelFormatError naming it. So does a
    forest.txt whose width is not a whole number of 12-feature lags, a
    manifest whose format, feature entries, forest parameters or
    ocsvm.gamma disagree with the stage files, a layout.json other than
    the stages' feature layout, and an ocsvm.txt whose alphas are not all
    in (0, C], C = 1/(nu*n) for the manifest's ocsvm.nu and
    data.class_counts[0], or sum to more than ALPHA_SUM_TOL away from 1.
    """
    bundle = Path(bundle)
    stage1 = _load_part(bundle, BUNDLE_OCSVM, ocsvm_mod.load)
    stage2 = _load_part(bundle, BUNDLE_FOREST, forest_mod.load)
    try:
        feature_config = FeatureConfig.of_width(stage2.dim)
    except ConfigError as exc:
        raise ModelFormatError(f"{bundle / BUNDLE_FOREST}: {exc}") from None
    manifest = _load_part(bundle, BUNDLE_MANIFEST, json.load)
    # what the manifest must state, as the stage files say it
    implied = {"format": _MANIFEST_FORMAT, "feature.lags": feature_config.lags,
               "feature.dim": feature_config.dim, "ocsvm.gamma": stage1.gamma}
    implied.update((f"forest.{k}", v) for k, v in asdict(stage2.params).items())
    for key, value in implied.items():
        try:
            stated = manifest
            for part in key.split("."):
                stated = stated[part]
        except (KeyError, TypeError):
            raise ModelFormatError(f"{bundle / BUNDLE_MANIFEST}: no {key}") from None
        if stated != value:
            raise ModelFormatError(
                f"{bundle / BUNDLE_MANIFEST}: {key} is {stated!r}, the stage files say {value!r}"
            )
    try:
        C = 1.0 / (manifest["ocsvm"]["nu"] * manifest["data"]["class_counts"][0])
    except (KeyError, IndexError, TypeError, ArithmeticError):
        raise ModelFormatError(f"{bundle / BUNDLE_MANIFEST}: no ocsvm.nu or class_counts") from None
    low, high, total = (float(f(stage1.alphas)) for f in (np.min, np.max, np.sum))
    if not (0.0 < low and high <= C and abs(total - 1.0) <= ALPHA_SUM_TOL):
        raise ModelFormatError(
            f"{bundle / BUNDLE_OCSVM}: alphas from {low!r} to {high!r} sum to {total!r};"
            f" they must be in (0, C = {C!r}] and sum to 1 within {ALPHA_SUM_TOL:g}"
        )
    model = CascadeModel(ocsvm=stage1, forest=stage2, manifest=manifest)
    layout = _load_part(bundle, BUNDLE_LAYOUT, lambda f: f.read())
    if layout != feature_config.layout_json():
        raise ModelFormatError(f"{bundle / BUNDLE_LAYOUT}: not the layout of dim {stage2.dim}")
    return model


def save_archive(model: CascadeModel, archive_path: Path) -> None:
    """Single-file zip of the bundle with fixed metadata, so bytes reproduce."""
    import zipfile

    with zipfile.ZipFile(archive_path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, text in _bundle_texts(model).items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, text)
