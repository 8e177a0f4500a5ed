"""One-class SVM with RBF kernel, trained on normal instances only.

Solves the nu-parameterized one-class dual

    min 0.5 * a' K a   s.t.  0 <= a_i <= 1/(nu*n),  sum a = 1

with SMO-style two-coordinate updates picking the maximal violating pair.
The decision function is g(x) = sum_i a_i k(sv_i, x) - rho; a point is an
anomaly when g(x) < 0, i.e. outside the learned support of normal data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ConfigError, ConvergenceError, InfeasibleNuError, ModelFormatError, ParseError
from .tables import Rule, read_body, write_rows
from .trace_model import N_FEATURES

MODEL_FORMAT = "ocsvm-model v1"
_HEADER_KEYS = ("gamma", "rho", "dim", "support_vectors")
#: the most SMO updates a fit may take before it raises ConvergenceError
MAX_ITER = 1_000_000


@dataclass(frozen=True)
class OcsvmParams:
    nu: float = 0.05
    gamma: float = 1.0 / N_FEATURES
    tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError(f"nu must be in (0, 1], got {self.nu}")
        # a gamma or tol outside (0, inf) leaves SMO no violation it can get below tol
        if not 0.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")


@dataclass
class OcsvmModel:
    """Trained model: only the support vectors (alpha > 0) are kept.

    Invariants: sum(alphas) == 1 and 0 < alpha_i <= 1/(nu*n) for the
    training size n the model came from.
    """

    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    gamma: float

    @property
    def n_support(self) -> int:
        return len(self.alphas)


def _rbf(A, a_sq, B, b_sq, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for each row a of A and b of B, given their squared norms."""
    # in place, so that at most two (len(A), len(B)) arrays live at once; each step
    # rounds as a_sq + b_sq - 2.0 * (A @ B.T) does
    P = A @ B.T
    P *= 2.0
    d2 = np.add(a_sq[:, None], b_sq[None, :])
    d2 -= P
    del P
    np.maximum(d2, 0.0, out=d2)
    # d2 >= 0 and gamma is finite, so the product can only overflow to -inf, whose
    # exp, 0, is the exact limit
    with np.errstate(over="ignore"):
        d2 *= -gamma
    return np.exp(d2, out=d2)


def train(normals: np.ndarray, params: OcsvmParams) -> OcsvmModel:
    """Fit the one-class boundary to normal-labeled feature vectors.

    Raises InfeasibleNuError when nu*n < 1 and ConvergenceError when the
    maximal violating pair still exceeds the tolerance after MAX_ITER
    updates, or at once when its violation is NaN.
    """
    X = np.ascontiguousarray(normals, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training data must be a non-empty (n, d) array")
    n = len(X)
    nu = params.nu
    if nu * n < 1.0:
        raise InfeasibleNuError(f"nu*n = {nu * n:.4f} < 1 with n={n}")
    C = 1.0 / (nu * n)

    alpha = np.zeros(n)
    k = int(nu * n)
    alpha[:k] = C
    if k < n:
        alpha[k] = 1.0 - k * C

    sq = np.einsum("ij,ij->i", X, X)

    # grad = K @ alpha, built from the initially nonzero coordinates
    grad = np.zeros(n)
    nonzero = np.nonzero(alpha)[0]
    for lo in range(0, len(nonzero), 512):
        idx = nonzero[lo : lo + 512]
        grad += alpha[idx] @ _rbf(X[idx], sq[idx], X, sq, params.gamma)

    violation = np.inf
    for _ in range(MAX_ITER):
        gi = np.where(alpha < C, grad, np.inf)
        gj = np.where(alpha > 0.0, grad, -np.inf)
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        violation = gj[j] - gi[i]
        if violation <= params.tol:
            break
        if np.isnan(violation):
            raise ConvergenceError("KKT violation is NaN: a kernel value is not finite",
                                   kkt_violation=float(violation))

        # two one-row blocks, not one two-row block, whose BLAS product may round differently
        row_i = _rbf(X[i : i + 1], sq[i : i + 1], X, sq, params.gamma)[0]
        row_j = _rbf(X[j : j + 1], sq[j : j + 1], X, sq, params.gamma)[0]
        eta = 2.0 - 2.0 * row_i[j]
        limit = min(C - alpha[i], alpha[j])
        if eta > 1e-12:
            delta = min((grad[j] - grad[i]) / eta, limit)
        else:
            delta = limit
        if delta <= 0.0:
            break  # numerically stuck; KKT check below decides

        new_i = alpha[i] + delta
        new_j = alpha[j] - delta
        # snap to the box, so a coordinate at a bound holds exactly 0 or C
        if new_i >= C:
            new_i = C
        if new_j <= 0.0:
            new_j = 0.0
        delta = new_i - alpha[i]
        alpha[i], alpha[j] = new_i, new_j
        grad += delta * (row_i - row_j)
    else:
        raise ConvergenceError(
            f"no convergence after {MAX_ITER} iterations "
            f"(KKT violation {violation:.3e} > tol {params.tol:.3e})",
            kkt_violation=float(violation),
        )
    if violation > params.tol:
        raise ConvergenceError(
            f"solver stalled (KKT violation {violation:.3e} > tol {params.tol:.3e})",
            kkt_violation=float(violation),
        )

    rho = _estimate_rho(grad, alpha, C)
    sv = alpha > 0.0
    model = OcsvmModel(
        support_vectors=X[sv].copy(),
        alphas=alpha[sv].copy(),
        rho=rho,
        gamma=params.gamma,
    )
    return model


def _estimate_rho(grad: np.ndarray, alpha: np.ndarray, C: float) -> float:
    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        return float(grad[free].mean())
    lo = grad[alpha >= C].max() if np.any(alpha >= C) else None
    hi = grad[alpha <= 0.0].min() if np.any(alpha <= 0.0) else None
    if lo is not None and hi is not None:
        return float((lo + hi) / 2.0)
    return float(lo if lo is not None else hi)


#: rows per block of ``decision``: bounds its (rows, support vectors) working
#: arrays, and is a multiple of 24, so blocks start where the gemm kernel's
#: tiles of a whole batch start (OpenBLAS 0.3.31 on AVX-512 steps through
#: rows 12 at a time; 2,048-row blocks round some rows differently)
_BLOCK_ROWS = 1008


def decision(model: OcsvmModel, x: np.ndarray) -> np.ndarray:
    """g(x) = sum_i alpha_i k(sv_i, x) - rho for each row of an (m, d) batch.

    Rows go in blocks of 1,008, so memory does not grow with the batch, and
    the last block also takes the rows left over. A short block would go
    down another BLAS path (gemv for one row, small-matrix kernels for a
    few) and round differently. With one BLAS thread, every block is then
    tiled as the whole batch would be, and the decisions are bit-identical
    to one unblocked product.
    """
    X = np.asarray(x, dtype=float)
    sv = model.support_vectors
    if X.ndim != 2 or X.shape[1] != sv.shape[1]:
        raise ValueError(f"expected an (m, {sv.shape[1]}) batch, got shape {X.shape}")
    sv_sq = np.einsum("ij,ij->i", sv, sv)
    out = np.empty(len(X))
    edges = [b * _BLOCK_ROWS for b in range(max(1, len(X) // _BLOCK_ROWS))] + [len(X)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = X[lo:hi]
        x_sq = np.einsum("ij,ij->i", block, block)
        out[lo:hi] = _rbf(block, x_sq, sv, sv_sq, model.gamma) @ model.alphas - model.rho
    return out


def save(model: OcsvmModel, out: TextIO) -> None:
    """Versioned flat text; floats use shortest round-trip form so decisions reload bit-exactly."""
    dim = model.support_vectors.shape[1]
    out.write(MODEL_FORMAT + "\n")
    out.write("# decision(x) = sum_i alpha[i]*exp(-gamma*||sv[i]-x||^2) - rho\n")
    out.write("# anomaly iff decision(x) < 0\n")
    out.write(f"gamma {model.gamma!r}\n")
    out.write(f"rho {model.rho!r}\n")
    out.write(f"dim {dim}\n")
    out.write(f"support_vectors {model.n_support}\n")
    write_rows(out, " ".join(["%r"] * (1 + dim)) + "\n", model.alphas, model.support_vectors)


def load(source: TextIO) -> OcsvmModel:
    """Read an ``ocsvm-model v1`` file; anything else raises ModelFormatError.

    ``source`` is a seekable text file. Lines starting with ``#`` are
    comments. The header's support-vector count must match the body,
    every row must hold an alpha and dim coordinates, every number must be
    finite, and gamma must be positive.
    """
    lines = enumerate(iter(source.readline, ""), 1)
    rows = ((no, ln.split()) for no, ln in lines if not ln.startswith("#"))
    head = list(itertools.islice(((no, parts) for no, parts in rows if parts), 5))
    if not head or " ".join(head[0][1]) != MODEL_FORMAT:
        raise ModelFormatError(f"not an {MODEL_FORMAT!r} file")
    header = [parts for _, parts in head[1:]]
    if [(p[0], len(p)) for p in header] != [(k, 2) for k in _HEADER_KEYS]:
        raise ModelFormatError(f"the header needs {', '.join(_HEADER_KEYS)} lines")
    try:
        gamma, rho = float(header[0][1]), float(header[1][1])
        dim, n_sv = int(header[2][1]), int(header[3][1])
    except ValueError as exc:
        raise ModelFormatError(f"bad header value ({exc})") from None
    if not (np.isfinite(rho) and np.isfinite(gamma) and gamma > 0.0):
        raise ModelFormatError(f"gamma {gamma!r} and rho {rho!r} must be finite, gamma > 0")
    if dim < 1 or n_sv < 1:
        raise ModelFormatError(f"dim {dim} and support_vectors {n_sv} must be positive")
    dtype = np.dtype([("alpha", np.float64), ("sv", np.float64, (dim,))])
    try:
        table = read_body(source, head[-1][0], dtype, _finite_rule, delimiter=None, comments="#")
    except ParseError as exc:
        raise ModelFormatError(str(exc)) from None
    if len(table) != n_sv:
        raise ModelFormatError(f"header lists {n_sv} support vectors, file has {len(table)}")
    return OcsvmModel(
        support_vectors=table["sv"].copy(), alphas=table["alpha"].copy(), rho=rho, gamma=gamma
    )


def _finite_rule(table: np.ndarray) -> list[Rule]:
    finite = np.isfinite(table["alpha"]) & np.isfinite(table["sv"]).all(axis=1)
    return [(~finite, lambda i: "non-finite value")]
