"""Loss terms, optimizer, schedules, and the deterministic training loop.

The objective combines the forecast error with two regularizers: a
log-barrier on consecutive log-frequency gaps (keeps learned frequencies
from collapsing onto each other) and the hidden-space reconstruction
error (keeps the bases spanning the signal).  Fixed-prior models swap
the gap barrier for an orthogonality penalty on per-frequency features,
since their frequencies cannot move.  ``LossWeights`` holds the two
regularizer weights; the barrier's gap shift is ``DIVERSITY_EPSILON``.

Training is bit-reproducible for a given seed: batch order, selection
noise, and initialization all derive from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .atomic import atomic_write
from .autodiff import Tensor, backward
from .model import ForwardOutput, FreqLens, check_integers, check_seed
from .stats import compute_metrics

__all__ = [
    "LossWeights",
    "NonFiniteGradientError",
    "TrainConfig",
    "EpochRecord",
    "TrainLog",
    "prediction_loss",
    "diversity_loss",
    "orthogonality_loss",
    "reconstruction_loss",
    "weighted_total",
    "total_loss",
    "Adam",
    "schedules",
    "evaluate_mse",
    "train",
]


# the gap barrier's shift inside its logarithm: positive, so equal frequencies
# give a finite barrier; 1e-3 and 1e-9 train the acceptance recipe alike
DIVERSITY_EPSILON = 1e-6


@dataclass
class LossWeights:
    lambda_div: float = 0.01
    lambda_recon: float = 0.1

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not value >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass
class TrainConfig:
    epochs: int = 50
    base_lr: float = 1e-3
    freq_lr_multiplier: float = 5.0
    batch_size: int = 32
    patience: int = 10
    tau_start: float = 1.0  # training selection temperature, annealed linearly to tau_end
    tau_end: float = 0.1
    seed: int = 0  # a nonnegative int64, never a bool, as ModelConfig's

    def __post_init__(self):
        counts = ("epochs", "patience", "batch_size")
        check_integers(self, *counts)
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("tau_start", "tau_end"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("base_lr", "freq_lr_multiplier"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        check_seed(self.seed)


@dataclass
class EpochRecord:
    epoch: int
    loss_pred: float
    loss_div: float
    loss_recon: float
    loss_total: float
    val_mse: float
    tau: float
    lr: float
    frequencies: list[float]


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        import json

        return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in self.records)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_jsonl())

    def save_csv(self, path) -> None:
        """The loss curves: one row per record of its scalar fields (every ``EpochRecord`` field but the frequencies)."""
        columns = [f.name for f in fields(EpochRecord) if f.name != "frequencies"]
        with atomic_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for r in self.records:
                writer.writerow([getattr(r, name) for name in columns])


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def prediction_loss(y_hat: Tensor, target) -> Tensor:
    """Mean squared forecast error ``mean((y_hat - target)^2)`` as one node.

    ``target`` is a constant.  The rule is the chain rule of the
    subtract -> square -> mean graph: each element's share
    ``g / count`` times ``2 (y_hat - target)``, the same products as
    that graph's, so the gradient keeps its bytes.  The fixed-prior
    orthogonality penalty reads it too, with the identity as target.
    """
    target = np.asarray(target, dtype=np.float64)
    try:
        diff = y_hat.data - target
    except ValueError:
        raise ValueError(f"prediction_loss: shapes {y_hat.shape} and {target.shape} are not broadcastable") from None
    squared = diff * diff
    count = squared.size

    def backward_fn(g):
        g_diff = 2.0 * diff
        g_diff *= g / count
        return (ad._unbroadcast(g_diff, y_hat.shape),)

    return ad.node(squared.mean(), (y_hat,), backward_fn)


def diversity_loss(freqs: Tensor) -> Tensor:
    """Log-barrier on consecutive gaps in sorted log-frequency space.

    -(1/(N-1)) * sum_j ln(ln f_(j+1) - ln f_(j) + eps), eps being
    ``DIVERSITY_EPSILON``.  Working on log frequencies makes the penalty
    ratio-invariant: pairs (0.01, 0.02) and (0.1, 0.2) are penalized
    identically.  Duplicates give a finite barrier of -ln(eps).  The log
    frequencies are sorted by a constant ``np.argsort`` permutation; NaN
    or nonpositive frequencies raise ``ValueError``.

    One node over ``freqs``.  Its rule is the chain rule of the op-by-op
    graph (log, sort, consecutive differences, shift, log, mean,
    negate) in that graph's order: each gap's gradient is scattered to
    its upper and lower log frequency, and the sum is scattered back
    through the permutation with ``+=``, so the gradient keeps the
    graph's bytes.
    """
    if freqs.size < 2:
        raise ValueError("diversity loss needs at least two frequencies")
    f = freqs.data
    if not np.all(f > 0):  # also rejects NaN
        raise ValueError("diversity loss needs positive frequencies")
    order = np.argsort(f, kind="stable")
    logs = np.log(f)[order]
    shifted = (logs[1:] - logs[:-1]) + DIVERSITY_EPSILON

    def backward_fn(g):
        g_gaps = (-g / shifted.size) / shifted
        # each log frequency's gaps: 0 - (gap above) + (0 + gap below), a
        # sum that is never -0.0, so writing it through the permutation is
        # the ``+=`` into zeros of the graph
        g_logs = np.zeros_like(logs)
        g_logs[:-1] -= g_gaps
        g_logs[1:] += g_gaps + 0.0
        g_f = np.empty_like(f)
        g_f[order] = g_logs
        g_f /= f
        return (g_f,)

    return ad.node(-np.log(shifted).mean(), (freqs,), backward_fn)


def orthogonality_loss(features: Tensor) -> Tensor:
    """Mean squared deviation of the row-similarity matrix from identity.

    Rows are l2-normalized (with a 1e-8 floor); mutually orthogonal rows
    give exactly zero.
    """
    norms = ad.clip(ad.sqrt(ad.square(features).sum(axis=1, keepdims=True)), 1e-8, np.inf)
    unit = features / norms
    gram = ad.matmul(unit, ad.transpose(unit))
    return prediction_loss(gram, np.eye(features.shape[0]))


def total_loss(model: FreqLens, output: ForwardOutput, target: np.ndarray,
               weights: LossWeights) -> tuple[Tensor, dict[str, float]]:
    """Prediction MSE plus diversity/orthogonality and reconstruction.

    ``output`` is a forward pass of ``model``.  A fixed-prior model
    replaces the frequency-gap barrier with the orthogonality penalty on
    batch-averaged per-frequency coefficients at the hidden width,
    ``input_coefficients.mean(axis=0) @ input_proj`` [N, d].  The
    reconstruction term is the mean squared error of the rebuilt
    ``bases^T coefficients`` against the hidden features ``h = x W``
    (``W`` the model's input projection, ``d`` wide).  Both are ``r W``
    apart, with ``r = bases^T input_coefficients - x`` the input-space residual, so
    with ``r`` flattened to ``[B*L, C]`` the term is
    ``sum((r^T r) * (W W^T)) / (B*L*d)`` (``reconstruction_loss``):
    nothing ``[B, L, d]`` is built.  Returns the scalar loss and its components as plain floats.
    """
    pred = prediction_loss(output.y_hat, target)
    if model.config.prior_periods is not None:
        reg = orthogonality_loss(ad.matmul(output.input_coefficients.mean(axis=0), model.input_proj))
    elif output.frequencies.size >= 2:
        reg = diversity_loss(output.frequencies)
    else:
        reg = Tensor(0.0)  # a single frequency has no gaps to keep apart
    recon = reconstruction_loss(output.input_coefficients, output.bases, output.inputs, model.input_proj)
    total = weighted_total(pred, reg, recon, weights)
    components = {
        "pred": float(pred.data),
        "div": float(reg.data),
        "recon": float(recon.data),
        "total": float(total.data),
    }
    return total, components


def weighted_total(pred: Tensor, reg: Tensor, recon: Tensor, weights: LossWeights) -> Tensor:
    """``pred + lambda_div * reg + lambda_recon * recon`` as one node, summed left to right.

    Each term's gradient is the upstream gradient times its weight (1
    for ``pred``), the products the graph of two multiplies and two adds
    formed.
    """
    lambda_div, lambda_recon = weights.lambda_div, weights.lambda_recon

    def backward_fn(g):
        return g, g * lambda_div, g * lambda_recon

    value = pred.data + reg.data * lambda_div + recon.data * lambda_recon
    return ad.node(value, (pred, reg, recon), backward_fn)


def reconstruction_loss(xc: Tensor, psi_bar: Tensor, x: Tensor, w: Tensor) -> Tensor:
    """Hidden-space reconstruction error ``sum((r^T r) * (W W^T)) / (B*L*d)``, one node.

    ``r = psi_bar^T xc - x`` is the input-space residual of the window
    ``x`` [B, L, C] rebuilt from its coefficients ``xc`` [B, N, C] on
    the bases ``psi_bar`` [N, L], flattened to [B*L, C]; ``W`` [C, d] is
    the input projection.  The rule runs the chain rule of the op-by-op
    graph (rebuild, subtract, two Gram products, product, sum, divide)
    with ``matmul``'s own gradient rules, in that graph's order, so the
    gradients of ``xc``, ``psi_bar`` and ``W`` keep its bytes.  ``x`` is
    an input and takes no gradient.
    """
    channels, width = w.shape
    psi_t = psi_bar.data.T
    r = (ad._matmul_value(psi_t, xc.data) - x.data).reshape((-1, channels))
    gram_r = ad._matmul_value(r.T, r)  # [C, C]
    gram_w = ad._matmul_value(w.data, w.data.T)  # [C, C]
    count = float(r.shape[0] * width)
    tracked_r = xc.requires_grad or psi_bar.requires_grad

    def backward_fn(g):
        g_prod = g / count  # every entry of the [C, C] product's gradient
        g_xc = g_psi = g_w = None
        if w.requires_grad:
            g_w, g_wt = ad._matmul_grads(w.data, w.data.T, g_prod * gram_r, True, True)
            g_w = g_w + g_wt.T
        if tracked_r:
            g_rt, g_r = ad._matmul_grads(r.T, r, g_prod * gram_w, True, True)
            g_rec = (g_r + g_rt.T).reshape(x.shape)
            g_psi_t, g_xc = ad._matmul_grads(psi_t, xc.data, g_rec, psi_bar.requires_grad, xc.requires_grad)
            g_psi = None if g_psi_t is None else g_psi_t.T
        return g_xc, g_psi, None, g_w

    return ad.node((gram_r * gram_w).sum() / count, (xc, psi_bar, x, w), backward_fn)


# ---------------------------------------------------------------------------
# optimizer and schedules
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """A gradient holds NaN or inf: a numeric failure, not a usage error."""


class Adam:
    """Adam with a differential learning rate for the frequency parameters.

    The frequency group (bank raw parameters and phases) steps with
    ``freq_lr_multiplier`` times the current learning rate.  A missing
    gradient counts as zero, so a parameter that never receives one
    keeps ``m`` and ``v`` at 0 and its update is exactly 0.0: training
    hands over every model parameter, and the frozen ones (a fixed-prior
    bank, whose theta and phase are untracked, and ``fusion_logit``
    under ``force_alpha``) keep their bytes.

    The optimizer packs every parameter it is given into one float64
    vector that it owns, and each parameter's ``data`` becomes a view
    of its slice.  The moments ``m`` and ``v``, the gathered gradient
    and the per-element learning-rate scale are vectors of the same
    layout, so a step is one finiteness check and one in-place update
    of the whole vector.  Parameters must therefore be written in place
    (``p.data[...] = value``) while the optimizer is in use: a step
    refuses a parameter whose ``data`` was rebound.
    """

    def __init__(self, named_params: Iterable[tuple[str, Tensor]],
                 freq_param_names: frozenset[str] = frozenset(),
                 freq_lr_multiplier: float = 5.0):
        self.params = list(named_params)
        self.t = 0
        self.flat = np.empty(sum(p.size for _, p in self.params))
        self.grad = np.zeros_like(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.lr_scale = np.ones_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))  # a step's temporaries
        self.slices, self._views, self._grad_views = [], [], []
        offset = 0
        for name, p in self.params:
            sl = slice(offset, offset + p.size)
            offset = sl.stop
            view = self.flat[sl].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self.slices.append(sl)
            self._views.append(view)
            self._grad_views.append(self.grad[sl].reshape(p.shape))
            if name in freq_param_names:
                self.lr_scale[sl] = freq_lr_multiplier

    def step(self, grads: dict[int, np.ndarray], lr: float) -> None:
        """One update of every parameter, or none.

        Every gradient is checked before any state changes, so a
        non-finite gradient or a rebound parameter leaves the
        parameters, moments and step count as they were.
        """
        for (name, p), view, gview in zip(self.params, self._views, self._grad_views):
            if p.data is not view:
                raise ValueError(
                    f"parameter {name!r} was rebound after the optimizer packed it; "
                    f"write it in place (p.data[...] = value)"
                )
            g = grads.get(p.node_id)
            if g is None:
                gview.fill(0.0)
            else:
                np.copyto(gview, g)
        g = self.grad
        if not np.isfinite(g).all():
            bad = next(name for (name, _), sl in zip(self.params, self.slices)
                       if not np.isfinite(g[sl]).all())
            raise NonFiniteGradientError(f"non-finite gradient for parameter {bad!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        # step = lr * lr_scale * (m / bc1) / (sqrt(v / bc2) + eps), every
        # product in that order, written into the two scratch vectors
        a, b = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        np.multiply(self.lr_scale, lr, out=a)
        np.divide(m, bc1, out=b)
        a *= b
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        self.flat -= a


def schedules(epoch: int, total_epochs: int, config: TrainConfig) -> tuple[float, float]:
    """Cosine-annealed learning rate and linearly annealed temperature."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    if total_epochs == 1:
        return config.base_lr, config.tau_start
    frac = epoch / (total_epochs - 1)
    lr = config.base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
    tau = config.tau_start + (config.tau_end - config.tau_start) * frac
    return lr, tau


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def evaluate_mse(model: FreqLens, dataset) -> float:
    """Mean squared forecast error over a window set, in evaluation mode."""
    y_hat = np.concatenate([out.y_hat.data for out in model.forward_batches(dataset[0])])
    return compute_metrics(y_hat, dataset[1]).mse


def train(model: FreqLens, train_data, val_data, config: TrainConfig,
          weights: LossWeights | None = None) -> tuple[FreqLens, TrainLog]:
    """Optimize the model, early-stopping on validation MSE.

    Keeps the best-validation snapshot and restores it before
    returning; stops after ``patience`` consecutive epochs without
    improvement.  A non-finite loss aborts with a diagnostic of the
    epoch, batch, and loss components.
    """
    weights = LossWeights() if weights is None else weights
    x_train, y_train = np.asarray(train_data[0]), np.asarray(train_data[1])
    x_val, y_val = np.asarray(val_data[0]), np.asarray(val_data[1])
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("train and validation sets must be nonempty")

    shuffle_rng, gumbel_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    optimizer = Adam(
        model.parameters(),
        freq_param_names=FreqLens.frequency_parameter_names(),
        freq_lr_multiplier=config.freq_lr_multiplier,
    )

    log = TrainLog()
    best_mse = math.inf
    best_state = model.state_dict()
    bad_epochs = 0
    n = x_train.shape[0]

    for epoch in range(config.epochs):
        lr, tau = schedules(epoch, config.epochs, config)
        order = shuffle_rng.permutation(n)
        sums: dict[str, float] = {}  # loss component name -> sum over the epoch's batches
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            out = model.forward(x_train[idx], training=True, tau=tau, rng=gumbel_rng)
            loss, comps = total_loss(model, out, y_train[idx], weights)
            if not math.isfinite(comps["total"]):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: {comps}"
                )
            grads = backward(loss)
            optimizer.step(grads, lr)
            for key, value in comps.items():
                sums[key] = sums.get(key, 0.0) + value
            n_batches += 1

        val_mse = evaluate_mse(model, (x_val, y_val))
        log.records.append(
            EpochRecord(
                epoch=epoch,
                **{f"loss_{key}": total / n_batches for key, total in sums.items()},
                val_mse=val_mse,
                tau=tau,
                lr=lr,
                frequencies=[float(f) for f in model.bank.frequencies().data],
            )
        )
        if val_mse < best_mse:
            best_mse = val_mse
            best_state = model.state_dict()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    model.load_state_dict(best_state)
    return model, log
