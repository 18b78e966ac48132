"""Forecasting model with learnable frequency bases and additive attribution.

Pipeline per window: decompose the input onto N learnable cosine bases,
score each basis's coefficient and select the top-K, map the K selected
coefficients to the hidden width, let one bias-free head per selected
frequency produce an independent contribution, and fuse the exact sum
of those contributions with a residual MLP through a learned gate.

The hidden-width coefficients are ``psi_bar @ (x @ input_proj)``, the
projection of the hidden features onto the bases.  The maps are linear
and bias-free, so every pass reassociates them: it projects the input,
``xc = psi_bar @ x`` [B, N, C], scores every basis with the scorer's
first layer folded into the projection, ``xc @ (input_proj @ scorer_w1)``,
and builds ``xc @ input_proj`` for the K selected rows alone.  No pass
builds the [B, L, d] hidden features or the [B, N, d] coefficients.
The scorer, the K heads and the residual are each one ``relu_mlp``
node, which applies its ReLU in place, and the gate's fusion
``alpha * y_freq + (1 - alpha) * y_res`` is one node, ``gate_mix``.

The strict additivity of the frequency path is the structural guarantee
behind attribution: contributions sum exactly to the frequency
prediction (completeness), removing one changes it by exactly its own
contribution (faithfulness), a zero coefficient yields a zero
contribution because every head is bias-free (null frequency), and
identical heads on identical coefficients agree (symmetry).
"""

from __future__ import annotations

import io
import json
import warnings
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .atomic import atomic_write
from .autodiff import Tensor

SCORER_HIDDEN = 32
EVAL_BATCH = 256  # windows per evaluation forward, in training's validation as everywhere else
# bytes of the head output in one sample block of ``FreqLens.masked_forward``,
# a quarter of a 2 MiB L2 cache: every row reads the block back from there
_MASKED_BLOCK_BYTES = 512 * 1024

__all__ = [
    "check_integers",
    "check_seed",
    "ModelConfig",
    "FrequencyBank",
    "ForwardOutput",
    "AttributionReport",
    "FreqLens",
    "init_frequency_bank",
    "build_bases",
    "project",
    "apply_heads",
    "selection_weights",
    "straight_through",
    "gate_mix",
    "save_checkpoint",
    "load_checkpoint",
]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integers(config, *names) -> None:
    """A ``ValueError`` naming the first field ``names`` lists that is a bool or not an ``int`` or ``np.integer``."""
    for name in names:
        if not _is_integer(getattr(config, name)):
            raise ValueError(f"{name} must be an integer, got {getattr(config, name)!r}")


def check_seed(seed):
    """``seed`` if it is a nonnegative int64 and not a bool, else a ``ValueError`` naming it.

    A seed seeds NumPy and names a run's files.  The rule is shared by
    ``ModelConfig``, ``TrainConfig`` and the seed a checkpoint stores.
    """
    if not _is_integer(seed) or not 0 <= seed < 2**63:
        raise ValueError(f"seed must be a nonnegative int64, got {seed!r}")
    return seed


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    L: input window length (steps); H: forecast horizon (steps);
    C: channels; d: hidden width; N: number of frequency bases;
    K: selected frequencies per sample.
    """

    L: int = 96
    H: int = 96
    C: int = 7
    d: int = 64
    N: int = 32
    K: int = 8
    prior_periods: tuple[float, ...] | None = None  # one period (steps) per basis pins the bank; None: learnable
    seed: int = 0  # a nonnegative int64, never a bool: it seeds the weights and names a run's files
    force_alpha: float | None = None  # pin the fusion gate (1.0 = frequency path only)

    def __post_init__(self):
        check_integers(self, "L", "H", "C", "d", "N", "K")
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        if self.H < 1 or self.C < 1 or self.d < 1:
            raise ValueError("H, C and d must be positive")
        if not 1 <= self.K <= self.N:
            raise ValueError(f"need 1 <= K <= N, got K={self.K}, N={self.N}")
        if self.prior_periods is not None:
            self.prior_periods = tuple(float(p) for p in self.prior_periods)
            if len(self.prior_periods) != self.N:
                raise ValueError(f"prior_periods needs one period per basis: N={self.N}, got {len(self.prior_periods)}")
            if not all(p > 2.0 for p in self.prior_periods):
                raise ValueError(f"prior periods must exceed 2 steps (Nyquist), got {list(self.prior_periods)}")
        if self.force_alpha is not None and not 0.0 <= self.force_alpha <= 1.0:
            raise ValueError("force_alpha must lie in [0, 1]")
        check_seed(self.seed)


def _frequency_range(L: int) -> tuple[float, float]:
    """Bounds (f_min, f_max) of the bank: the longest period 10 L, the Nyquist frequency."""
    return 1.0 / (10.0 * L), 0.5


class FrequencyBank:
    """Raw frequency parameters and the bounded sigmoid mapping.

    f_i = f_min + (f_max - f_min) * sigmoid(theta_i), with (f_min, f_max)
    from ``_frequency_range``.  The sigmoid keeps every frequency strictly
    inside (f_min, f_max) with nonzero gradient everywhere, unlike hard
    clamping.  A fixed-prior bank's theta/phase are untracked constants
    and its frequencies equal 1/period exactly for the configured periods.
    """

    def __init__(self, theta: Tensor, phase: Tensor, L: int, fixed_freqs: np.ndarray | None = None):
        self.theta = theta
        self.phase = phase
        self.f_min, self.f_max = _frequency_range(L)
        self.fixed_freqs = fixed_freqs

    def frequencies(self) -> Tensor:
        """The bank's frequencies [N], one node over ``theta``.

        The sigmoid is clamped away from {0, 1}, so the mapped frequency
        stays strictly inside (f_min, f_max) even when float64
        saturates; a clamped entry passes no gradient.  The rule runs
        the chain rule of sigmoid -> clip -> scale -> shift in that
        order, so the gradient is the four-op graph's, byte for byte.
        """
        if self.fixed_freqs is not None:
            return Tensor(self.fixed_freqs)
        lo, hi = 1e-15, np.nextafter(1.0, 0.0)
        scale = self.f_max - self.f_min
        gate = ad._logistic(self.theta.data)
        inside = (gate >= lo) & (gate <= hi)

        def backward_fn(g):
            g_gate = g * scale * inside
            return (g_gate * gate * (1.0 - gate),)

        return ad.node(np.clip(gate, lo, hi) * scale + self.f_min, (self.theta,), backward_fn)


def init_frequency_bank(config: ModelConfig) -> FrequencyBank:
    """Build the bank with log-uniform targets (or fixed prior periods).

    Without ``prior_periods`` the bank is learnable: N target frequencies
    spread log-uniformly over [1/L, 0.5], and the sigmoid mapping is
    inverted so the initial frequencies reproduce them; phases start at 0.
    """
    if config.prior_periods is not None:
        theta = Tensor(np.zeros(config.N), requires_grad=False)
        phase = Tensor(np.zeros(config.N), requires_grad=False)
        return FrequencyBank(theta, phase, config.L, fixed_freqs=1.0 / np.array(config.prior_periods))

    lo, hi = np.log(1.0 / config.L), np.log(0.5)
    if config.N == 1:
        targets = np.array([np.exp(0.5 * (lo + hi))])
    else:
        targets = np.exp(np.linspace(lo, hi, config.N))
    f_min, f_max = _frequency_range(config.L)
    t = (targets - f_min) / (f_max - f_min)
    t = np.minimum(t, np.nextafter(1.0, 0.0))  # top target touches f_max; keep logit finite
    theta = Tensor(np.log(t / (1.0 - t)), requires_grad=True)
    phase = Tensor(np.zeros(config.N), requires_grad=True)
    return FrequencyBank(theta, phase, config.L)


def build_bases(freqs: Tensor, phases: Tensor, L: int) -> Tensor:
    """Unit-l2-norm cosine bases psi_i(t) / ||psi_i|| [N, L], t = 0..L-1.

    psi_i(t) = cos(2 pi f_i t + phi_i).  Near-zero rows (only possible
    for pathological phases) are floored at 1e-8 with a diagnostic
    instead of dividing by ~0, and a floored norm passes no gradient.
    Every pass reuses the bases while the bank is unchanged, so the
    diagnostic fires once per bank state, not once per forward.

    One node over ``freqs`` and ``phases``.  Its rule runs the chain
    rule of angle -> cos -> norm -> divide in the order the op-by-op
    graph ran it: the quotient's share of ``d psi`` first, then the
    norm's, so the gradients are that graph's, byte for byte.
    """
    n = freqs.size
    t = np.arange(L, dtype=np.float64)
    angle = freqs.data.reshape((n, 1)) * t * (2.0 * np.pi) + phases.data.reshape((n, 1))
    psi = np.cos(angle)
    roots = np.sqrt((psi * psi).sum(axis=1, keepdims=True))
    norms, kept = roots, None
    if np.any(roots < 1e-8):
        warnings.warn("near-zero cosine basis row; flooring its norm at 1e-8")
        norms, kept = np.clip(roots, 1e-8, np.inf), (roots >= 1e-8) & (roots <= np.inf)

    def backward_fn(g):
        g_psi = -g * psi
        g_psi /= norms * norms
        g_norms = g_psi.sum(axis=1, keepdims=True)
        if kept is not None:
            g_norms = g_norms * kept
        g_roots = g_norms * (0.5 / roots)
        np.multiply(psi, 2.0, out=g_psi)
        g_psi *= g_roots
        g_psi += g / norms
        np.negative(g_psi, out=g_psi)
        g_angle = np.sin(angle)
        g_angle *= g_psi
        g_freqs = g_phases = None
        if freqs.requires_grad:
            np.multiply(g_angle, 2.0 * np.pi, out=g_psi)
            g_psi *= t
            g_freqs = g_psi.sum(axis=1).reshape(freqs.shape)
        if phases.requires_grad:
            g_phases = g_angle.sum(axis=1).reshape(phases.shape)
        return g_freqs, g_phases

    return ad.node(psi / norms, (freqs, phases), backward_fn)


def project(x: Tensor, psi_bar: Tensor) -> Tensor:
    """Coefficients of a signal on the normalized bases.

    c_i = sum_t psi_bar_i(t) * x[:, t, :]  (unit norms, so the
    projection denominator is 1), computed as one batched matmul
    ``psi_bar [N, L] @ x [B, L, C] -> [B, N, C]``.  The model projects
    the raw input window and maps the result to the hidden width after.
    """
    return ad.matmul(psi_bar, x)


@dataclass
class ForwardOutput:
    """Everything one forward pass produces, on the live tape.

    ``inputs``, ``input_coefficients`` and ``bases`` are kept so the
    training loss can measure the reconstruction error itself; the
    forward pass never builds the reconstruction.  No pass builds the
    hidden features ``inputs @ input_proj`` or the hidden-width
    coefficients ``input_coefficients @ input_proj`` of all N bases:
    the heads read those of the K selected bases alone.

    Outputs of one bank state share the same ``bases`` and
    ``frequencies`` tensors (see ``FreqLens._bases``): read them, never
    write them.
    """

    y_hat: Tensor  # [B, H, C]
    y_freq: Tensor  # [B, H, C], exact sum of contributions
    y_res: Tensor  # [B, H, C]
    alpha: Tensor  # scalar gate in (0, 1)
    selected: np.ndarray  # [B, K] basis indices, slot k = k-th largest score
    contributions: Tensor  # [B, K, H, C]
    inputs: Tensor  # [B, L, C] input window (a constant)
    input_coefficients: Tensor  # [B, N, C] = bases @ inputs
    bases: Tensor  # [N, L] unit-norm bases the coefficients were projected on
    frequencies: Tensor  # [N]


@dataclass
class AttributionReport:
    """Per-frequency attribution of one batch."""

    selected: np.ndarray  # [B, K] basis indices
    frequencies: np.ndarray  # [B, K] cycles/step
    periods_steps: np.ndarray  # [B, K] 1/frequency
    contributions: np.ndarray  # [B, K, H, C]
    magnitudes: np.ndarray  # [B, K] l2 norm per contribution
    alpha: float
    y_freq: np.ndarray  # [B, H, C]
    y_res: np.ndarray  # [B, H, C]


def _gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.clip(rng.uniform(size=shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def _xavier(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Glorot-uniform draw; the last two sizes are fan-in and fan-out.

    A leading size stacks independent matrices in one draw, which reads
    the same random stream as drawing them one after another.
    """
    fan_in, fan_out = shape[-2:]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def apply_heads(c_sel: Tensor, w1: Tensor, w2: Tensor, out_shape: tuple[int, int]) -> Tensor:
    """K bias-free ReLU heads in one batched pass: c_sel [B, K, d] -> [B, K, *out_shape].

    Slot k computes ``relu(c_sel[:, k] @ w1[k]) @ w2[k]`` with its own
    weights ``w1 [K, d, d]`` and ``w2 [K, d, H*C]``; the K slots run as
    one matmul pair batched over a leading K axis.
    """
    b, k, _ = c_sel.shape
    out = ad.relu_mlp(ad.transpose(c_sel, (1, 0, 2)), w1, w2)  # [K, B, H*C]
    return ad.transpose(out, (1, 0, 2)).reshape((b, k, *out_shape))


def selection_weights(scores: Tensor, noise: np.ndarray, tau: float) -> Tensor:
    """Tempered softmax of the noisy scores, ``softmax((scores + noise) / tau)`` [B, N], as one node.

    ``noise`` is a constant and ``tau`` a positive number.  The value is
    the shift-stabilized ``e / e.sum(-1)`` with ``e = exp(z - max z)``,
    ``z = (scores + noise) / tau``.  The rule is the chain rule of the
    add -> divide -> softmax graph in its order: softmax's rule (the
    quotient's two shares of ``e``'s gradient summed, then multiplied by
    ``e``), divided by ``tau``; the add passes that on unchanged.
    """
    z = (scores.data + noise) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    total = e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        g_total = -g * e
        g_total /= total * total
        g_e = g / total
        g_e += g_total.sum(axis=-1, keepdims=True)
        g_e *= e
        g_e /= tau
        return (g_e,)

    return ad.node(e / total, (scores,), backward_fn)


def straight_through(contributions: Tensor, weights: Tensor, selected: np.ndarray) -> Tensor:
    """``contributions * (w_sel - w_sel.detach() + 1)`` as one node, ``w_sel`` gathered from ``weights``.

    ``w_sel = weights[b, selected[b, k]]`` [B, K] is the selection
    weight of each slot, gathered from ``weights`` [B, N] at the
    constant indices ``selected``.  The weight's forward value is
    exactly 1, so the value is exactly ``contributions`` for finite
    weights, and the prediction-loss gradient still reaches
    ``weights`` through the product.  The rule is the gather and
    six-op graph's, in its order, and scatters with ``gather_rows``'
    own rule.
    """
    b, k = selected.shape
    w_sel = weights.data[np.arange(b)[:, None], selected]
    ones = ((w_sel - w_sel) + 1.0).reshape((b, k, 1, 1))

    def backward_fn(g):
        g_weights = None
        if weights.requires_grad:
            g_w = (g * contributions.data).sum(axis=(2, 3))  # over H and C
            g_weights = ad._scatter_rows(g_w, selected, weights.shape)
        return g * ones if contributions.requires_grad else None, g_weights

    return ad.node(contributions.data * ones, (contributions, weights), backward_fn)


def gate_mix(alpha: Tensor, y_freq: Tensor, y_res: Tensor) -> Tensor:
    """The fused forecast ``alpha * y_freq + (1 - alpha) * y_res`` as one node.

    ``alpha`` is the scalar gate, tracked or the constant ``force_alpha``.
    The rule runs the products of the mul -> sub -> mul -> add graph in
    its order: ``y_res``'s share of ``alpha``'s gradient, negated, then
    plus ``y_freq``'s, so the gradient reaching ``alpha`` keeps its bytes.
    """
    a = alpha.data
    one_minus = 1.0 - a

    def backward_fn(g):
        g_alpha = None
        if alpha.requires_grad:
            g_alpha = -ad._unbroadcast(g * y_res.data, alpha.shape)
            g_alpha = g_alpha + ad._unbroadcast(g * y_freq.data, alpha.shape)
        return (
            g_alpha,
            ad._unbroadcast(g * a, y_freq.shape) if y_freq.requires_grad else None,
            ad._unbroadcast(g * one_minus, y_res.shape) if y_res.requires_grad else None,
        )

    return ad.node(a * y_freq.data + one_minus * y_res.data, (alpha, y_freq, y_res), backward_fn)


class FreqLens:
    """The full model: projection, bank, scorer, heads, residual, gate.

    All linear maps are bias-free.  The heads must be: a bias-free
    ReLU MLP maps a zero coefficient to a zero contribution for any
    weights, which is what makes the null-frequency axiom hold exactly.
    It also makes head outputs positively homogeneous in the
    coefficient.

    Parameters are only mutated by the optimizer (single-threaded per
    run); a model that is not being trained is read-only and safe to
    share across threads for inference.  Every pass reuses the bases
    while ``theta`` and ``phase`` are unchanged; the only state a pass
    writes is that cache, which it reads once and replaces in one
    assignment, so concurrent evaluation passes stay safe.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.bank = init_frequency_bank(c)
        self.input_proj = Tensor(_xavier(rng, c.C, c.d), requires_grad=True)
        self.scorer_w1 = Tensor(_xavier(rng, c.d, SCORER_HIDDEN), requires_grad=True)
        self.scorer_w2 = Tensor(_xavier(rng, SCORER_HIDDEN, 1), requires_grad=True)
        self.scorer_bias = Tensor(np.zeros(c.N), requires_grad=True)
        self.head_w1 = Tensor(_xavier(rng, c.K, c.d, c.d), requires_grad=True)
        self.head_w2 = Tensor(_xavier(rng, c.K, c.d, c.H * c.C), requires_grad=True)
        self.residual_w1 = Tensor(_xavier(rng, c.L * c.C, c.d), requires_grad=True)
        self.residual_w2 = Tensor(_xavier(rng, c.d, c.H * c.C), requires_grad=True)
        self.fusion_logit = Tensor(0.0, requires_grad=True)  # sigmoid(0) = 0.5
        self._bases_cache: tuple[tuple[bytes, bytes], Tensor, Tensor] | None = None  # see _bases

    # -- parameter bookkeeping ----------------------------------------------
    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("bank.theta", self.bank.theta),
            ("bank.phase", self.bank.phase),
            ("input_proj", self.input_proj),
            ("scorer.w1", self.scorer_w1),
            ("scorer.w2", self.scorer_w2),
            ("scorer.bias", self.scorer_bias),
            ("heads.w1", self.head_w1),
            ("heads.w2", self.head_w2),
            ("residual.w1", self.residual_w1),
            ("residual.w2", self.residual_w2),
            ("fusion_logit", self.fusion_logit),
        ]

    @staticmethod
    def frequency_parameter_names() -> frozenset[str]:
        return frozenset({"bank.theta", "bank.phase"})

    def parameter_counts(self) -> dict[str, int]:
        groups = {
            "input_proj": ("input_proj",),
            "frequency_bank": ("bank.",),
            "scorer": ("scorer.",),
            "heads": ("heads.",),
            "residual": ("residual.",),
            "fusion": ("fusion_logit",),
        }
        counts = {
            g: sum(p.size for n, p in self.parameters() if n.startswith(prefixes))
            for g, prefixes in groups.items()
        }
        counts["total"] = sum(counts.values())
        return counts

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, copy=True) for name, p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.parameters())
        if set(state) != set(params):
            missing = set(params) - set(state)
            extra = set(state) - set(params)
            raise ValueError(f"state dict mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        values = {name: np.asarray(value, dtype=np.float64) for name, value in state.items()}
        for name, value in values.items():
            if value.shape != params[name].shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {params[name].shape}")
        for name, value in values.items():
            params[name].data[...] = value  # in place: an optimizer's packed views stay bound

    # -- forward pieces -------------------------------------------------------
    def _bases(self) -> tuple[Tensor, Tensor]:
        """The bank's frequencies [N] and unit-norm bases [N, L].

        They depend on ``theta`` and ``phase`` alone, so every pass that
        encodes (training, evaluation, ``frequency_pass``) reuses the pair
        the last pass built while the exact bytes of both are unchanged.  A
        value key sees every write: the optimizer's and
        ``load_state_dict``'s in-place updates as well as a rebound
        ``.data``.  A reused pair is the node that was built from those
        bytes, with the live parameters as its parents, so a training
        pass backpropagates through it exactly as through a fresh one.
        """
        bank = self.bank
        key = (bank.theta.data.tobytes(), bank.phase.data.tobytes())
        cached = self._bases_cache  # one read: a concurrent store swaps the whole tuple
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        freqs = bank.frequencies()
        psi_bar = build_bases(freqs, bank.phase, self.config.L)
        self._bases_cache = (key, freqs, psi_bar)
        return freqs, psi_bar

    def score_and_select(self, input_coefficients: Tensor, training: bool, tau: float | None = None,
                         rng: np.random.Generator | None = None) -> tuple[np.ndarray, Tensor | None]:
        """Score each basis from its input coefficients [B, N, C] and pick the top-K scores per sample.

        Scores are a shared bias-free MLP of each hidden-width
        coefficient ``xc @ input_proj`` plus a per-basis offset.  The
        MLP's first layer is folded into the input projection, so one
        ``relu_mlp`` over the [B*N, C] rows computes
        ``relu(xc @ (input_proj @ scorer_w1)) @ scorer_w2`` and no
        [B, N, d] array is built.  Slot k of the returned indices [B, K]
        holds the k-th highest score.  Evaluation selects from the
        scores and returns no weights.  Training adds Gumbel(0,1) noise
        from ``rng``, selects from the noisy scores, and also returns
        their tempered softmax [B, N] for the straight-through weights.
        """
        cfg = self.config
        first_layer = ad.matmul(self.input_proj, self.scorer_w1)  # [C, hidden]
        scores = ad.relu_mlp(input_coefficients, first_layer, self.scorer_w2)
        scores = scores.reshape((input_coefficients.shape[0], cfg.N)) + self.scorer_bias
        weights = None
        if training:
            if tau is None or rng is None:
                raise ValueError("training selection requires a temperature tau and an rng for Gumbel noise")
            if tau <= 0:
                raise ValueError(f"temperature must be positive, got {tau}")
            noise = _gumbel_noise(rng, scores.shape)
            weights = selection_weights(scores, noise, tau)
            ranked = scores.data + noise
        else:
            ranked = scores.data
        selected = np.argsort(-ranked, axis=1, kind="stable")[:, : cfg.K]
        return selected, weights

    def _head_inputs(self, input_coefficients: Tensor, selected: np.ndarray) -> Tensor:
        """Hidden-width coefficients [B, K, d] of the selected bases: ``xc[b, selected[b]] @ input_proj``."""
        return ad.matmul(ad.gather_rows(input_coefficients, selected), self.input_proj)

    def head_contribution(self, c_sel: Tensor) -> Tensor:
        """Contributions [B, K, H, C] of the K heads; head k reads c_sel[:, k] of c_sel [B, K, d]."""
        return apply_heads(c_sel, self.head_w1, self.head_w2, (self.config.H, self.config.C))

    def _residual(self, x: Tensor) -> Tensor:
        cfg = self.config
        flat = x.reshape((x.shape[0], cfg.L * cfg.C))
        return ad.relu_mlp(flat, self.residual_w1, self.residual_w2).reshape((x.shape[0], cfg.H, cfg.C))

    def gate(self) -> Tensor:
        """Fusion weight alpha: sigmoid(fusion_logit), or the pinned ``force_alpha``."""
        if self.config.force_alpha is not None:
            return Tensor(self.config.force_alpha)
        return ad.sigmoid(self.fusion_logit)

    def _windows(self, x, caller: str) -> np.ndarray:
        """``x`` as float64 windows [B, L, C]; any other shape raises a ValueError naming ``caller``."""
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != cfg.L or x.shape[2] != cfg.C:
            raise ValueError(f"{caller}: expected input [B, {cfg.L}, {cfg.C}], got {x.shape}")
        return x

    def _frequency_path(self, xt: Tensor, training: bool, tau: float | None = None,
                        rng: np.random.Generator | None = None):
        """Encode (``xc = psi_bar @ x`` [B, N, C]) -> select -> heads, the one chain every selecting pass runs.

        Returns (freqs, psi_bar, xc, selected, weights, contributions);
        ``weights`` is None in evaluation (see ``score_and_select``).
        """
        freqs, psi_bar = self._bases()
        xc = project(xt, psi_bar)
        selected, weights = self.score_and_select(xc, training, tau, rng)
        contributions = self.head_contribution(self._head_inputs(xc, selected))
        return freqs, psi_bar, xc, selected, weights, contributions

    def frequency_pass(self, x) -> np.ndarray:
        """Evaluation contributions [B, K, H, C] of ``x``, and nothing else.

        The frequency path of an evaluation ``forward``, byte for byte
        and in the same memory layout, without the residual, the sum
        over slots or the gate.  The returned array is this call's own:
        no tape or other output holds it once the call returns.
        """
        xt = Tensor(self._windows(x, "frequency_pass"))
        return self._frequency_path(xt, training=False)[-1].data

    def forward(self, x, training: bool = False, tau: float | None = None,
                rng: np.random.Generator | None = None) -> ForwardOutput:
        """One pass: decompose, select, attribute, fuse.

        A training pass needs the selection temperature ``tau`` and the
        ``rng`` of its Gumbel noise; evaluation reads neither.  During
        training each contribution is multiplied by a straight-through
        weight whose forward value is exactly 1: the selection weights
        receive prediction-loss gradient without perturbing the additive
        identity in any mode.
        """
        xt = Tensor(self._windows(x, "forward"))
        freqs, psi_bar, xc, selected, weights, contributions = self._frequency_path(xt, training, tau, rng)
        if training:
            contributions = straight_through(contributions, weights, selected)
        y_freq = contributions.sum(axis=1)

        y_res = self._residual(xt)
        alpha = self.gate()
        y_hat = gate_mix(alpha, y_freq, y_res)
        return ForwardOutput(
            y_hat=y_hat,
            y_freq=y_freq,
            y_res=y_res,
            alpha=alpha,
            selected=selected,
            contributions=contributions,
            inputs=xt,
            input_coefficients=xc,
            bases=psi_bar,
            frequencies=freqs,
        )

    def forward_batches(self, x):
        """Evaluation ``forward`` over ``x`` in batches of ``EVAL_BATCH`` windows, one output per batch."""
        for start in range(0, x.shape[0], EVAL_BATCH):
            yield self.forward(x[start : start + EVAL_BATCH], training=False)

    def masked_forward(self, contributions: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Slot-masked sums of ``contributions`` [B, K, H, C], one per mask in ``keep`` [S, B, K] -> [S, B, H, C].

        ``contributions`` is the float64 head output of an evaluation
        pass, and row s sums the slots with ``keep[s, b, k]`` true.  Each
        head reads its own slot's coefficient only, so masking its output
        removes the slot and no head runs again.  An all-true row
        reproduces the forward's y_freq bit for bit (same reduction over
        slots), an all-false row is exactly zero, and a dropped slot is
        excluded exactly even when its contribution is not finite.  Each
        row zeroes its dropped slots in place, sums and puts them back,
        so the array, which must be writable, holds its bytes again on
        return, and the only [S, ...] array is the returned one.  The
        rows walk the contributions in blocks of samples that hold at
        most ``_MASKED_BLOCK_BYTES`` of them, so every row of a block
        reads it from cache; a block in which no sample keeps a slot is
        written as zeros without a reduction.
        """
        cfg = self.config
        contributions = np.asarray(contributions)
        keep = np.asarray(keep)
        if contributions.dtype != np.float64 or contributions.shape[1:] != (cfg.K, cfg.H, cfg.C):
            shape = f"[B, {cfg.K}, {cfg.H}, {cfg.C}], got {contributions.dtype} {contributions.shape}"
            raise ValueError(f"masked_forward: expected float64 contributions {shape}")
        b = contributions.shape[0]
        if keep.dtype != np.bool_ or keep.ndim != 3 or keep.shape[1:] != (b, cfg.K):
            shape = f"[S, {b}, {cfg.K}], got {keep.dtype} {keep.shape}"
            raise ValueError(f"masked_forward: expected a bool slot mask {shape}")
        # Row s is contributions.sum(axis=1) with the dropped slots zeroed
        # in place.  A sample that keeps no slot saves nothing and is
        # written as 0.0, what the sum of zeros gives.  Summing the
        # caller's array itself keeps forward's y_freq bit for bit,
        # because NumPy's summation order over the slot axis follows the
        # strides (a C-ordered copy can sum differently, e.g. when
        # H * C == 1).  A block's slice keeps those strides and so that
        # order, except that a block of one sample with H * C == 1
        # reduces its lone slot vector pairwise, so then every block
        # takes at least two samples.
        masked = np.empty((keep.shape[0], b, cfg.H, cfg.C))
        kept = keep.any(axis=2)  # [S, B]: samples that keep a slot
        dropped = ~keep & kept[..., None]
        least = 2 if cfg.H * cfg.C == 1 else 1
        per_block = max(least, _MASKED_BLOCK_BYTES // contributions[0].nbytes)
        bounds = [*range(0, max(b - least + 1, 1), per_block), b]  # a lone last sample joins the block before
        for start, stop in zip(bounds, bounds[1:]):
            block = contributions[start:stop]
            for keeps, drop, out in zip(kept[:, start:stop], dropped[:, start:stop], masked[:, start:stop]):
                if keeps.any():
                    saved = block[drop]
                    block[drop] = 0.0
                    block.sum(axis=1, out=out)
                    block[drop] = saved
                    del saved  # freed before the next row saves its own
        masked[~kept] = 0.0
        return masked

    def attribute(self, output: ForwardOutput) -> AttributionReport:
        """Per-frequency attribution: exactly the head contributions."""
        freqs = output.frequencies.data
        sel_freqs = freqs[output.selected]
        contrib = np.array(output.contributions.data, copy=True)
        mags = np.sqrt((contrib ** 2).sum(axis=(2, 3)))
        return AttributionReport(
            selected=output.selected.copy(),
            frequencies=sel_freqs,
            periods_steps=1.0 / sel_freqs,
            contributions=contrib,
            magnitudes=mags,
            alpha=float(output.alpha.data),
            y_freq=np.array(output.y_freq.data, copy=True),
            y_res=np.array(output.y_res.data, copy=True),
        )


# ---------------------------------------------------------------------------
# checkpoint container: zip of .npy arrays plus a JSON manifest, written
# with fixed timestamps so identical models serialize to identical bytes
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 4


def save_checkpoint(model: FreqLens, path, seed: int | None = None) -> None:
    manifest = {
        "format_version": _CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "seed": seed,
        "arrays": [name for name, _ in model.parameters()],
    }
    with atomic_write(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as zf:
        def put(name: str, payload: bytes) -> None:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, payload)

        put("manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode())
        for name, p in model.parameters():
            buf = io.BytesIO()
            np.save(buf, p.data)
            put(f"arrays/{name}.npy", buf.getvalue())


def load_checkpoint(path) -> tuple[FreqLens, int]:
    """Model and seed from a checkpoint written by ``save_checkpoint``.

    A checkpoint saved without a seed reads as its ``ModelConfig.seed``;
    a stored seed must pass ``check_seed``.

    Anything that is not a readable checkpoint -- a missing file, a
    directory, a file that is not a zip, manifest JSON that does not
    parse or lacks a field, an array the manifest names but the archive
    lacks, a config or array that does not fit the model -- raises one
    ``ValueError`` naming ``path``.
    """
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not a JSON object")
            if manifest.get("format_version") != _CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {manifest.get('format_version')}")
            missing = {"config", "arrays"} - set(manifest)
            if missing:
                raise ValueError(f"manifest lacks {sorted(missing)}")
            model = FreqLens(ModelConfig(**manifest["config"]))
            stored = set(zf.namelist())
            state = {}
            for name in manifest["arrays"]:
                member = f"arrays/{name}.npy"
                if member not in stored:
                    raise ValueError(f"manifest names array {name!r}, but the archive has no {member}")
                state[name] = np.load(io.BytesIO(zf.read(member)))
            model.load_state_dict(state)
            seed = manifest.get("seed")
            seed = model.config.seed if seed is None else check_seed(seed)
    except (OSError, zipfile.BadZipFile, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot load checkpoint {path}: {exc}") from exc
    return model, seed
