"""Post-hoc interpretation: period discovery, baselines, and attribution checks.

Learned frequencies are read as periods (1/f), matched against known
physical cycles, and compared with classical FFT peak detection.  The
attribution side is verified two ways: a perturbation test that
recomputes predictions with frequencies removed, and an exact Shapley
oracle that enumerates every coalition; for the additive frequency path
both must agree with the raw contributions.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor
from .model import FreqLens, apply_heads

__all__ = [
    "PeriodMatch",
    "KnownPeriodSummary",
    "SeedDiscovery",
    "DiscoveryReport",
    "FaithfulnessResult",
    "AxiomCheck",
    "AlphaSummary",
    "periods_from_frequencies",
    "match_known_periods",
    "fft_peak_detection",
    "shapley_bruteforce",
    "faithfulness_test",
    "alpha_report",
    "selection_counts",
    "build_discovery_report",
    "verify_axioms",
    "export_spectrum_csv",
]


# ---------------------------------------------------------------------------
# periods and matching
# ---------------------------------------------------------------------------

def periods_from_frequencies(freqs) -> np.ndarray:
    """Periods in steps, 1/f."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    return 1.0 / freqs


@dataclass
class PeriodMatch:
    known_period: float
    basis_index: int  # position of the learned period in the list matched against
    learned_period: float
    relative_error: float
    matched: bool


def match_known_periods(learned, known, delta: float = 0.15) -> list[PeriodMatch]:
    """Pair each known period with its own learned period.

    Pairs are taken in ascending relative error |learned - known| / known,
    each joining a known period not yet paired to a learned period not yet
    taken.  So a learned period that is the closest of two known periods
    goes to the one it is relatively closer to, and the other takes its
    closest remaining learned period.  A pair counts as a match when its
    error is below ``delta``.  A known period left over when the learned
    periods run out is reported against its closest learned period,
    unmatched, so no learned period is matched twice.  Both lists must
    share a unit (steps or physical); matching is scale-invariant, so
    either works as long as it is consistent.
    """
    learned = np.asarray(learned, dtype=np.float64)
    if learned.size == 0:
        raise ValueError("no learned periods to match")
    known = np.asarray(known, dtype=np.float64)
    errors = np.abs(learned[None, :] - known[:, None]) / known[:, None]  # [known, learned]
    paired: dict[int, int] = {}
    for pair in np.argsort(errors, axis=None, kind="stable"):  # ties: earlier known, then earlier learned
        j, i = divmod(int(pair), learned.size)
        if j not in paired and i not in paired.values():
            paired[j] = i
    out = []
    for j, k in enumerate(known):
        i = paired.get(j, int(np.argmin(errors[j])))
        err = float(errors[j, i])
        out.append(PeriodMatch(float(k), i, float(learned[i]), err, j in paired and err < delta))
    return out


# ---------------------------------------------------------------------------
# FFT baseline
# ---------------------------------------------------------------------------

def fft_peak_detection(series, top_k: int = 2) -> list[float]:
    """Dominant periods by amplitude-spectrum peaks.

    The series is mean-removed, the DFT amplitude spectrum is scanned
    for interior local maxima (bin amplitude strictly above both
    neighbors, DC excluded), and the periods T/k of the ``top_k``
    largest peaks are returned (amplitude ties broken toward longer
    periods).  Recovers integer-cycle cosine periods exactly when the
    series length is a multiple of the period.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    if x.size < 4:
        raise ValueError("need at least 4 samples for peak detection")
    x = x - x.mean()
    amp = np.abs(np.fft.rfft(x))
    peaks = [k for k in range(1, amp.size - 1) if amp[k] > amp[k - 1] and amp[k] > amp[k + 1]]
    peaks.sort(key=lambda k: (-amp[k], k))
    return [x.size / k for k in peaks[:top_k]]


# ---------------------------------------------------------------------------
# exact Shapley oracle
# ---------------------------------------------------------------------------

# bytes of one [2^K, cols] coalition-value block in ``shapley_bruteforce``,
# about half an L2 cache: the 2^K-row table is read back once per block
_TABLE_BYTES = 512 * 1024


@functools.lru_cache(maxsize=None)
def _coalitions(k_players: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership [2^K, K] of every coalition and Shapley coefficients [K, 2^K].

    Row T of the membership matrix flags the players of coalition T (bit
    f of T set = player f in T).  The coefficient of v(T) in phi_f is
    +w(|T|-1) when f is in T and -w(|T|) when it is not, with
    w(s) = s! (K-s-1)! / K!, so phi = coef @ v sums the weighted marginal
    gains w(|T|) (v(T + f) - v(T)) over every coalition T without f.
    """
    masks = np.arange(2 ** k_players)
    members = (masks[:, None] >> np.arange(k_players)) & 1
    size = members.sum(axis=1)
    fact = math.factorial
    weight = np.array(
        [fact(s) * fact(k_players - s - 1) / fact(k_players) for s in range(k_players)] + [0.0]
    )
    coef = np.where(members.T == 1, weight[size - 1], -weight[size])
    return members.astype(np.float64), coef


def shapley_bruteforce(contributions) -> np.ndarray:
    """Exact Shapley values of the coalition game over frequency contributions.

    ``contributions`` is [K, ...], one tensor per player (K >= 1).  The
    game is array-valued: the value of a coalition T is the element-wise
    sum of its members' contribution tensors, so each element is its own
    game.  All 2^K coalition values are computed and weighted by
    |T|! (K-|T|-1)! / K! through one [K, 2^K] coefficient matrix; K is
    capped at 12.  The elements run in equal column blocks whose
    [2^K, cols] coalition-value table holds at most ``_TABLE_BYTES``
    (512 KiB: 256 columns at K = 8, 16 at K = 12), so the table stays in
    cache as 2^K grows instead of reaching 2^K x elements; every block
    still evaluates all 2^K coalitions.  For this additive game the
    Shapley value of each player is its own contribution, which
    ``verify_axioms`` checks.
    """
    contribs = np.asarray(contributions, dtype=np.float64)
    if contribs.ndim == 0 or contribs.shape[0] == 0:
        raise ValueError(f"shapley_bruteforce needs contributions of shape [K >= 1, ...], got shape {contribs.shape}")
    k_players = contribs.shape[0]
    if k_players > 12:
        raise ValueError(f"exact enumeration is limited to K <= 12, got K={k_players}")

    members, coef = _coalitions(k_players)
    flat = contribs.reshape(k_players, -1)
    elements = flat.shape[1]
    phi = np.empty_like(flat)
    # Blocks of equal width (to one column), never a lone one-column tail:
    # BLAS sums a single column in another order than a wide block.
    n_blocks = max(1, math.ceil(elements / (_TABLE_BYTES // (8 * len(members)))))
    bounds = [elements * i // n_blocks for i in range(n_blocks + 1)]
    table = np.empty((len(members), math.ceil(elements / n_blocks)))
    for start, stop in zip(bounds, bounds[1:]):
        sums = table[:, : stop - start]  # v of each coalition in the block, one row per coalition
        np.matmul(members, flat[:, start:stop], out=sums)
        np.matmul(coef, sums, out=phi[:, start:stop])
    return phi.reshape(contribs.shape)


# ---------------------------------------------------------------------------
# faithfulness perturbation test
# ---------------------------------------------------------------------------

@dataclass
class FaithfulnessResult:
    k: int
    mean_abs_change: float  # of the fused prediction (includes the gate)
    mean_abs_change_freq_path: float
    attribution_impact_correlation: float
    n_samples: int


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; degenerate (constant) inputs count as perfectly aligned."""
    a = a.ravel()
    b = b.ravel()
    if a.std() == 0.0 or b.std() == 0.0:
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def _leave_one_out(b: int, k: int) -> np.ndarray:
    """Slot masks [1+K, B, K] for ``masked_forward``: row 0 keeps every slot, row 1+k drops slot k."""
    rows = np.concatenate([np.ones((1, k), dtype=bool), ~np.eye(k, dtype=bool)])
    return np.broadcast_to(rows[:, None, :], (k + 1, b, k))


def _samples(inputs, max_samples: int | None = None) -> np.ndarray:
    """The first ``max_samples`` windows of ``inputs`` (all if None) as float64; empty inputs are rejected."""
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[:1] == (0,):
        raise ValueError(f"no input windows: inputs have shape {x.shape}")
    return x[:max_samples]


def _attributed(model: FreqLens, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Selection [B, K], gate value and attribution magnitudes [B, K] of ``x``.

    The selection and contributions come from ``frequency_pass`` and the
    gate from ``model.gate()``, so no residual, ``y_freq`` or fused
    prediction is built.  The contributions, which this call owns, are
    squared in place and freed before the masked recomputation runs.
    """
    selected, contributions = model.frequency_pass(x)
    squares = np.square(contributions, out=contributions)
    return selected, float(model.gate().data), np.sqrt(squares.sum(axis=(2, 3)))


def _removals(rows: np.ndarray, k: int):
    """Yield (f, rows[0] - rows[1+f]) for each slot f of a leave-one-out set (``_leave_one_out``).

    The removals run one at a time through one [B, H, C] buffer, which
    the caller may overwrite before taking the next, so no [K, B, H, C]
    difference is built.
    """
    diff = np.empty_like(rows[0])
    for f in range(k):
        yield f, np.subtract(rows[0], rows[1 + f], out=diff)


def _removal_impacts(rows: np.ndarray, alpha: float, k: int) -> np.ndarray:
    """Fused-prediction impact l2 norms [B, K] of each single removal.

    The impact of slot f in sample b is alpha * ||rows[0, b] - rows[1+f, b]||.
    """
    sq_norms = np.empty((k, rows.shape[1]))
    for f, diff in _removals(rows, k):
        np.square(diff, out=diff)
        diff.sum(axis=(1, 2), out=sq_norms[f])
    return alpha * np.sqrt(sq_norms).T


def per_frequency_impacts(model: FreqLens, inputs, max_samples: int = 64) -> tuple[np.ndarray, np.ndarray, float]:
    """Removal impact of each selected frequency, by masked recomputation.

    Returns (attribution magnitudes [B, K], fused-prediction impact l2
    norms [B, K], gate value) over the first ``max_samples`` (>= 1)
    windows.  For the additive path the impact of frequency f is
    exactly gate * ||contribution(f)||.  One ``frequency_pass`` gives
    the selection and magnitudes, and one ``masked_forward`` call with
    a leave-one-out mask recomputes the full frequency prediction and
    every single removal for the whole batch.
    """
    x = _samples(inputs, max_samples)
    selected, alpha, mags = _attributed(model, x)
    rows = model.masked_forward(x, selected, _leave_one_out(*selected.shape))
    return mags, _removal_impacts(rows, alpha, selected.shape[1]), alpha


def faithfulness_test(model: FreqLens, inputs, k_list, max_samples: int = 64) -> list[FaithfulnessResult]:
    """Remove the top-k attributed frequencies and measure prediction change.

    Frequencies are ranked per sample by attribution magnitude; the
    fused-prediction change of removing the top k is
    gate * (M(S) - M(S minus top-k)).  The reported correlation pools
    per-frequency attribution magnitudes against their individual
    removal impacts, which the additive structure forces to be
    perfectly linear.  The first ``max_samples`` (>= 1) windows take
    one ``frequency_pass``, which gives the selection and magnitudes
    (the gate is ``model.gate()``; no residual or fused prediction is
    built), and one ``masked_forward`` call: its rows are the
    leave-one-out set of ``per_frequency_impacts`` (the full set, then
    each single removal) followed by one "top-k removed" mask per
    distinct k (sizes above K collapse onto K).
    """
    k_effs = list(dict.fromkeys(min(int(k), model.config.K) for k in k_list))
    if not k_effs or any(k < 0 for k in k_effs):
        raise ValueError(f"removal sizes must be a nonempty list of nonnegative sizes, got {list(k_list)}")
    x = _samples(inputs, max_samples)
    selected, alpha, mags = _attributed(model, x)
    b, k = selected.shape
    ranked = np.argsort(-mags, axis=1, kind="stable")  # slots, strongest first
    rank = np.argsort(ranked, axis=1)  # rank of each slot
    top_k_removed = rank[None] >= np.array(k_effs, dtype=np.int64)[:, None, None]
    rows = model.masked_forward(x, selected, np.concatenate([_leave_one_out(b, k), top_k_removed]))
    correlation = _pearson(mags, _removal_impacts(rows, alpha, k))
    freq_delta = np.empty_like(rows[0])
    results = []
    for k_eff, row in zip(k_effs, rows[1 + k :]):
        np.subtract(rows[0], row, out=freq_delta)
        # per-sample mean absolute change, then the mean over samples
        fused = np.abs(alpha * freq_delta).mean(axis=(1, 2))
        freq = np.abs(freq_delta).mean(axis=(1, 2))
        results.append(
            FaithfulnessResult(
                k=k_eff,
                mean_abs_change=float(fused.mean()),
                mean_abs_change_freq_path=float(freq.mean()),
                attribution_impact_correlation=correlation,
                n_samples=b,
            )
        )
    return results


# ---------------------------------------------------------------------------
# discovery and gate reports
# ---------------------------------------------------------------------------

@dataclass
class AlphaSummary:
    values: list[float]
    mean: float
    std: float


def alpha_report(models) -> AlphaSummary:
    """Fusion-gate values across trained models (mean and population std)."""
    values = [float(model.gate().data) for model in models]
    if not values:
        raise ValueError("need at least one model")
    return AlphaSummary(values, float(np.mean(values)), float(np.std(values)))


def selection_counts(model: FreqLens, inputs) -> np.ndarray:
    """How often each basis index is selected over a window set."""
    counts = np.zeros(model.config.N, dtype=np.int64)
    for out in model.forward_batches(np.asarray(inputs, dtype=np.float64)):
        np.add.at(counts, out.selected.ravel(), 1)
    return counts


@dataclass
class SeedDiscovery:
    """One seed's bases in ascending period order, one entry per basis in each list, and its matches."""

    seed: int
    basis_index: list[int]
    frequencies: list[float]
    periods_steps: list[float]  # ascending
    selection_counts: list[int]
    matches: list[PeriodMatch]  # one per known period, naming its basis by index


@dataclass
class KnownPeriodSummary:
    known_period: float
    n_matched: int
    mean_learned: float | None
    std_learned: float | None


@dataclass
class DiscoveryReport:
    delta: float
    known_periods: list[float]
    seeds: list[SeedDiscovery] = field(default_factory=list)
    summary: list[KnownPeriodSummary] = field(default_factory=list)


def build_discovery_report(seeded_models, known_periods_steps, delta: float, test_inputs) -> DiscoveryReport:
    """Cross-seed discovery table: learned periods vs known cycles.

    ``seeded_models`` is a sequence of (seed, model).  Each seed lists
    its bases in ascending period order, with their frequencies, periods
    and how often each is selected over ``test_inputs``.  Per known
    period, the summary aggregates the matched seeds only.
    """
    known = [float(k) for k in known_periods_steps]
    report = DiscoveryReport(delta=delta, known_periods=known)
    for seed, model in seeded_models:
        freqs = model.bank.frequencies().data
        periods = periods_from_frequencies(freqs)
        order = np.argsort(periods, kind="stable")
        report.seeds.append(
            SeedDiscovery(
                seed=int(seed),
                basis_index=order.tolist(),
                frequencies=freqs[order].tolist(),
                periods_steps=periods[order].tolist(),
                selection_counts=selection_counts(model, test_inputs)[order].tolist(),
                matches=match_known_periods(periods, known, delta=delta),
            )
        )
    for j, k in enumerate(known):
        learned = [s.matches[j].learned_period for s in report.seeds if s.matches[j].matched]
        report.summary.append(
            KnownPeriodSummary(
                known_period=k,
                n_matched=len(learned),
                mean_learned=float(np.mean(learned)) if learned else None,
                std_learned=float(np.std(learned)) if learned else None,
            )
        )
    return report


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@dataclass
class AxiomCheck:
    passed: bool
    max_deviation: float


def _faithfulness_deviation(model: FreqLens, x: np.ndarray, out) -> float:
    """Largest |change of y_freq when slot f is removed - contribution f| over every sample and slot.

    The leave-one-out rows are freed on return, before the Shapley
    oracle allocates its own copy of the contributions.
    """
    k = model.config.K
    rows = model.masked_forward(x, out.selected, _leave_one_out(*out.selected.shape))
    devs = np.empty(k)  # maxima collect in arrays: ndarray.max keeps a NaN, Python's max can drop it
    for f, diff in _removals(rows, k):
        diff -= out.contributions.data[:, f]
        devs[f] = np.abs(diff, out=diff).max()
    return float(devs.max())


@np.errstate(all="ignore")  # a non-finite model fails its checks without a warning
def verify_axioms(model: FreqLens, inputs=None, tol: float = 1e-9) -> dict[str, AxiomCheck]:
    """Check the four attribution axioms plus Shapley equivalence.

    Holds for any weights by construction, so a randomly initialized
    model is a valid subject.  Completeness and faithfulness are
    checked within ``tol``; the null-frequency and symmetry checks are
    bit-exact.  Faithfulness recomputes every single removal of every
    sample with one leave-one-out ``masked_forward`` call and compares
    each change with the forward's contribution.  A non-finite
    contribution gives a NaN deviation, which fails its check.
    """
    cfg = model.config
    if inputs is None:
        inputs = np.random.default_rng(0).normal(size=(2, cfg.L, cfg.C))
    x = _samples(inputs)
    out = model.forward(x)
    checks: dict[str, AxiomCheck] = {}

    dev = float(np.abs(out.contributions.data.sum(axis=1) - out.y_freq.data).max())
    checks["completeness"] = AxiomCheck(dev < tol, dev)

    dev = _faithfulness_deviation(model, x, out)
    checks["faithfulness"] = AxiomCheck(dev < tol, dev)

    dev = float(np.abs(model.head_contribution(Tensor(np.zeros((1, cfg.K, cfg.d)))).data).max())
    checks["null_frequency"] = AxiomCheck(dev == 0.0, dev)

    # two slots that share head 0's weights, fed identical coefficients
    c_f = np.repeat(np.random.default_rng(1).normal(size=(2, 1, cfg.d)), 2, axis=1)
    twins = apply_heads(
        Tensor(c_f), Tensor(model.head_w1.data[[0, 0]]), Tensor(model.head_w2.data[[0, 0]]), (cfg.H, cfg.C)
    ).data
    dev = float(np.abs(twins[:, 0] - twins[:, 1]).max())
    checks["symmetry"] = AxiomCheck(dev == 0.0, dev)

    # the game is per element, so the whole batch is one game of B*H*C elements
    players = np.moveaxis(out.contributions.data, 1, 0)
    phi = shapley_bruteforce(players)
    phi -= players
    dev = float(np.abs(phi, out=phi).max())
    checks["shapley_equivalence"] = AxiomCheck(dev < tol, dev)
    return checks


# ---------------------------------------------------------------------------
# plot-ready CSV exports
# ---------------------------------------------------------------------------

def export_spectrum_csv(path, discovery: SeedDiscovery) -> None:
    """Per-basis rows of (basis index, frequency, period, selection count, matched flag).

    ``discovery`` is one seed's entry of ``build_discovery_report``: one
    row per basis in its ascending period order, flagged matched when
    one of its matches names the basis, so the flags are
    ``discovery.json``'s.
    """
    matched = {m.basis_index for m in discovery.matches if m.matched}
    table = zip(
        discovery.basis_index, discovery.frequencies, discovery.periods_steps, discovery.selection_counts, strict=True
    )
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["basis_index", "frequency", "period_steps", "selection_count", "matched"])
        for i, freq, period, count in table:
            writer.writerow([i, repr(freq), repr(period), count, int(i in matched)])
