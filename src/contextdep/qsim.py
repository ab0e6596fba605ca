"""Single-qubit circuit simulation with per-context coherent errors.

Every error considered here is unitary (an over-rotation of a gate's
rotation angle), so a pure-state simulation of |0> through the circuit's
2x2 unitaries is exact; no density matrix is needed.  A context assigns
each rotation gate an extra angle epsilon on top of the ideal pi/2 (plus
an optional context-independent static epsilon), which is how slow drift
is modeled: later time periods get larger epsilon.

All circuits and all distinct gate models go through one walk.  A first
pass, with no arithmetic, reads the circuit texts in sorted order into a
trie of runs of equal gates, so a run shared by several circuits'
prefixes is one node; it reads each distinct unshared suffix once,
holds a path as a stack of suffix segments and has numpy build the node
arrays, with no Python step per gate or per node.  A second pass forms
the node products one trie depth at a time, in one batched matmul of
take gathers per depth, keeping only the previous depth's products.
The products are those of a circuit-by-circuit loop, bit for bit.

Sampling is reproducible and order-independent, and its definition is
the package's own.  Each (circuit, context) cell has one uniform in
(0, 1], from splitmix64 (Steele, Lea and Flood, OOPSLA 2014) keyed by
the experiment seed, a sha256 hash of the circuit id and the context
index, so no cell's draw depends on which other cells are simulated or
in what order.  Its count of outcome 0 is the binomial inverse CDF at
that uniform, over a window of about 10 standard deviations each side
of the mode, with p0 reflected to 1 - p0 above 0.5.  All cells are drawn
together: the uniforms in one pass of uint64 arrays, the window pmfs as
(width, cells) running products.  Only +, -, *, /, sqrt, floor and ceil
enter a count, each rounded as IEEE 754 requires, so the counts are the
same on any numpy or libm.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .counts import ContextDataset, Record, distinct_labels, field, loader, read_json, record
from .gstgen import (EMPTY_CIRCUIT_TEXT, CircuitSpec, GstDesign, lgst_circuits,
                     lsgst_circuits)

__all__ = [
    "ErrorModel",
    "SimConfig",
    "experiment_probabilities",
    "sample_experiment",
    "run_drift_experiment",
    "load_error_model",
]

_SIGMA = {
    "Gx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Gy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
}

# Gates defined by a pi/2 rotation; only these accept over-rotation errors.
ROTATION_GATES = frozenset(_SIGMA)


def rotation_unitary(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) for axis 'Gx' or 'Gy'."""
    sigma = _SIGMA[axis]
    return math.cos(0.5 * theta) * np.eye(2) - 1.0j * math.sin(0.5 * theta) * sigma


def ideal_gate_model() -> dict[str, np.ndarray]:
    """The error-free unitaries of the five gate labels circuit text may use."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "Gi": np.eye(2, dtype=complex),
        "Gx": rotation_unitary("Gx", 0.5 * math.pi),
        "Gy": rotation_unitary("Gy", 0.5 * math.pi),
        "Gh": inv_sqrt2 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex),
        "Gs": np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex),
    }


def _angle(value, name: str) -> float:
    # The error-model file rules: an angle is a finite int or float, not a bool.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        angle = float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range") from None
    if not math.isfinite(angle):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return angle


@record
class ErrorModel(Record):
    """Per-context over-rotation angles, in radians, for rotation gates.

    static_epsilon is added to every rotation gate in every context; it
    models a context-independent miscalibration and so never contributes
    to differences between contexts.  The model needs at least one
    context, and no context is labelled 'static_epsilon', the file key of
    the static angle.
    """

    context_overrotations: Mapping[str, Mapping[str, float]]
    static_epsilon: float = 0.0

    def __init__(self, context_overrotations: Mapping[str, Mapping[str, float]],
                 static_epsilon: float = 0.0) -> None:
        if not distinct_labels(context_overrotations, "context", minimum=0):
            raise ValueError("no context entries")
        if "static_epsilon" in context_overrotations:
            raise ValueError("'static_epsilon' names the static angle, not a context")
        table: dict[str, dict[str, float]] = {}
        for context, gate_map in context_overrotations.items():
            entry: dict[str, float] = {}
            for gate, epsilon in gate_map.items():
                if gate not in ROTATION_GATES:
                    raise ValueError(
                        f"context {context!r}: over-rotation on {gate!r}, but only "
                        f"rotation gates {sorted(ROTATION_GATES)} take an angle error"
                    )
                entry[gate] = _angle(epsilon, f"context {context!r}, gate {gate!r}: epsilon")
            table[context] = entry
        self.__dict__.update(context_overrotations=table,
                             static_epsilon=_angle(static_epsilon, "static_epsilon"))

    @property
    def contexts(self) -> tuple[str, ...]:
        return tuple(self.context_overrotations)

    def epsilon(self, context: str, gate: str) -> float:
        """Total over-rotation (static + context) for one gate."""
        try:
            gate_map = self.context_overrotations[context]
        except KeyError:
            raise ValueError(f"error model has no context {context!r}") from None
        return self.static_epsilon + gate_map.get(gate, 0.0)


# The most shots per cell.  A draw's window is about 20 sigma + 60 counts
# wide, so its cost grows as sqrt(shots): 1.1 s for the drift design's
# 7,025 cells at 10**6 shots, about 9.5 ms a cell at p0 = 0.5 at this cap
# (2-core Xeon).
MAX_SHOTS = 2**31 - 1


@record
class SimConfig(Record):
    """Shot budget, seed, and context list for one simulated experiment."""

    shots_per_context: int
    seed: int
    contexts: tuple[str, ...]

    def __init__(self, shots_per_context: int, seed: int, contexts: tuple[str, ...]) -> None:
        for name, value in (("shots_per_context", shots_per_context), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= shots_per_context <= MAX_SHOTS:
            raise ValueError(f"shots_per_context must be in [1, {MAX_SHOTS}], "
                             f"got {shots_per_context!r}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        contexts = distinct_labels(contexts, "context", "simulated experiment")
        self.__dict__.update(shots_per_context=shots_per_context, seed=seed, contexts=contexts)


def gate_model_for_context(error: ErrorModel, context: str) -> dict[str, np.ndarray]:
    """Gate unitaries with this context's over-rotations applied."""
    model = ideal_gate_model()
    for gate in ROTATION_GATES:
        model[gate] = rotation_unitary(gate, 0.5 * math.pi + error.epsilon(context, gate))
    return model


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings.  Sorted neighbours
    mostly differ only near their ends, so the search steps down from the
    shorter length, eightfold further each time, then bisects."""
    lo = hi = min(len(a), len(b))
    while not b.startswith(a[:lo]):
        hi, lo = lo - 1, max(0, lo - 8 * (hi - lo + 1))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


# One maximal run of equal labels, as (run text, label).  A repeat of the
# label counts only where a label boundary ('G' or the end) follows it, so
# Gx followed by Gxx is two runs.
_RUN = re.compile(r"((G[^G]*)(?:\2(?![^G]))*)")


class _Numbering(dict):
    """Numbers each new key in the order it is first looked up."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def _run_trie(words: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """The runs of every word as a trie, built without arithmetic.

    In sorted order, a word shares the runs of its common prefix with the
    previous word, cut back to whole labels (GxGy and GxGyy share only Gx)
    and whole runs (GxGx then Gy does not start the run Gx^3).  Each
    further run is a node.  The unshared suffix starts on a run boundary
    and _RUN looks at nothing before it, so its runs depend on its text
    alone: the regular expression reads each distinct suffix once per
    call, and a repeat reuses its run numbers and relative run ends.  About
    84% of the nodes are such repeats: 4,932 of 5,836 (146 distinct
    suffixes, 1,405 words) on the bundled drift design, 32,307 of 38,650
    (209, 2,017) with its germ powers to 2048.  A path is a stack of such
    suffix segments, so a word takes Python steps per segment, not per
    node, and numpy builds the node arrays.  Returns each node's parent,
    run number and depth (node 0 is the root, the identity) and each
    word's last node as intp arrays, and the run numbering, keyed by (run
    text, label).
    """
    run_ids = _Numbering()
    leaves = [0] * len(words)
    # The previous word's path, one segment per unshared suffix on it (the
    # root is a run of length 0): [start position, depth and node id of its
    # first run, its run ends relative to start, how many runs are kept].
    stack = [[0, 0, 0, [0], 1]]
    # Each unshared suffix's run numbers and run-end offsets from its start.
    tokens: dict[str, tuple[list[int], list[int]]] = {}
    # Per segment: (parent, node id, depth) of its first run; its run numbers.
    heads, blocks, size = [(0, 0, 0)], [[0]], 1
    previous = ""
    for index in sorted(range(len(words)), key=words.__getitem__):
        word = words[index]
        shared = _common_prefix(previous, word)
        if ((shared < len(word) and word[shared] != "G")
                or (shared < len(previous) and previous[shared] != "G")):
            shared = word.rfind("G", 0, shared)
        # Keep the runs that end within the shared prefix, the one ending at
        # its end only if it does not go on here; pop the segments past it.
        label = word[word.rfind("G", 0, shared):shared] if shared > 0 else ""
        after = shared + len(label)
        goes_on = bool(label) and word.startswith(label, shared) and (
            after == len(word) or word[after] == "G")
        cut = bisect_left if goes_on else bisect_right
        while not (keep := cut(stack[-1][3], shared - stack[-1][0], 0, stack[-1][4])):
            stack.pop()
        start, depth, node, ends, _ = segment = stack[-1]
        segment[4] = keep
        start += ends[keep - 1]
        suffix = word[start:]
        cached = tokens.get(suffix)
        if cached is None:
            found = _RUN.findall(suffix)
            cached = tokens[suffix] = (list(map(run_ids.__getitem__, found)),
                                       list(accumulate(map(len, map(itemgetter(0), found)))))
        numbers, offsets = cached
        last = node + keep - 1
        if numbers:
            heads.append((last, size, depth + keep))
            blocks.append(numbers)
            stack.append([start, depth + keep, size, offsets, len(numbers)])
            size += len(numbers)
            last = size - 1
        leaves[index] = last
        previous = word
    parent, first, first_depth = np.array(heads, dtype=np.intp).T
    nodes = np.arange(size, dtype=np.intp)
    depths = nodes - np.repeat(first - first_depth, list(map(len, blocks)))
    parents = nodes - 1
    parents[first] = parent
    runs = np.fromiter(chain.from_iterable(blocks), np.intp, size)
    return parents, runs, depths, np.array(leaves, dtype=np.intp), run_ids


def _walk_probabilities(texts: Sequence[str],
                        models: Sequence[Mapping[str, np.ndarray]]) -> np.ndarray:
    """Outcome probabilities of every circuit text under every gate model.

    Returns an array of shape (circuits, models, 2).  A circuit's unitary
    is the product of its runs of equal gates in reverse operation order,
    from the identity; a run of r gates is np.linalg.matrix_power of
    its gate, once per (label, r) for all models.  Over the trie of runs
    (_run_trie), each depth's products are one batched matmul of the take
    gathers R[runs] and P[parents], from the previous depth's alone; a
    circuit's amplitudes are column 0 of its last node's.  Each product is
    a circuit-by-circuit loop's, so the probabilities match it bit for
    bit.  That sets the products' floor: a node costs one BLAS 2x2 complex
    product per model (0.35-0.55 us on a 2-core Xeon), and an elementwise
    kernel differs from @ in the last bits, so only fewer nodes make them
    faster.  With germ powers to 2048 the trie pass is about a quarter of
    the walk: 12.5 of 47 ms, best of 15 on a 2-core Xeon.
    """
    words = ["" if text == EMPTY_CIRCUIT_TEXT else text for text in texts]
    parents, runs, depths, leaves, run_ids = _run_trie(words)
    labels = dict.fromkeys(label for _, label in run_ids)
    for model in models:
        for label in labels:
            if label not in model:
                raise ValueError(f"no unitary for gate label {label!r}")
    unitaries = {label: np.array([model[label] for model in models], dtype=complex)
                 .reshape(len(models), 2, 2) for label in labels}
    matrices = np.empty((len(run_ids), len(models), 2, 2), dtype=complex)
    for (run, label), number in run_ids.items():
        matrices[number] = np.linalg.matrix_power(unitaries[label], len(run) // len(label))

    # Nodes and circuits in depth order; a node's slot is its place
    # within its depth.
    order = np.argsort(depths, kind="stable")
    starts = np.searchsorted(depths[order], np.arange(depths.max() + 2))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order)) - starts[depths[order]]
    level_runs = runs[order]
    level_parents = slot[parents[order]]
    circuit_order = np.argsort(depths[leaves], kind="stable")
    leaf_starts = np.searchsorted(depths[leaves][circuit_order], np.arange(len(starts))).tolist()
    leaf_slots = slot[leaves[circuit_order]]
    starts = starts.tolist()

    amplitudes = np.empty((len(words), len(models), 2), dtype=complex)
    product = np.tile(np.eye(2, dtype=complex), (1, len(models), 1, 1))
    for lo, hi, first, last in zip(starts, starts[1:], leaf_starts, leaf_starts[1:]):
        if lo:  # 0 only at depth 0, the root
            product = (matrices.take(level_runs[lo:hi], axis=0)
                       @ product.take(level_parents[lo:hi], axis=0))
        if first < last:
            amplitudes[circuit_order[first:last]] = product[..., 0].take(
                leaf_slots[first:last], axis=0)

    probs = np.abs(amplitudes) ** 2
    deviation = np.abs(probs.sum(axis=2) - 1.0)
    # Round-off in p0 + p1 grows by up to one eps per gate on the bundled
    # drift design at MAX_GERM_POWER; eight per gate leaves room.
    gates = np.array([max(1, word.count("G")) for word in words])
    lost = deviation > 8.0 * np.finfo(float).eps * gates[:, None]
    if lost.any():
        raise RuntimeError(f"probabilities lost normalization (|p0 + p1 - 1| = "
                           f"{float(deviation[lost][0])!r}); non-unitary gate model?")
    return probs


# splitmix64's increment and finaliser multipliers (Steele, Lea and Flood,
# OOPSLA 2014).  Every constant is a numpy uint64: numpy turns uint64 mixed
# with int64 into float64.
_GAMMA, _MIX_A, _MIX_B = (np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U1, _U11, _U27, _U30, _U31 = (np.uint64(bits) for bits in (1, 11, 27, 30, 31))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output from state x, on uint64 arrays, which wrap mod 2**64."""
    z = x + _GAMMA
    z = (z ^ (z >> _U30)) * _MIX_A
    z = (z ^ (z >> _U27)) * _MIX_B
    return z ^ (z >> _U31)


def _cell_uniforms(seed: int, circuit_ids: Sequence[str], n_contexts: int) -> np.ndarray:
    """The uniform in (0, 1] of every cell, as a (circuits, contexts) array.

    The seed is folded by splitmix64 over its little-endian 64-bit words;
    a circuit's key is splitmix64 of that fold xor the first 8 bytes of
    sha256(id), read little-endian; context k adds k to it.  The uniform is
    the top 53 bits of splitmix64 of the sum, plus one, times 2**-53.
    """
    words = seed.to_bytes(8 * max(1, (seed.bit_length() + 63) // 64), "little")
    fold = np.zeros(1, dtype=np.uint64)
    for word in np.frombuffer(words, dtype="<u8").astype(np.uint64):
        fold = _splitmix64(fold ^ word)
    digests = b"".join(hashlib.sha256(circuit_id.encode("utf-8")).digest()[:8]
                       for circuit_id in circuit_ids)
    keys = _splitmix64(np.frombuffer(digests, dtype="<u8").astype(np.uint64) ^ fold)
    cells = _splitmix64(keys[:, None] + np.arange(n_contexts, dtype=np.uint64))
    return ((cells >> _U11) + _U1).astype(float) * 2.0 ** -53


def _sampling_distributions(probs: np.ndarray) -> np.ndarray:
    """Check probability vectors along the last axis, then clip and renormalise.

    Round-off from unitary products can leave an entry a hair below zero;
    entries down to -1e-12 are clipped to zero, anything worse, a non-finite
    entry, or a vector whose sum is off by more than 1e-9, is rejected.
    """
    # A vector with a non-finite entry sums as empty, to 0, so inf - inf never warns.
    sums = probs.sum(axis=-1, where=np.isfinite(probs).all(axis=-1, keepdims=True))
    invalid = (probs < -1e-12).any(axis=-1) | ~(np.abs(sums - 1.0) <= 1e-9)
    if invalid.any():
        raise ValueError(f"invalid probability vector {probs[invalid][0]!r}")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def experiment_probabilities(circuits: Sequence[CircuitSpec],
                             error: ErrorModel,
                             contexts: Sequence[str]) -> np.ndarray:
    """Outcome probabilities of every cell, as a (circuits, contexts, 2) array.

    Contexts with identical effective rotation angles share one gate model,
    so their columns are equal.  All distinct models go through one
    shared-prefix walk over the circuits.
    """
    angle_keys = [
        tuple(sorted((g, error.epsilon(context, g)) for g in ROTATION_GATES))
        for context in contexts
    ]
    models: dict[tuple, dict[str, np.ndarray]] = {}
    for context, key in zip(contexts, angle_keys):
        if key not in models:
            models[key] = gate_model_for_context(error, context)
    slots = [list(models).index(key) for key in angle_keys]
    probs = _walk_probabilities([c.text for c in circuits], list(models.values()))
    return probs[:, slots]


# Cells per chunk times window width: the (width, cells) pmf arrays stay small.
_CHUNK = 2 ** 15


def _binomial_draws(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binomial(n, p) counts, p <= 0.5, by the inverse CDF at uniforms u.

    A cell's count is the smallest k with CDF(k) >= u * S over the window
    mode +- ceil(10 sigma + 30) clipped to [0, n], S being the window's
    mass; the mass outside it is below u's resolution.  The pmf, relative
    to the window's first count, is the running product of the ratios
    (n + 1 - k) / k * p / q.  Cells are sorted by window width and taken in
    chunks of at most twice _CHUNK pmf entries.  Only +, -, *, /, sqrt,
    floor and ceil are used, so the counts do not depend on a library's
    log or exp.
    """
    q = 1.0 - p
    odds = p / q
    mode = np.floor((n + 1) * p)
    reach = np.ceil(10.0 * np.sqrt(n * p * q) + 30.0)
    lo, hi = np.maximum(mode - reach, 0.0), np.minimum(mode + reach, float(n))
    widths = (hi - lo).astype(np.intp) + 1
    order = np.argsort(widths, kind="stable")
    sizes = widths[order]
    draws = np.empty(len(p), dtype=np.int64)
    start = 0
    while start < len(order):
        stop = min(start + max(1, _CHUNK // sizes[start]),
                   np.searchsorted(sizes, 2 * sizes[start], "right"))
        cells = order[start:stop]
        k = lo[cells] + np.arange(1, sizes[stop - 1])[:, None]
        # Row 0 is the window's first count, 1; row j the ratio at lo + j,
        # 0 past the cell's window.  Then the pmf and the CDF, in place.
        cdf = np.empty((len(k) + 1, len(cells)))
        cdf[0], ratios = 1.0, cdf[1:]
        np.subtract(n + 1, k, out=ratios)
        ratios /= k
        ratios *= odds[cells]
        ratios[k > hi[cells]] = 0.0
        np.multiply.accumulate(cdf, axis=0, out=cdf)
        np.cumsum(cdf, axis=0, out=cdf)
        draws[cells] = lo[cells] + np.argmax(cdf >= u[cells] * cdf[-1], axis=0)
        start = stop
    return draws


def _draw_cells(seed: int, circuit_ids: Sequence[str], table: np.ndarray,
                shots: int) -> np.ndarray:
    """Counts of every cell of a (circuits, contexts, 2) table, as Python ints.

    Each cell draws its zeros by _binomial_draws at its _cell_uniforms
    uniform, on 1 - p0 where p0 > 0.5 (zeros are then shots less the
    draw), and outcome 1 gets the rest.
    """
    p0 = table[:, :, 0].ravel()
    flip = p0 > 0.5
    draws = _binomial_draws(shots, np.where(flip, 1.0 - p0, p0),
                            _cell_uniforms(seed, circuit_ids, table.shape[1]).ravel())
    zeros = np.where(flip, shots - draws, draws).reshape(table.shape[:2])
    return np.stack([zeros, shots - zeros], axis=2).astype(object)


def sample_experiment(circuits: Sequence[CircuitSpec], probs: np.ndarray,
                      config: SimConfig) -> ContextDataset:
    """Draw counts for a (circuits, contexts, 2) probability array.

    The shape is checked first, then the whole array is checked, clipped
    and renormalised at once; _draw_cells draws every cell.
    """
    ids = tuple(circuit.text for circuit in circuits)
    shape = (len(ids), len(config.contexts), 2)
    if probs.shape != shape:
        raise ValueError(f"probability table of shape {probs.shape}, need {shape}")
    counts = _draw_cells(config.seed, ids, _sampling_distributions(probs),
                         config.shots_per_context)
    return ContextDataset(
        outcomes=("0", "1"),
        contexts=config.contexts,
        circuit_ids=ids,
        counts=counts,
        present=np.ones(shape[:2], dtype=bool),
        specs=ids,
        core_lengths=tuple(circuit.core_length for circuit in circuits),
    )


def run_drift_experiment(design: GstDesign, error: ErrorModel,
                         config: SimConfig) -> ContextDataset:
    """Simulate a design's experiment in every context into a ContextDataset.

    The circuits are the design's long-sequence list when it has germs and
    its linear-inversion list otherwise.  A custom list goes through
    ``experiment_probabilities`` and ``sample_experiment``.
    """
    circuits = lsgst_circuits(design) if design.germs else lgst_circuits(design)
    probs = experiment_probabilities(circuits, error, config.contexts)
    return sample_experiment(circuits, probs, config)


@loader()
def load_error_model(path: Path) -> ErrorModel:
    """Read an error model from JSON.

    Layout: every key is a context label mapping gate labels to epsilon
    radians, except the optional reserved key 'static_epsilon'.
    """
    raw = read_json(path, (dict,))
    contexts = {key: field(raw, key, (dict,)) for key in raw if key != "static_epsilon"}
    return ErrorModel(context_overrotations=contexts,
                      static_epsilon=raw.get("static_epsilon", 0.0))
