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

Sampling is reproducible and order-independent: each (circuit, context)
cell draws from its own stream, counts_stream, keyed by the experiment
seed, a hash of the circuit id and the context index.  sample_experiment
derives every cell's PCG64 state in one batch, running SeedSequence's
hash and PCG64's seeding over arrays of cells, with each 128-bit state
as uint64 limbs.  It then draws every cell's two outcomes as one
binomial, the call counts_stream's multinomial makes, in one array pass:
PCG64's steps and numpy's inversion and BTPE binomial run as array loops
over the cells still drawing, term by term in numpy's C arithmetic, so
the counts are the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .counts import ContextDataset, distinct_labels, field, read_json
from .gstgen import (EMPTY_CIRCUIT_TEXT, CircuitSpec, GstDesign, lgst_circuits,
                     lsgst_circuits)

__all__ = [
    "ErrorModel",
    "SimConfig",
    "ideal_gate_model",
    "gate_model_for_context",
    "rotation_unitary",
    "circuit_probabilities",
    "counts_stream",
    "run_drift_experiment",
    "load_error_model",
    "save_error_model",
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
    """The error-free unitaries for the registered single-qubit gates."""
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


@dataclass(frozen=True)
class ErrorModel:
    """Per-context over-rotation angles, in radians, for rotation gates.

    static_epsilon is added to every rotation gate in every context; it
    models a context-independent miscalibration and so never contributes
    to differences between contexts.  The model needs at least one
    context, and no context is labelled 'static_epsilon', the file key of
    the static angle.
    """

    context_overrotations: Mapping[str, Mapping[str, float]]
    static_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not distinct_labels(self.context_overrotations, "context", minimum=0):
            raise ValueError("no context entries")
        if "static_epsilon" in self.context_overrotations:
            raise ValueError("'static_epsilon' names the static angle, not a context")
        table: dict[str, dict[str, float]] = {}
        for context, gate_map in self.context_overrotations.items():
            entry: dict[str, float] = {}
            for gate, epsilon in gate_map.items():
                if gate not in ROTATION_GATES:
                    raise ValueError(
                        f"context {context!r}: over-rotation on {gate!r}, but only "
                        f"rotation gates {sorted(ROTATION_GATES)} take an angle error"
                    )
                entry[gate] = _angle(epsilon, f"context {context!r}, gate {gate!r}: epsilon")
            table[context] = entry
        object.__setattr__(self, "context_overrotations", table)
        object.__setattr__(self, "static_epsilon", _angle(self.static_epsilon, "static_epsilon"))

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


@dataclass(frozen=True)
class SimConfig:
    """Shot budget, seed, and context list for one simulated experiment."""

    shots_per_context: int
    seed: int
    contexts: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("shots_per_context", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # numpy's binomial takes an int64 number of shots.
        most = np.iinfo(np.int64).max
        if not 1 <= self.shots_per_context <= most:
            raise ValueError(f"shots_per_context must be in [1, {most}], "
                             f"got {self.shots_per_context!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "contexts",
                           distinct_labels(self.contexts, "context", "simulated experiment"))


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


def circuit_probabilities(spec: CircuitSpec | str | Sequence[str],
                          gate_model: Mapping[str, np.ndarray]) -> np.ndarray:
    """Outcome probabilities (p(0), p(1)) for |0> through the circuit.

    The circuit is a CircuitSpec, its text, or its gate labels in
    operation order, so the total unitary is the product in reverse.  Runs
    of a repeated gate are raised to their power by binary matrix
    powering, which keeps deep germ-power circuits cheap.  This is the
    one-circuit, one-model case of experiment_probabilities.
    """
    if not isinstance(spec, CircuitSpec):
        spec = CircuitSpec(spec)
    return _walk_probabilities([spec.text], [gate_model])[0, 0]


def counts_stream(seed: int, circuit_id: str, context_index: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one (circuit, context) cell.

    The stream key mixes the experiment seed with a hash of the circuit id
    and the context index, so any scheduling of the simulation produces
    the same counts.
    """
    digest = hashlib.sha256(circuit_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    key = np.random.SeedSequence([int(seed), int(context_index), *words])
    return np.random.Generator(np.random.PCG64(key))


# numpy's SeedSequence constants (bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's multiplier as uint64 limbs, its low limb also as 32-bit halves.
# Every constant is a numpy uint64: numpy turns uint64 mixed with int64
# into float64.
_MULT_HI, _MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(bits) for bits in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(0xFFFFFFFF)
_MULT_LO_1, _MULT_LO_0 = _MULT_LO >> _U32, _MULT_LO & _LOW32


def _uint32_words(value: int) -> list[int]:
    """A seed (>= 0) as SeedSequence splits it: little-endian 32-bit words, [0] for 0."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, state * multiplier + inc mod 2**128, on uint64
    (high, low) limbs, whose products wrap mod 2**64 as the C code's do.
    The high word of lo * _MULT_LO comes from its 32-bit halves' products."""
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * _MULT_LO_0, a0 * _MULT_LO_1, a1 * _MULT_LO_0
    middle = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (middle >> _U32)
    low = lo * _MULT_LO + inc_lo
    return carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (low < inc_lo), low


def _next_doubles(streams: np.ndarray) -> np.ndarray:
    """One next_double of every stream in a (4, cells) uint64 array of
    (state high, state low, inc high, inc low) limbs, stepped in place:
    the LCG step, the XSL-RR output of the new state, its top 53 bits."""
    streams[0], streams[1] = hi, lo = _lcg_step(*streams)
    mixed, rotation = hi ^ lo, hi >> _U58
    output = (mixed >> rotation) | (mixed << ((_U64 - rotation) & _U63))
    return (output >> _U11).astype(float) * 2.0 ** -53


def _cell_states(seed: int, circuit_ids: Sequence[str], n_contexts: int) -> np.ndarray:
    """The PCG64 stream of every cell, as counts_stream would seed it.

    Cells run circuit-major: cell i * n_contexts + k is circuit i, context
    k.  Each cell's entropy is [seed words..., k, 4 id words], as
    SeedSequence coerces it; its width is the same for every cell, so the
    whole SeedSequence hash (hashmix and mix into a pool of 4 words, then
    generate_state(4, uint64)) runs once over uint32 columns, whose
    products wrap mod 2**32 as the C code's do.  Then pcg64_srandom_r:
    inc = initseq << 1 | 1 and two LCG steps.  Returns the (4, cells)
    uint64 limbs that _next_doubles steps.
    """
    digests = b"".join(hashlib.sha256(circuit_id.encode("utf-8")).digest()[:16]
                       for circuit_id in circuit_ids)
    id_words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
    # One array per entropy word, one entry per cell.
    n_cells = len(circuit_ids) * n_contexts
    words = ([np.full(n_cells, word, dtype=np.uint32) for word in _uint32_words(int(seed))]
             + [np.tile(np.arange(n_contexts, dtype=np.uint32), len(circuit_ids))]
             + list(np.ascontiguousarray(np.repeat(id_words, n_contexts, axis=0).T,
                                         dtype=np.uint32)))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    # The entropy is always wider than the pool (at least 6 words).
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    generated = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        generated.append(value ^ (value >> np.uint32(16)))
    # Pairs of words, low word first, are generate_state's uint64 words:
    # initstate's high and low limbs, then initseq's.
    seeds = np.stack(generated, axis=1).astype("<u4").view("<u8").astype(np.uint64).T
    inc_hi, inc_lo = (seeds[2] << _U1) | (seeds[3] >> _U63), (seeds[3] << _U1) | _U1
    # From state 0: one LCG step gives inc, add initstate, step again.
    lo = inc_lo + seeds[1]
    return np.stack([*_lcg_step(inc_hi + seeds[0] + (lo < inc_lo), lo, inc_hi, inc_lo),
                     inc_hi, inc_lo])


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


def _log(values: np.ndarray) -> np.ndarray:
    """glibc's log of each entry, as numpy's C calls it (np.log may differ
    in the last bit): -inf at 0 and nan below it, as in C."""
    return np.array([math.log(v) if v > 0 else -math.inf if v == 0 else math.nan
                     for v in values.tolist()])


def _binomial_inversion(n: int, p: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """numpy's random_binomial_inversion(n, p) of every stream: walk the
    pmf from 0 with one uniform, and redraw once the walk passes bound."""
    q = 1.0 - p
    qn = np.array([math.exp(float(n) * math.log1p(-v)) for v in p.tolist()])
    mean = float(n) * p
    bound = np.trunc(np.minimum(float(n), mean + 10.0 * np.sqrt(mean * q + 1)))
    draws = np.empty(len(p), dtype=np.int64)
    cells = np.arange(len(p))
    x = np.zeros(len(p), dtype=np.int64)
    # Rows: p, q, qn, bound, then each cell's px and uniform.
    rows = np.stack([p, q, qn, bound, qn, _next_doubles(streams)])
    while len(cells):
        going = rows[5] > rows[4]
        draws[cells[~going]] = x[~going]
        cells, x, rows, streams = cells[going], x[going] + 1, rows[:, going], streams[:, going]
        p, q, qn, bound, px, u = rows
        restart = x > bound
        if restart.any():
            again = streams[:, restart]
            u[restart] = _next_doubles(again)
            streams[:, restart] = again
            x[restart], px[restart] = 0, qn[restart]
        walk, xw = ~restart, x[~restart]
        u[walk] -= px[walk]
        px[walk] = ((np.int64(n) - xw + 1) * p[walk] * px[walk]) / (xw * q[walk])
    return draws


def _binomial_btpe(n: int, p: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """numpy's random_binomial_btpe(n, p) of every stream, for p <= 0.5.

    BTPE (Kachitvichyanukul and Schmeiser, Commun. ACM 31:216 (1988)):
    each round draws u, then v, for the cells still pending, takes y from
    the triangle, the parallelograms or the exponential tails, and accepts
    it by the pmf ratio F or, far from the mode, by the Stirling squeeze.
    Every term is evaluated in the C code's order and types: int64 where
    it computes with integers, n as a double in z and w, glibc's log.
    """
    n64, nf = np.int64(n), float(n)
    q = 1.0 - p
    fm, nrq = nf * p + p, nf * p * q
    m = np.floor(fm)
    p1 = np.floor(2.195 * np.sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    rows = np.stack([p, q, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p3 + c / lamr, nrq])
    draws = np.empty(len(p), dtype=np.int64)
    cells = np.arange(len(p))
    while len(cells):
        r, q, mf, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4, nrq = rows
        m = mf.astype(np.int64)
        u = _next_doubles(streams) * p4
        v = _next_doubles(streams)
        middle, tail, left = u <= p1, u > p2, u <= p3
        logv, logged = np.zeros(len(v)), tail & (v > 0)
        logv[logged] = _log(v[logged])
        x = np.where(middle, xm - p1 * v + u, np.where(
            ~tail, xl + (u - p1) / c, np.where(left, xl + logv / laml, xr - logv / lamr)))
        y = np.floor(x).astype(np.int64)
        v = np.where(middle | tail, v, v * c + 1.0 - np.abs(m - x + 0.5) / p1)
        redraw = np.where(tail, (v == 0) | np.where(left, y < 0, y > n64), v > 1.0)
        v = np.where(tail, np.where(left, v * (u - p2) * laml, v * (u - p3) * lamr), v)
        # Step 50: accept y against the pmf ratio F, or by Step 52's squeeze.
        k = np.abs(y - m)
        check = ~middle & ~redraw
        squeeze = check & (k > 20) & (k < nrq / 2.0 - 1)
        ratio = np.flatnonzero(check & ~squeeze)
        if len(ratio):
            # F over i = m + 1..y multiplies by a / i - s; over y + 1..m it
            # divides.  Reducing a (steps, cells) grid along axis 0 keeps C's
            # order; blocks of 32 steps, each led by the running F, bound it.
            s = r[ratio] / q[ratio]
            a = s * float((n + 1 + 2**63) % 2**64 - 2**63)  # C's int64 n + 1 wraps
            kr, up = k[ratio], m[ratio] < y[ratio]
            low = np.where(up, m[ratio], y[ratio])
            grow = shrink = np.ones(len(ratio))
            for first in range(1, int(kr.max()) + 1, 32):
                steps = np.arange(first, first + 32)[:, None]
                terms = np.where(steps <= kr, a / (low + steps) - s, 1.0)
                grow = np.multiply.reduce(np.vstack([grow, terms]), axis=0)
                shrink = np.divide.reduce(np.vstack([shrink, terms]), axis=0)
            redraw[ratio] = v[ratio] > np.where(up, grow, shrink)
        tight = np.flatnonzero(squeeze)
        if len(tight):
            kt, nrqt, yt, mt = k[tight], nrq[tight], y[tight], m[tight]
            rho = (kt / nrqt) * ((kt * (kt / 3.0 + 0.625) + 0.16666666666666666) / nrqt + 0.5)
            t = -kt * kt / (2 * nrqt)
            big_a = _log(v[tight])
            x1, f1 = (yt + 1).astype(float), (mt + 1).astype(float)
            z, w = nf + 1 - mt, nf - yt + 1
            rt, qt = r[tight], q[tight]
            stirling = (xm[tight] * _log(f1 / x1) + (n64 - mt + 0.5) * _log(z / w)
                        + (yt - mt) * _log(w * rt / (x1 * qt)))
            for term in (f1, z, x1, w):
                square = term * term
                stirling = stirling + (13680. - (462. - (132. - (99. - 140. / square) / square)
                                                 / square) / square) / term / 166320.
            redraw[tight] = ~(big_a < t - rho) & ((big_a > t + rho) | (big_a > stirling))
        draws[cells[~redraw]] = y[~redraw]
        cells, rows, streams = cells[redraw], rows[:, redraw], streams[:, redraw]
    return draws


def _draw_cells(seed: int, circuit_ids: Sequence[str], table: np.ndarray,
                shots: int) -> np.ndarray:
    """Counts of every cell of a (circuits, contexts, 2) table, as Python ints.

    Each cell draws binomial(shots, p0) zeros from its counts_stream, the
    first count of numpy's multinomial(shots, [p0, p1]) by the same call,
    on p0 / 1.0, run as numpy's random_binomial over all cells at once: no
    draw at p0 = 0, the reflection p0 -> 1 - p0 above 0.5, inversion where
    shots * min(p0, 1 - p0) <= 30 and BTPE elsewhere.
    """
    p0 = table[:, :, 0].ravel()
    streams = _cell_states(seed, circuit_ids, table.shape[1])
    flip = p0 > 0.5
    p = np.where(flip, 1.0 - p0, p0)
    small = p * float(shots) <= 30.0
    zeros = np.zeros(len(p0), dtype=np.int64)
    for method, cells in ((_binomial_inversion, small & (p0 != 0.0)),
                          (_binomial_btpe, ~small)):
        zeros[cells] = method(shots, p[cells], streams[:, cells])
    zeros = np.where(flip, np.int64(shots) - zeros, zeros).reshape(table.shape[:2])
    return np.stack([zeros, shots - zeros], axis=2).astype(object)


def sample_experiment(circuits: Sequence[CircuitSpec], probs: np.ndarray,
                      config: SimConfig) -> ContextDataset:
    """Draw counts for a (circuits, contexts, 2) probability array.

    The shape is checked first, then the whole array is checked, clipped
    and renormalised at once; each cell draws from its counts_stream.
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


def load_error_model(path: str | Path) -> ErrorModel:
    """Read an error model from JSON.

    Layout: every key is a context label mapping gate labels to epsilon
    radians, except the optional reserved key 'static_epsilon'.
    """
    path = Path(path)
    raw = read_json(path, (dict,))
    contexts = {key: field(raw, key, (dict,), str(path))
                for key in raw if key != "static_epsilon"}
    try:
        return ErrorModel(context_overrotations=contexts,
                          static_epsilon=raw.get("static_epsilon", 0.0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_error_model(error: ErrorModel, path: str | Path) -> None:
    obj: dict = {
        context: dict(gate_map)
        for context, gate_map in error.context_overrotations.items()
    }
    obj["static_epsilon"] = error.static_epsilon
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
