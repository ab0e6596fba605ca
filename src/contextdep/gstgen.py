"""Deterministic generation of gate-set-tomography circuit lists.

Two standard families are produced from a design (gate set, preparation
fiducials, measurement fiducials, germs, maximum germ power):

  * the linear-inversion family: every F, F_p F_m and F_p G F_m;
  * the long-sequence family: the above plus F_p g^r F_m for each germ g
    and each power-of-two target length L, with r = floor(L / len(g)).

Sequences are deduplicated by literal gate-sequence equality, since one
sequence has one physical realization no matter how it was derived.  Each
kept circuit carries a core_length: the smallest target length L at which
a germ block (with at least one repetition) produces it, or 0 for
circuits that only ever arise from fiducial forms.  Output order is fixed
so identical designs give byte-identical lists.

A circuit is held as its text ('GxGxGy'), also its dataset id and the
simulator's key.  The generators join each text from the design's
checked parts (prep, germ * reps, meas) and deduplicate by text, with no
work per generated gate.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .counts import (STRINGS, Record, check_core_length, distinct_labels, field, loader, read_json,
                     record)

__all__ = [
    "MAX_GERM_POWER",
    "CircuitSpec",
    "GstDesign",
    "parse_circuit_text",
    "circuit_to_text",
    "lgst_circuits",
    "lsgst_circuits",
    "load_design",
    "save_circuits",
]

EMPTY_CIRCUIT_TEXT = "{}"

# The deepest germ power a design may ask for.  Circuits grow with it: at
# 2**16 the bundled drift design lists 3,037 circuits of up to 65,542
# gates, 26.7 million gates in all.
MAX_GERM_POWER = 2 ** 16

# The gate labels the simulator has unitaries for (qsim.ideal_gate_model).
# Each is 'G' plus a G-free suffix, which keeps concatenated circuit text
# unambiguous to parse.
_GATE_LABELS = frozenset({"Gi", "Gx", "Gy", "Gh", "Gs"})


def _check_labels(gates: Iterable[str], where: str) -> tuple[str, ...]:
    try:
        labels = tuple(gates)
        known = _GATE_LABELS.issuperset(labels)
    except TypeError:  # not iterable, or an unhashable label
        raise ValueError(f"{where}: need a circuit text or a sequence of gate labels, "
                         f"got {gates!r}") from None
    if not known:
        label = next(label for label in labels if label not in _GATE_LABELS)
        raise ValueError(f"{where}: unknown gate label {label!r}")
    return labels


def _text_labels(text: str) -> tuple[str, ...]:
    """The labels of a checked text: it is split at every 'G'."""
    if text == EMPTY_CIRCUIT_TEXT:
        return ()
    return tuple("G" + suffix for suffix in text[1:].split("G"))


def _check_text(text: str) -> str:
    """Check a circuit text: '{}', or known labels written one after another.

    A label is 'G' plus a G-free suffix, so one split at 'G' finds every
    label, and only the distinct suffixes are looked up.
    """
    if text == EMPTY_CIRCUIT_TEXT:
        return text
    if not isinstance(text, str) or not text.startswith("G"):
        raise ValueError(f"cannot parse circuit text {text!r}")
    if not all("G" + suffix in _GATE_LABELS for suffix in set(text[1:].split("G"))):
        _check_labels(_text_labels(text), f"circuit text {text!r}")
    return text


def parse_circuit_text(text: str) -> tuple[str, ...]:
    """Split concatenated labels ('GhGsGs') into a label tuple; '{}' is empty."""
    return _text_labels(_check_text(text))


def circuit_to_text(gates: Sequence[str]) -> str:
    """Concatenated-label form of a gate sequence; empty becomes '{}'."""
    if not gates:
        return EMPTY_CIRCUIT_TEXT
    return "".join(gates)


@record
class CircuitSpec(Record):
    """A gate sequence in operation order (first gate applied first).

    Built from its text, CircuitSpec("GxGy"), or from its gate labels,
    CircuitSpec(("Gx", "Gy")); either way it holds the checked text, and
    ``gates`` and ``length`` are derived from it when read.
    """

    text: str
    core_length: int = 0

    def __init__(self, text: str | Sequence[str], core_length: int = 0) -> None:
        if isinstance(text, str):
            text = _check_text(text)
        else:
            text = circuit_to_text(_check_labels(text, "circuit"))
        check_core_length(core_length, text)
        self.__dict__.update(text=text, core_length=core_length)

    @property
    def gates(self) -> tuple[str, ...]:
        return _text_labels(self.text)

    @property
    def length(self) -> int:
        return self.text.count("G")


def _spec(text: str, core_length: int) -> CircuitSpec:
    """The spec of a text joined from already checked labels ('' is empty)."""
    spec = object.__new__(CircuitSpec)
    spec.__dict__.update(text=text or EMPTY_CIRCUIT_TEXT, core_length=core_length)
    return spec


def _parse_fiducials(entries: Sequence[str | Sequence[str]], what: str) -> tuple[tuple[str, ...], ...]:
    return tuple(parse_circuit_text(entry) if isinstance(entry, str)
                 else _check_labels(entry, what) for entry in entries)


@record
class GstDesign(Record):
    """Everything needed to generate a circuit list."""

    gates: tuple[str, ...]
    prep_fiducials: tuple[tuple[str, ...], ...]
    meas_fiducials: tuple[tuple[str, ...], ...]
    germs: tuple[tuple[str, ...], ...] = ()
    max_germ_power: int | None = None

    def __init__(self, gates: tuple[str, ...], prep_fiducials: tuple[tuple[str, ...], ...],
                 meas_fiducials: tuple[tuple[str, ...], ...],
                 germs: tuple[tuple[str, ...], ...] = (),
                 max_germ_power: int | None = None) -> None:
        gates = _check_labels(distinct_labels(gates, "gate", "gate set", minimum=1), "gate set")
        preps = _parse_fiducials(prep_fiducials, "preparation fiducial")
        meas = _parse_fiducials(meas_fiducials, "measurement fiducial")
        if not preps or not meas:
            raise ValueError("design needs nonempty fiducial lists")
        germs = _parse_fiducials(germs, "germ")
        for germ in germs:
            if not germ:
                raise ValueError("zero-length germ")
        if max_germ_power is not None:
            l_max = max_germ_power
            if type(l_max) is not int or l_max < 1 or l_max & (l_max - 1):
                raise ValueError(f"max_germ_power must be an integer power of 2, got {l_max!r}")
            if l_max > MAX_GERM_POWER:
                raise ValueError(f"max_germ_power must be at most {MAX_GERM_POWER}, got {l_max!r}")
        self.__dict__.update(gates=gates, prep_fiducials=preps, meas_fiducials=meas,
                             germs=germs, max_germ_power=max_germ_power)

    @property
    def germ_powers(self) -> tuple[int, ...]:
        """The target lengths 1, 2, 4, ..., max_germ_power, a power of two."""
        return tuple(1 << k for k in range((self.max_germ_power or 0).bit_length()))


def _texts(parts: Sequence[tuple[str, ...]]) -> list[str]:
    return ["".join(part) for part in parts]


def _lgst_cores(design: GstDesign) -> dict[str, int]:
    """The linear-inversion texts, in order, each with core_length 0."""
    preps, meas = _texts(design.prep_fiducials), _texts(design.meas_fiducials)
    return dict.fromkeys(chain(
        preps, meas,
        [p + m for p in preps for m in meas],
        [p + g + m for p in preps for g in design.gates for m in meas]), 0)


def lgst_circuits(design: GstDesign) -> list[CircuitSpec]:
    """The linear-inversion circuit list: F, F_p F_m, F_p G F_m, deduplicated.

    Order is by form and then by design-list indices, so the output is a
    pure function of the design.
    """
    return [_spec(text, core) for text, core in _lgst_cores(design).items()]


def lsgst_circuits(design: GstDesign) -> list[CircuitSpec]:
    """The long-sequence circuit list: LGST plus germ-power circuits.

    For every germ g and target length L (ascending powers of two) the
    block g^r with r = floor(L / len(g)) is sandwiched between each
    fiducial pair; r = 0 reduces to F_p F_m, which the LGST family already
    contains.  A sequence reachable at several L keeps the smallest, so
    core_length is unique per circuit; sequences never produced by a germ
    block keep core_length 0.
    """
    if not design.germs:
        raise ValueError("long-sequence generation needs at least one germ")
    if design.max_germ_power is None:
        raise ValueError("long-sequence generation needs max_germ_power")

    cores = _lgst_cores(design)
    preps, meas = _texts(design.prep_fiducials), _texts(design.meas_fiducials)
    germs = list(zip(_texts(design.germs), map(len, design.germs)))
    for target in design.germ_powers:
        for germ, length in germs:
            reps = target // length
            if reps < 1:
                continue
            block = germ * reps
            for text in [p + block + m for p in preps for m in meas]:
                # Targets ascend, so the first germ-block occurrence of a
                # text, new or of fiducial form (core 0), has the least L.
                if cores.setdefault(text, target) == 0:
                    cores[text] = target
    return [_spec(text, core) for text, core in cores.items()]


# Fiducials and germs: circuit strings, or arrays of gate labels.
_CIRCUITS = ((list, (str, (list, (str,)))),)


@loader()
def load_design(path: Path) -> GstDesign:
    """Read a design from its JSON file form."""
    raw = read_json(path, (dict,))
    return GstDesign(
        gates=tuple(field(raw, "gates", STRINGS)),
        prep_fiducials=tuple(field(raw, "prep_fiducials", _CIRCUITS)),
        meas_fiducials=tuple(field(raw, "meas_fiducials", _CIRCUITS)),
        germs=tuple(field(raw, "germs", _CIRCUITS, default=[])),
        max_germ_power=raw.get("max_germ_power"),
    )


def save_circuits(circuits: Sequence[CircuitSpec], path: str | Path) -> None:
    entries = [{"spec": c.text, "core_length": c.core_length} for c in circuits]
    Path(path).write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
