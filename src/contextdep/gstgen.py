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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .counts import STRINGS, column, field, read_json

__all__ = [
    "CircuitSpec",
    "GstDesign",
    "register_gate_label",
    "known_gate_labels",
    "parse_circuit_text",
    "circuit_to_text",
    "lgst_circuits",
    "lsgst_circuits",
    "load_design",
    "save_design",
    "load_circuits",
    "save_circuits",
]

EMPTY_CIRCUIT_TEXT = "{}"

_GATE_LABELS: set[str] = {"Gi", "Gx", "Gy", "Gh", "Gs"}


def register_gate_label(label: str) -> None:
    """Add a gate label to the registry.

    Labels start with 'G' and contain no further 'G', which is what keeps
    concatenated circuit text unambiguous to parse.
    """
    if len(label) < 2 or not label.startswith("G") or "G" in label[1:]:
        raise ValueError(f"invalid gate label {label!r}: must be 'G' plus a G-free suffix")
    _GATE_LABELS.add(label)


def known_gate_labels() -> frozenset[str]:
    return frozenset(_GATE_LABELS)


def _check_labels(gates: Iterable[str], where: str) -> tuple[str, ...]:
    gates = tuple(gates)
    for label in gates:
        if label not in _GATE_LABELS:
            raise ValueError(f"{where}: unregistered gate label {label!r}")
    return gates


def parse_circuit_text(text: str) -> tuple[str, ...]:
    """Split concatenated labels ('GhGsGs') into a label tuple; '{}' is empty."""
    if text == EMPTY_CIRCUIT_TEXT:
        return ()
    if not text or not text.startswith("G"):
        raise ValueError(f"cannot parse circuit text {text!r}")
    starts = [i for i, ch in enumerate(text) if ch == "G"]
    starts.append(len(text))
    labels = tuple(text[a:b] for a, b in zip(starts, starts[1:]))
    return _check_labels(labels, f"circuit text {text!r}")


def circuit_to_text(gates: Sequence[str]) -> str:
    """Concatenated-label form of a gate sequence; empty becomes '{}'."""
    if not gates:
        return EMPTY_CIRCUIT_TEXT
    return "".join(gates)


@dataclass(frozen=True)
class CircuitSpec:
    """A gate sequence in operation order (first gate applied first)."""

    gates: tuple[str, ...]
    core_length: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", _check_labels(self.gates, "circuit"))
        if self.core_length < 0:
            raise ValueError("core_length must be non-negative")

    @property
    def length(self) -> int:
        return len(self.gates)

    @property
    def text(self) -> str:
        return circuit_to_text(self.gates)


def _parse_fiducials(entries: Sequence[str | Sequence[str]], what: str) -> tuple[tuple[str, ...], ...]:
    parsed = []
    for entry in entries:
        if isinstance(entry, str):
            parsed.append(parse_circuit_text(entry))
        else:
            parsed.append(_check_labels(entry, what))
    return tuple(parsed)


@dataclass(frozen=True)
class GstDesign:
    """Everything needed to generate a circuit list."""

    gates: tuple[str, ...]
    prep_fiducials: tuple[tuple[str, ...], ...]
    meas_fiducials: tuple[tuple[str, ...], ...]
    germs: tuple[tuple[str, ...], ...] = ()
    max_germ_power: int | None = None

    def __post_init__(self) -> None:
        gates = _check_labels(self.gates, "gate set")
        if not gates:
            raise ValueError("design needs a nonempty gate set")
        if len(set(gates)) != len(gates):
            raise ValueError("duplicate gate in gate set")
        preps = _parse_fiducials(self.prep_fiducials, "preparation fiducial")
        meas = _parse_fiducials(self.meas_fiducials, "measurement fiducial")
        if not preps or not meas:
            raise ValueError("design needs nonempty fiducial lists")
        germs = _parse_fiducials(self.germs, "germ")
        for germ in germs:
            if not germ:
                raise ValueError("zero-length germ")
        if self.max_germ_power is not None:
            l_max = self.max_germ_power
            if l_max < 1 or l_max & (l_max - 1):
                raise ValueError(f"max_germ_power must be a power of 2, got {l_max!r}")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "prep_fiducials", preps)
        object.__setattr__(self, "meas_fiducials", meas)
        object.__setattr__(self, "germs", germs)

    @property
    def germ_powers(self) -> tuple[int, ...]:
        """The target lengths 1, 2, 4, ..., max_germ_power."""
        if self.max_germ_power is None:
            return ()
        powers = []
        length = 1
        while length <= self.max_germ_power:
            powers.append(length)
            length *= 2
        return tuple(powers)


def lgst_circuits(design: GstDesign) -> list[CircuitSpec]:
    """The linear-inversion circuit list: F, F_p F_m, F_p G F_m, deduplicated.

    Order is by form and then by design-list indices, so the output is a
    pure function of the design.
    """
    seen: set[tuple[str, ...]] = set()
    circuits: list[CircuitSpec] = []

    def add(gates: tuple[str, ...]) -> None:
        if gates not in seen:
            seen.add(gates)
            circuits.append(CircuitSpec(gates=gates, core_length=0))

    for fiducial in design.prep_fiducials + design.meas_fiducials:
        add(fiducial)
    for prep in design.prep_fiducials:
        for meas in design.meas_fiducials:
            add(prep + meas)
    for prep in design.prep_fiducials:
        for gate in design.gates:
            for meas in design.meas_fiducials:
                add(prep + (gate,) + meas)
    return circuits


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

    circuits = lgst_circuits(design)
    index = {circuit.gates: i for i, circuit in enumerate(circuits)}

    for target in design.germ_powers:
        for germ in design.germs:
            reps = target // len(germ)
            if reps < 1:
                continue
            block = germ * reps
            for prep in design.prep_fiducials:
                for meas in design.meas_fiducials:
                    gates = prep + block + meas
                    at = index.get(gates)
                    if at is None:
                        index[gates] = len(circuits)
                        circuits.append(CircuitSpec(gates=gates, core_length=target))
                    elif circuits[at].core_length == 0:
                        # First germ-block occurrence of a fiducial-form
                        # sequence; targets ascend, so this L is minimal.
                        circuits[at] = CircuitSpec(gates=gates, core_length=target)
    return circuits


# Fiducials and germs: circuit strings, or arrays of gate labels.
_CIRCUITS = ((list, (str, (list, (str,)))),)


def load_design(path: str | Path) -> GstDesign:
    """Read a design from its JSON file form."""
    path = Path(path)
    raw = read_json(path, (dict,))
    where = str(path)
    design = dict(
        gates=tuple(field(raw, "gates", STRINGS, where)),
        prep_fiducials=tuple(field(raw, "prep_fiducials", _CIRCUITS, where)),
        meas_fiducials=tuple(field(raw, "meas_fiducials", _CIRCUITS, where)),
        germs=tuple(field(raw, "germs", _CIRCUITS, where, default=[])),
        max_germ_power=field(raw, "max_germ_power", (int, type(None)), where, default=None),
    )
    try:
        return GstDesign(**design)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_design(design: GstDesign, path: str | Path) -> None:
    obj: dict = {
        "gates": list(design.gates),
        "prep_fiducials": [circuit_to_text(f) for f in design.prep_fiducials],
        "meas_fiducials": [circuit_to_text(f) for f in design.meas_fiducials],
    }
    if design.germs:
        obj["germs"] = [circuit_to_text(g) for g in design.germs]
    if design.max_germ_power is not None:
        obj["max_germ_power"] = design.max_germ_power
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_circuits(path: str | Path) -> list[CircuitSpec]:
    """Read a circuit list from its JSON file form."""
    path = Path(path)
    entries = read_json(path, ((list, (dict,)),))
    specs = column(entries, "spec", (str,), f"{path}: circuit entry")
    cores = column(entries, "core_length", (int,), f"{path}: circuit entry", default=0)
    try:
        return [CircuitSpec(gates=parse_circuit_text(spec), core_length=core)
                for spec, core in zip(specs, cores)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_circuits(circuits: Sequence[CircuitSpec], path: str | Path) -> None:
    entries = [{"spec": c.text, "core_length": c.core_length} for c in circuits]
    Path(path).write_text(json.dumps(entries, indent=2) + "\n")
