"""Regenerate the data files bundled with the package.

The designs, drift error model, and the two example datasets under
src/contextdep/data/ are all products of this script.  The neighbor
dataset mixes one set of measured device counts (circuit GhGsGsGsGsGh)
with synthetic null pools for the other 39 circuits; rerunning with the
same seed reproduces the bundled file byte for byte.  The package reads
design and error-model files but never writes them, so their writers,
save_design and save_error_model, live here.

Usage: python demos/build_bundled_data.py [output_dir]
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from contextdep.counts import ContextDataset, save_dataset
from contextdep.gstgen import GstDesign, circuit_to_text
from contextdep.qsim import ErrorModel, SimConfig, run_drift_experiment

NEIGHBOR_SEED = 23

MEASURED_CIRCUIT = "GhGsGsGsGsGh"
MEASURED_COUNTS = {"idle": (1022, 2), "driven": (738, 286)}


def drift_design() -> GstDesign:
    fiducials = ("{}", "Gx", "Gy", "GxGx", "GxGxGx", "GyGyGy")
    return GstDesign(
        gates=("Gx", "Gy"),
        prep_fiducials=fiducials,
        meas_fiducials=fiducials,
        germs=("Gx", "Gy", "GxGy", "GxGxGy", "GxGyGy", "GxGxGyGxGyGy"),
        max_germ_power=256,
    )


def neighbor_design() -> GstDesign:
    return GstDesign(
        gates=("Gi", "Gh", "Gs"),
        prep_fiducials=("{}", "Gh", "GhGs", "GhGsGs"),
        meas_fiducials=("{}", "Gh", "GsGh", "GhGsGh"),
    )


def drift_error_model() -> ErrorModel:
    contexts = {
        f"t{t}": {"Gx": (t - 1) * 1e-3, "Gy": (t - 1) * 1e-3}
        for t in range(1, 6)
    }
    return ErrorModel(context_overrotations=contexts, static_epsilon=1e-3)


def two_context_dataset() -> ContextDataset:
    return ContextDataset(
        outcomes=("0", "1"),
        contexts=("c1", "c2"),
        circuit_ids=("Gx",),
        counts=np.array([[[99, 101], [131, 69]]], dtype=object),
        present=np.ones((1, 2), dtype=bool),
        specs=("Gx",),
        core_lengths=(None,),
        description=(
            "Single pi/2 x-rotation circuit repeated 200 times in each of "
            "two contexts; the outcome frequencies shift visibly between them."
        ),
    )


def neighbor_dataset() -> ContextDataset:
    """Null-simulate the 40-circuit family, then splice in the measured counts."""
    design = neighbor_design()
    null_model = ErrorModel(
        context_overrotations={"idle": {}, "driven": {}},
        static_epsilon=0.0,
    )
    config = SimConfig(shots_per_context=1024, seed=NEIGHBOR_SEED,
                       contexts=("idle", "driven"))
    # A design without germs simulates its linear-inversion list.
    dataset = run_drift_experiment(design, null_model, config)

    counts = dataset.counts.copy()
    counts[dataset.circuit_ids.index(MEASURED_CIRCUIT)] = [
        MEASURED_COUNTS[context] for context in dataset.contexts]
    return replace(
        dataset,
        counts=counts,
        description=(
            "Neighbor-activity comparison (contexts: idle, driven) over the "
            "40-circuit linear-inversion family on gates Gi, Gh, Gs, 1024 "
            "shots per pool. Counts for circuit GhGsGsGsGsGh are measured "
            "device values; every other circuit is a synthetic null pool "
            f"sampled from ideal-gate probabilities (seed {NEIGHBOR_SEED})."
        ),
    )


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
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def save_error_model(error: ErrorModel, path: str | Path) -> None:
    obj: dict = {
        context: dict(gate_map)
        for context, gate_map in error.context_overrotations.items()
    }
    obj["static_epsilon"] = error.static_epsilon
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def main() -> None:
    if len(sys.argv) > 1:
        out_dir = Path(sys.argv[1])
    else:
        out_dir = Path(__file__).resolve().parent.parent / "src" / "contextdep" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)

    save_design(drift_design(), out_dir / "design_drift.json")
    save_design(neighbor_design(), out_dir / "design_neighbor.json")
    save_error_model(drift_error_model(), out_dir / "error_model_drift.json")
    save_dataset(two_context_dataset(), out_dir / "dataset_two_context.json")
    save_dataset(neighbor_dataset(), out_dir / "dataset_neighbor.json")
    for name in sorted(p.name for p in out_dir.glob("*.json")):
        print(f"wrote {out_dir / name}")


if __name__ == "__main__":
    main()
