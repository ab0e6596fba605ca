"""Circuit-list generation: sizes, ordering, core lengths, file formats."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.datasets import drift_design, neighbor_design
from contextdep.gstgen import (MAX_GERM_POWER, CircuitSpec, GstDesign, circuit_to_text,
                               lgst_circuits, load_design, lsgst_circuits, parse_circuit_text,
                               save_circuits)

from _references import lsgst_circuits_reference
from test_demos import import_demo

_BUNDLED_DATA = import_demo("build_bundled_data")


class TestCircuitText:
    def test_parse_examples(self):
        assert parse_circuit_text("{}") == ()
        assert parse_circuit_text("Gx") == ("Gx",)
        assert parse_circuit_text("GhGsGsGsGsGh") == ("Gh", "Gs", "Gs", "Gs", "Gs", "Gh")

    def test_format_examples(self):
        assert circuit_to_text(()) == "{}"
        assert circuit_to_text(("Gx", "Gy", "Gx")) == "GxGyGx"

    def test_round_trip(self):
        for text in ("{}", "Gx", "GxGxGyGxGyGy", "GhGsGh"):
            assert circuit_to_text(parse_circuit_text(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ("", "xG", "Gx Gy", "Gz", "GxGq"):
            with pytest.raises(ValueError):
                parse_circuit_text(text)


label_texts = st.lists(st.sampled_from(["Gi", "Gx", "Gy", "Gh", "Gs"]),
                       min_size=0, max_size=12).map(tuple)


@settings(max_examples=200, deadline=None)
@given(gates=label_texts)
def test_text_round_trip_property(gates):
    assert parse_circuit_text(circuit_to_text(gates)) == gates


class TestCircuitSpec:
    def test_properties(self):
        spec = CircuitSpec(text=("Gx", "Gy"), core_length=2)
        assert spec.length == 2
        assert spec.text == "GxGy"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitSpec(text=("Gz",))
        with pytest.raises(ValueError):
            CircuitSpec(text=("Gx",), core_length=-1)

    @pytest.mark.parametrize("core_length", [2.5, True, None])
    def test_core_length_follows_the_dataset_rule(self, core_length):
        # 2.5 and True were once accepted, and save_circuits wrote a list
        # that the circuit-list reader of that time rejected.
        with pytest.raises(ValueError, match="core_length must be a non-negative integer"):
            CircuitSpec("Gx", core_length=core_length)

    def test_text_and_labels_make_the_same_spec(self):
        spec = CircuitSpec("GxGyGy", 4)
        assert spec == CircuitSpec(text=("Gx", "Gy", "Gy"), core_length=4)
        assert spec.gates == ("Gx", "Gy", "Gy")
        assert spec.length == 3
        assert CircuitSpec("{}") == CircuitSpec(text=())
        assert CircuitSpec("{}").gates == () and CircuitSpec("{}").length == 0

    @pytest.mark.parametrize("gates, message", [
        ("GxGq", "unknown gate label 'Gq'"),
        ("", "cannot parse"),
        ("xGx", "cannot parse"),
        ("Gx Gy", "unknown gate label 'Gx '"),
        ("GxG", "unknown gate label 'G'"),
        (("Gx", "GxGy"), "unknown gate label 'GxGy'"),
        (("Gx", ""), "unknown gate label ''"),
    ])
    def test_text_and_labels_are_checked(self, gates, message):
        with pytest.raises(ValueError, match=message):
            CircuitSpec(gates)


class TestGstDesign:
    def test_accepts_text_fiducials(self):
        design = GstDesign(gates=("Gx",), prep_fiducials=("{}", "Gx"),
                           meas_fiducials=("{}",))
        assert design.prep_fiducials == ((), ("Gx",))

    def test_germ_powers(self):
        design = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                           meas_fiducials=("{}",), germs=("Gx",),
                           max_germ_power=16)
        assert design.germ_powers == (1, 2, 4, 8, 16)

    def test_max_power_must_be_power_of_two(self):
        # True was once taken for 1, and saved as a file load_design refused.
        for bad in (0, 3, 6, 100, True, 4.0):
            with pytest.raises(ValueError):
                GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                          meas_fiducials=("{}",), germs=("Gx",),
                          max_germ_power=bad)

    def test_max_power_is_bounded(self):
        def design(power):
            return GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                             meas_fiducials=("{}",), germs=("Gx",),
                             max_germ_power=power)

        assert design(MAX_GERM_POWER).germ_powers[-1] == MAX_GERM_POWER
        for power in (2 * MAX_GERM_POWER, 2 ** 40, 2 ** 1000):
            with pytest.raises(ValueError, match=f"^max_germ_power must be at most "
                                                 f"{MAX_GERM_POWER}, got {power}$"):
                design(power)

    def test_rejects_degenerate_designs(self):
        with pytest.raises(ValueError):
            GstDesign(gates=(), prep_fiducials=("{}",), meas_fiducials=("{}",))
        with pytest.raises(ValueError):
            GstDesign(gates=("Gx", "Gx"), prep_fiducials=("{}",),
                      meas_fiducials=("{}",))
        with pytest.raises(ValueError):
            GstDesign(gates=("Gx",), prep_fiducials=(), meas_fiducials=("{}",))
        with pytest.raises(ValueError):
            GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                      meas_fiducials=("{}",), germs=("{}",))

    @pytest.mark.parametrize("fiducials, shown", [
        ((-1,), "got -1"),  # neither a text nor an iterable of labels
        ((["Gx", ["Gx"]],), r"got \['Gx', \['Gx'\]\]"),  # an unhashable label
    ])
    def test_malformed_fiducial_names_its_list(self, fiducials, shown):
        # Both were once a TypeError from deep inside the label check.
        with pytest.raises(ValueError, match=f"^preparation fiducial: .*{shown}$"):
            GstDesign(gates=("Gx",), prep_fiducials=fiducials, meas_fiducials=("{}",))


class TestLgst:
    def test_minimal_design_gives_two_circuits(self):
        design = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                           meas_fiducials=("{}",))
        circuits = lgst_circuits(design)
        assert [c.text for c in circuits] == ["{}", "Gx"]
        assert all(c.core_length == 0 for c in circuits)

    def test_two_gate_design_counts_and_order(self):
        design = GstDesign(gates=("Gx", "Gy"), prep_fiducials=("{}", "Gx"),
                           meas_fiducials=("{}", "Gy"))
        texts = [c.text for c in lgst_circuits(design)]
        # Fiducials first, then prep+meas products, then prep+gate+meas.
        assert texts[:3] == ["{}", "Gx", "Gy"]
        assert "GxGy" in texts
        assert "GxGxGy" in texts
        assert len(texts) == len(set(texts))

    def test_bundled_neighbor_design_size(self):
        circuits = lgst_circuits(neighbor_design())
        assert len(circuits) == 40
        assert max(c.length for c in circuits) <= 7

    def test_bundled_drift_design_lgst(self):
        circuits = lgst_circuits(drift_design())
        texts = [c.text for c in circuits]
        assert len(texts) == len(set(texts))
        # every prep+gate+meas product is present
        design = drift_design()
        for prep in design.prep_fiducials:
            for gate in design.gates:
                for meas in design.meas_fiducials:
                    assert circuit_to_text(prep + (gate,) + meas) in texts

    def test_deterministic(self):
        design = neighbor_design()
        assert lgst_circuits(design) == lgst_circuits(design)


class TestLsgst:
    def test_bundled_drift_design_size(self):
        circuits = lsgst_circuits(drift_design())
        assert len(circuits) == 1405
        assert max(c.length for c in circuits) == 262

    def test_core_lengths_are_exactly_the_powers(self):
        circuits = lsgst_circuits(drift_design())
        assert {c.core_length for c in circuits} == {0, 1, 2, 4, 8, 16, 32, 64,
                                                     128, 256}
        # Only the empty sequence is outside every germ-power family.
        untouched = [c for c in circuits if c.core_length == 0]
        assert [c.text for c in untouched] == ["{}"]

    def test_contains_lgst_family(self):
        design = drift_design()
        lgst_texts = {c.text for c in lgst_circuits(design)}
        lsgst_texts = {c.text for c in lsgst_circuits(design)}
        assert lgst_texts <= lsgst_texts

    def test_no_duplicates_and_deterministic(self):
        design = drift_design()
        circuits = lsgst_circuits(design)
        texts = [c.text for c in circuits]
        assert len(texts) == len(set(texts))
        assert circuits == lsgst_circuits(design)

    def test_germ_block_repetition_counts(self):
        design = GstDesign(gates=("Gx", "Gy"), prep_fiducials=("{}",),
                           meas_fiducials=("{}",),
                           germs=("Gx", "GxGxGy"), max_germ_power=8)
        by_text = {c.text: c for c in lsgst_circuits(design)}
        # length-1 germ: r = L at every target
        assert "Gx" in by_text and by_text["Gx"].core_length == 1
        assert by_text["GxGxGxGx"].core_length == 4
        # length-3 germ appears first at L = 4 with r = 1, then r = 2 at L = 8
        assert by_text["GxGxGy"].core_length == 4
        assert by_text["GxGxGyGxGxGy"].core_length == 8
        assert "GxGxGyGxGxGyGxGxGy" not in by_text

    def test_core_length_takes_smallest_target(self):
        # Gx appears as an LGST circuit (core 0), then the germ reaches it
        # at L = 1; GxGx is reached at L = 2, not relabeled at higher L.
        design = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                           meas_fiducials=("{}",), germs=("Gx",),
                           max_germ_power=4)
        by_text = {c.text: c for c in lsgst_circuits(design)}
        assert by_text["Gx"].core_length == 1
        assert by_text["GxGx"].core_length == 2
        assert by_text["GxGxGxGx"].core_length == 4
        assert by_text["{}"].core_length == 0

    def test_requires_germs_and_power(self):
        bare = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                         meas_fiducials=("{}",))
        with pytest.raises(ValueError):
            lsgst_circuits(bare)
        no_power = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                             meas_fiducials=("{}",), germs=("Gx",))
        with pytest.raises(ValueError):
            lsgst_circuits(no_power)


# Small designs over four labels, so that fiducials and germ blocks often
# join to equal texts, which equal label tuples must match.
_LABELS = ["Gi", "Gx", "Gy", "Gh"]
_FRAGMENTS = st.lists(st.sampled_from(_LABELS), max_size=3).map(tuple)


@st.composite
def small_designs(draw):
    return GstDesign(
        gates=tuple(draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3,
                                  unique=True))),
        prep_fiducials=tuple(draw(st.lists(_FRAGMENTS, min_size=1, max_size=3))),
        meas_fiducials=tuple(draw(st.lists(_FRAGMENTS, min_size=1, max_size=3))),
        germs=tuple(draw(st.lists(_FRAGMENTS.filter(bool), min_size=1, max_size=3))),
        max_germ_power=2 ** draw(st.integers(0, 4)),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generator_matches_label_tuple_oracle(data):
    design = data.draw(small_designs())
    circuits = lsgst_circuits(design)
    expected = lsgst_circuits_reference(design)
    assert [(c.text, c.core_length) for c in circuits] == expected
    # The LGST list is the long list's head, with no core lengths.
    lgst = lgst_circuits(design)
    assert [c.text for c in lgst] == [text for text, _ in expected[:len(lgst)]]
    assert all(c.core_length == 0 for c in lgst)
    # A generated spec is the one the checked constructor builds.
    assert circuits == [CircuitSpec(c.gates, c.core_length) for c in circuits]


class TestDesignFiles:
    def test_design_round_trip(self, tmp_path):
        design = drift_design()
        path = tmp_path / "design.json"
        _BUNDLED_DATA.save_design(design, path)
        assert load_design(path) == design

    def test_circuit_list_round_trip(self, tmp_path):
        circuits = lsgst_circuits(drift_design())
        path = tmp_path / "circuits.json"
        save_circuits(circuits, path)
        entries = json.loads(path.read_text(encoding="utf-8"))
        assert [CircuitSpec(e["spec"], e["core_length"]) for e in entries] == circuits

    def test_circuit_list_bytes_stable(self, tmp_path):
        circuits = lgst_circuits(neighbor_design())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_circuits(circuits, a)
        save_circuits(circuits, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_design_errors(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_design(broken)
        missing = tmp_path / "missing.json"
        missing.write_text('{"gates": ["Gx"]}')
        with pytest.raises(ValueError, match="prep_fiducials"):
            load_design(missing)

    @pytest.mark.parametrize("fields, message", [
        ({"gates": 5}, "'gates'"),
        ({"gates": ["Gx", 3]}, "'gates'"),
        ({"meas_fiducials": "Gx"}, "'meas_fiducials'"),
        ({"germs": [[1]]}, "'germs'"),
        ({"germs": ["Gx"], "max_germ_power": 4.0}, "max_germ_power"),
        ({"germs": ["Gx"], "max_germ_power": True}, "max_germ_power"),
    ])
    def test_load_design_rejects_wrong_types(self, tmp_path, fields, message):
        design = {"gates": ["Gx"], "prep_fiducials": ["{}"], "meas_fiducials": ["{}"]}
        path = tmp_path / "design.json"
        path.write_text(json.dumps({**design, **fields}))
        with pytest.raises(ValueError, match=message):
            load_design(path)

    def test_bundled_designs_load(self):
        drift = drift_design()
        assert drift.gates == ("Gx", "Gy")
        assert len(drift.germs) == 6
        assert drift.max_germ_power == 256
        neighbor = neighbor_design()
        assert set(neighbor.gates) == {"Gi", "Gh", "Gs"}
        assert neighbor.germs == ()
