"""Unit + property tests for MDL serialization (repro.simulink.mdl)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulink import (
    Block,
    CaamModel,
    MdlError,
    SimulinkModel,
    SubSystem,
    from_mdl,
    run_model,
    to_mdl,
)
from repro.simulink.caam import CpuSubsystem, ThreadSubsystem

from .test_ecore import escaping_model, snapshot


def _accumulator_model():
    model = SimulinkModel("acc")
    c = model.root.add(Block("c", "Constant", inputs=0, parameters={"Value": 1.0}))
    s = model.root.add(Block("s", "Sum", inputs=2, parameters={"Inputs": "++"}))
    z = model.root.add(Block("z", "UnitDelay"))
    o = model.root.add(Block("Out1", "Outport", inputs=1, outputs=0, parameters={"Port": 1}))
    model.root.connect(c.output(), s.input(1))
    model.root.connect(z.output(), s.input(2))
    model.root.connect(s.output(), z.input(), o.input())
    return model


class TestWriter:
    def test_sections_present(self):
        text = to_mdl(_accumulator_model())
        assert text.startswith("Model {")
        assert 'Name "acc"' in text
        assert "System {" in text
        assert 'BlockType "UnitDelay"' in text
        assert "Branch {" in text  # the branched line

    def test_parameters_serialized_sorted(self):
        model = SimulinkModel("m")
        model.root.add(
            Block("b", "Gain", parameters={"Zeta": 1, "Alpha": 2})
        )
        text = to_mdl(model)
        assert text.index("Alpha") < text.index("Zeta")

    def test_callables_skipped(self):
        model = SimulinkModel("m")
        model.root.add(
            Block("f", "S-Function", parameters={"callback": lambda x: x})
        )
        text = to_mdl(model)
        assert "callback" not in text

    def test_booleans_as_on_off(self):
        model = SimulinkModel("m")
        model.root.add(Block("b", "Gain", parameters={"Flag": True}))
        assert 'Flag "on"' in to_mdl(model)

    def test_string_escaping(self):
        model = SimulinkModel("m")
        model.root.add(
            Block("b", "S-Function", parameters={"Source": 'say "hi"'})
        )
        text = to_mdl(model)
        loaded = from_mdl(text)
        assert loaded.root.block("b").parameters["Source"] == 'say "hi"'


class TestRoundTrip:
    def test_structure_survives(self):
        model = _accumulator_model()
        loaded = from_mdl(to_mdl(model))
        assert loaded.count_blocks() == model.count_blocks()
        assert len(loaded.root.lines) == len(model.root.lines)

    def test_behaviour_survives(self):
        loaded = from_mdl(to_mdl(_accumulator_model()))
        assert run_model(loaded, 4).output("Out1") == [1.0, 2.0, 3.0, 4.0]

    def test_caam_roles_reconstructed(self, didactic_result):
        loaded = from_mdl(to_mdl(didactic_result.caam))
        assert isinstance(loaded, CaamModel)
        assert isinstance(loaded.cpu("CPU1"), CpuSubsystem)
        assert isinstance(loaded.thread("T1"), ThreadSubsystem)
        assert loaded.summary() == didactic_result.caam.summary()

    def test_plain_model_stays_plain(self):
        loaded = from_mdl(to_mdl(_accumulator_model()))
        assert not isinstance(loaded, CaamModel)

    def test_double_round_trip_stable(self, crane_result):
        once = to_mdl(crane_result.caam)
        assert to_mdl(from_mdl(once)) == once

    def test_escaped_names_and_strings_survive(self):
        model = escaping_model()
        loaded = from_mdl(to_mdl(model))
        assert snapshot(loaded) == snapshot(model)
        assert to_mdl(loaded) == to_mdl(model)


class TestParserErrors:
    def test_missing_model_section(self):
        with pytest.raises(MdlError, match="no Model section"):
            from_mdl("NotAModel { }")

    def test_unbalanced_braces(self):
        with pytest.raises(MdlError):
            from_mdl("Model { System {")

    def test_unterminated_string(self):
        with pytest.raises(MdlError, match="unterminated"):
            from_mdl('Model { Name "oops }')

    def test_line_without_destination(self):
        text = """
Model {
  Name "m"
  System {
    Name "m"
    Block { BlockType "Gain"  Name "g"  Ports [1, 1] }
    Line { SrcBlock "g"  SrcPort 1 }
  }
}
"""
        with pytest.raises(MdlError, match="no destination"):
            from_mdl(text)

    def test_comments_ignored(self):
        text = """
# header comment
Model {
  Name "m"   # trailing comment
  System { Name "m" }
}
"""
        assert from_mdl(text).name == "m"

    def test_malformed_ports(self):
        text = """
Model {
  Name "m"
  System {
    Name "m"
    Block { BlockType "Gain"  Name "g"  Ports [x, y] }
  }
}
"""
        with pytest.raises(MdlError, match="Ports"):
            from_mdl(text)


_BLOCK_TYPES = ["Gain", "Sum", "Product", "UnitDelay", "Abs", "Saturation"]


@st.composite
def _random_simulink_models(draw):
    model = SimulinkModel("rnd")
    count = draw(st.integers(min_value=1, max_value=6))
    blocks = []
    for index in range(count):
        block_type = draw(st.sampled_from(_BLOCK_TYPES))
        inputs = 2 if block_type in ("Sum", "Product") else 1
        params = {}
        if block_type == "Gain":
            params["Gain"] = draw(
                st.floats(min_value=-5, max_value=5, allow_nan=False)
            )
        if block_type == "Sum":
            params["Inputs"] = "".join(
                draw(st.sampled_from(["++", "+-", "-+"]))
            )
        blocks.append(
            model.root.add(
                Block(f"b{index}", block_type, inputs=inputs, parameters=params)
            )
        )
    # Wire a random forward chain (acyclic by construction).
    for position in range(1, len(blocks)):
        source = blocks[draw(st.integers(0, position - 1))]
        dest = blocks[position]
        port = draw(st.integers(1, dest.num_inputs))
        if model.root.driver_of(dest.input(port)) is None:
            model.root.connect(source.output(1), dest.input(port))
    return model


class TestRoundTripProperties:
    @given(_random_simulink_models())
    @settings(max_examples=40, deadline=None)
    def test_census_preserved(self, model):
        loaded = from_mdl(to_mdl(model))
        assert loaded.count_blocks() == model.count_blocks()
        original = {
            (b.name, b.block_type, b.num_inputs, b.num_outputs)
            for b in model.all_blocks()
        }
        reloaded = {
            (b.name, b.block_type, b.num_inputs, b.num_outputs)
            for b in loaded.all_blocks()
        }
        assert original == reloaded

    @given(_random_simulink_models())
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, model):
        once = to_mdl(model)
        assert to_mdl(from_mdl(once)) == once
