"""Unit tests for E-core XML serialization (repro.simulink.ecore)."""

import pytest

from repro.simulink import (
    Block,
    CaamModel,
    EcoreError,
    SimulinkModel,
    SubSystem,
    from_ecore_string,
    run_model,
    to_ecore_string,
)


#: Every character the E-core and ``.mdl`` printers must escape or carry
#: through verbatim: XML specials, both quotes, CR/LF/TAB, a backslash
#: and non-ASCII.
TRICKY = "& < > \" ' \r \n \t \\ \u00fc\u2211"


def three_block_model():
    """Constant → Gain → Outport with a tricky string in every name."""
    model = SimulinkModel(f"model {TRICKY}")
    model.parameters["Description"] = f"solver {TRICKY}"
    c = model.root.add(
        Block(f"src {TRICKY}", "Constant", inputs=0,
              parameters={"Value": 2.0, "Label": TRICKY})
    )
    g = model.root.add(Block(f"gain {TRICKY}", "Gain", parameters={"Gain": 3}))
    o = model.root.add(
        Block(f"out {TRICKY}", "Outport", inputs=1, outputs=0,
              parameters={"Port": 1, "Visible": True})
    )
    model.root.connect(c.output(), g.input())
    model.root.connect(g.output(), o.input())
    return model


def escaping_model():
    """The three-block model plus a subsystem with a tricky system name."""
    model = three_block_model()
    sub = model.root.add(SubSystem(f"sub {TRICKY}", parameters={"Note": TRICKY}))
    inp = sub.add_inport(f"in {TRICKY}")
    outp = sub.add_outport(f"out {TRICKY}")
    inner = sub.system.add(Block(f"inner {TRICKY}", "Gain", parameters={"Gain": 0.5}))
    sub.system.connect(inp.output(), inner.input())
    sub.system.connect(inner.output(), outp.input())
    model.root.connect(model.root.block(f"src {TRICKY}").output(), sub.input(1))
    model.root.add(Block("sink", "Terminator", inputs=1, outputs=0))
    model.root.connect(sub.output(1), model.root.block("sink").input())
    return model


def snapshot(model):
    """Names, parameter values and types, and wiring, recursively."""

    def system(sys):
        blocks = [
            (
                b.name,
                b.block_type,
                b.num_inputs,
                b.num_outputs,
                sorted((k, type(v).__name__, v) for k, v in b.parameters.items()),
                system(b.system) if isinstance(b, SubSystem) else None,
            )
            for b in sys.blocks
        ]
        lines = [
            (
                line.source.block.name,
                line.source.index,
                [(d.block.name, d.index) for d in line.destinations],
            )
            for line in sys.lines
        ]
        return (sys.name, blocks, lines)

    params = sorted((k, type(v).__name__, v) for k, v in model.parameters.items())
    return (model.name, params, system(model.root))


#: ``to_ecore_string(three_block_model())``, recorded from the
#: ElementTree-based printer this module's output must stay identical to.
THREE_BLOCK_ECORE = r"""<?xml version='1.0' encoding='utf-8'?>
<caam:Model xmlns:caam="http://repro.example.org/caam/1.0" name="model &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑">
  <parameter key="Description" value="solver &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" type="str" />
  <parameter key="FixedStep" value="1.0" type="float" />
  <parameter key="Solver" value="FixedStepDiscrete" type="str" />
  <system name="model &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑">
    <block name="src &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" type="Constant" inputs="0" outputs="1">
      <parameter key="Label" value="&amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" type="str" />
      <parameter key="Value" value="2.0" type="float" />
    </block>
    <block name="gain &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" type="Gain" inputs="1" outputs="1">
      <parameter key="Gain" value="3" type="int" />
    </block>
    <block name="out &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" type="Outport" inputs="1" outputs="0">
      <parameter key="Port" value="1" type="int" />
      <parameter key="Visible" value="True" type="bool" />
    </block>
    <line srcBlock="src &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" srcPort="1">
      <destination dstBlock="gain &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" dstPort="1" />
    </line>
    <line srcBlock="gain &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" srcPort="1">
      <destination dstBlock="out &amp; &lt; &gt; &quot; ' &#13; &#10; &#09; \ ü∑" dstPort="1" />
    </line>
  </system>
</caam:Model>"""


def _model():
    model = SimulinkModel("m")
    sub = SubSystem("S")
    model.root.add(sub)
    inp = sub.add_inport("in")
    outp = sub.add_outport("out")
    g = sub.system.add(Block("g", "Gain", parameters={"Gain": 4.0}))
    sub.system.connect(inp.output(), g.input())
    sub.system.connect(g.output(), outp.input())
    c = model.root.add(Block("c", "Constant", inputs=0, parameters={"Value": 1.0}))
    o = model.root.add(Block("Out1", "Outport", inputs=1, outputs=0, parameters={"Port": 1}))
    model.root.connect(c.output(), sub.input(1))
    model.root.connect(sub.output(1), o.input())
    return model


class TestRoundTrip:
    def test_structure_and_behaviour(self):
        loaded = from_ecore_string(to_ecore_string(_model()))
        assert loaded.count_blocks() == 6
        assert run_model(loaded, 2).output("Out1") == [4.0, 4.0]

    def test_parameter_types_preserved(self):
        model = SimulinkModel("m")
        model.root.add(
            Block(
                "b",
                "Gain",
                parameters={"I": 3, "F": 2.5, "S": "text", "B": True},
            )
        )
        loaded = from_ecore_string(to_ecore_string(model))
        params = loaded.root.block("b").parameters
        assert params["I"] == 3 and isinstance(params["I"], int)
        assert params["F"] == 2.5 and isinstance(params["F"], float)
        assert params["S"] == "text"
        assert params["B"] is True

    def test_caam_detection(self, didactic_result):
        loaded = from_ecore_string(to_ecore_string(didactic_result.caam))
        assert isinstance(loaded, CaamModel)
        assert loaded.summary() == didactic_result.caam.summary()

    def test_model_parameters_survive(self):
        model = _model()
        model.parameters["FixedStep"] = 0.25
        loaded = from_ecore_string(to_ecore_string(model))
        assert loaded.parameters["FixedStep"] == 0.25

    def test_idempotent(self):
        once = to_ecore_string(_model())
        assert to_ecore_string(from_ecore_string(once)) == once


class TestEscaping:
    def test_round_trip_keeps_every_value(self):
        model = escaping_model()
        loaded = from_ecore_string(to_ecore_string(model))
        assert snapshot(loaded) == snapshot(model)

    def test_three_block_output_is_pinned(self):
        assert to_ecore_string(three_block_model()) == THREE_BLOCK_ECORE

    def test_idempotent(self):
        once = to_ecore_string(escaping_model())
        assert to_ecore_string(from_ecore_string(once)) == once


class TestErrors:
    def test_invalid_xml(self):
        with pytest.raises(EcoreError, match="invalid XML"):
            from_ecore_string("<oops")

    def test_missing_system(self):
        with pytest.raises(EcoreError, match="no <system>"):
            from_ecore_string('<caam:Model xmlns:caam="x" name="m"/>')

    def test_line_without_destination(self):
        text = """<caam:Model xmlns:caam="x" name="m">
  <system name="m">
    <block name="g" type="Gain" inputs="1" outputs="1"/>
    <line srcBlock="g" srcPort="1"/>
  </system>
</caam:Model>"""
        with pytest.raises(EcoreError, match="no destination"):
            from_ecore_string(text)


class TestForbiddenCharacters:
    """XML 1.0 cannot carry these characters even as references, so the
    printer refuses them instead of writing a document its own parser
    rejects."""

    @pytest.mark.parametrize("char", ["\x00", "\x0b", "\x0c", "\x1f", "\ufffe"])
    def test_block_name_is_rejected_and_named(self, char):
        model = SimulinkModel("m")
        model.root.add(Block(f"a{char}b", "Gain"))
        with pytest.raises(EcoreError, match="block 'a.*b'.*XML 1.0 forbids"):
            to_ecore_string(model)

    def test_nested_parameter_value_names_its_blocks(self):
        model = SimulinkModel("m")
        outer = model.root.add(SubSystem("outer"))
        outer.system.add(Block("g", "Gain", parameters={"Label": "x\x0by"}))
        with pytest.raises(EcoreError, match="block 'outer': block 'g':"):
            to_ecore_string(model)

    def test_model_name_is_rejected(self):
        with pytest.raises(EcoreError, match="XML 1.0 forbids"):
            to_ecore_string(SimulinkModel("m\x01"))
