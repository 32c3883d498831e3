"""Unit tests for FSM code generation (repro.fsm.codegen)."""

import re

import pytest

from repro.fsm import (
    Fsm,
    FsmError,
    generate_artifacts,
    generate_c,
    generate_header,
    generate_java,
)


def _machine():
    fsm = Fsm("door")
    fsm.add_state("closed", initial=True)
    fsm.add_state("open")
    fsm.add_variable("cycles", 0.0)
    fsm.add_transition(
        "closed", "open", event="unlock", guard="cycles < 10",
        action="cycles = cycles + 1",
    )
    fsm.add_transition("open", "closed", event="lock")
    return fsm


class TestCGeneration:
    def test_enums_and_struct(self):
        source = generate_c(_machine())
        assert "STATE_CLOSED," in source
        assert "STATE_OPEN," in source
        assert "EVENT_UNLOCK," in source
        assert "double cycles;" in source
        assert "door_state_t" in source

    def test_init_sets_initial_state_and_vars(self):
        source = generate_c(_machine())
        assert "fsm->state = STATE_CLOSED;" in source
        assert "fsm->cycles = 0.0;" in source

    def test_dispatch_guard_rewritten_to_struct_fields(self):
        source = generate_c(_machine())
        assert "fsm->cycles < 10" in source
        assert "fsm->cycles = fsm->cycles + 1" in source

    def test_transition_targets(self):
        source = generate_c(_machine())
        assert "fsm->state = STATE_OPEN;" in source
        assert "fsm->state = STATE_CLOSED;" in source

    def test_balanced_braces(self):
        source = generate_c(_machine())
        assert source.count("{") == source.count("}")


class TestJavaGeneration:
    def test_class_and_enums(self):
        source = generate_java(_machine())
        assert "public class Door" in source
        assert "CLOSED," in source and "OPEN," in source
        assert "UNLOCK," in source

    def test_custom_class_name(self):
        source = generate_java(_machine(), class_name="DoorFsm")
        assert "public class DoorFsm" in source

    def test_fields_initialized(self):
        source = generate_java(_machine())
        assert "private double cycles = 0.0;" in source
        assert "private State state = State.CLOSED;" in source

    def test_actions_use_this(self):
        source = generate_java(_machine())
        assert "this.cycles = this.cycles + 1" in source

    def test_balanced_braces(self):
        source = generate_java(_machine())
        assert source.count("{") == source.count("}")


class TestHeaderGeneration:
    def test_header_is_include_guarded(self):
        header = generate_header(_machine())
        assert header.count("REPRO_DOOR_H") == 3  # ifndef, define, endif
        assert header.index("#ifndef REPRO_DOOR_H") < header.index(
            "#define REPRO_DOOR_H"
        )
        assert header.rstrip().endswith("#endif /* REPRO_DOOR_H */")

    def test_header_declares_types_and_prototypes(self):
        header = generate_header(_machine())
        assert "door_state_t" in header
        assert "door_event_t" in header
        assert "double cycles;" in header
        assert "void door_init(door_t *fsm);" in header
        assert "void door_dispatch(door_t *fsm, door_event_t event);" in header


class TestIdentifierSanitization:
    def _spaced_machine(self):
        fsm = Fsm("lift controller-2")
        fsm.add_state("idle", initial=True)
        fsm.add_state("moving")
        fsm.add_transition("idle", "moving", event="call")
        return fsm

    def test_machine_name_with_spaces_and_hyphens(self):
        # Machine names are free-form UML strings; the symbol prefix is
        # mangled through repro.codegen.identifiers.sanitize.
        source = generate_c(self._spaced_machine())
        assert "lift_controller_2_state_t" in source
        assert "void lift_controller_2_init" in source
        assert "lift controller" not in source

    def test_header_guard_from_free_form_name(self):
        header = generate_header(self._spaced_machine())
        assert "#ifndef REPRO_LIFT_CONTROLLER_2_H" in header

    def test_java_class_name_from_free_form_name(self):
        source = generate_java(self._spaced_machine())
        assert "public class LiftController2" in source

    def test_artifacts_share_the_sanitized_stem(self):
        fsm = self._spaced_machine()
        c_files = generate_artifacts(fsm, "c")
        assert set(c_files) == {"lift_controller_2.c", "lift_controller_2.h"}
        assert '#include' in c_files["lift_controller_2.c"]
        java_files = generate_artifacts(fsm, "java")
        assert list(java_files) == ["LiftController2.java"]
        with pytest.raises(FsmError, match="unsupported"):
            generate_artifacts(fsm, "cobol")

    def test_state_names_still_must_be_identifiers(self):
        # States/variables/events appear verbatim inside guard and action
        # expressions — they cannot be silently rewritten.
        fsm = Fsm("ok name")
        fsm.add_state("has space", initial=True)
        with pytest.raises(FsmError, match="identifier"):
            generate_c(fsm)


class TestErrors:
    def test_invalid_identifier_rejected(self):
        fsm = Fsm("bad")
        fsm.add_state("has space", initial=True)
        with pytest.raises(FsmError, match="identifier"):
            generate_c(fsm)

    @pytest.mark.parametrize("generate", [generate_c, generate_header, generate_java])
    def test_reserved_word_variable_rejected(self, generate):
        # `double int;` fails gcc and `private double int` fails javac.
        fsm = Fsm("bad")
        fsm.add_state("idle", initial=True)
        fsm.add_variable("int", 0.0)
        with pytest.raises(FsmError, match="'int' is a reserved word"):
            generate(fsm)

    def test_no_initial_rejected(self):
        fsm = Fsm("empty")
        with pytest.raises(FsmError, match="no initial"):
            generate_c(fsm)
        with pytest.raises(FsmError, match="no initial"):
            generate_java(fsm)


class TestCrossCheck:
    def test_generated_c_transition_table_matches_simulation(self):
        """Parse the generated C dispatch and replay it in Python: the
        transition structure must agree with the FSM simulator."""
        from repro.fsm import FsmSimulator

        fsm = _machine()
        source = generate_c(fsm)
        # Every (state, event, target) triple must appear in the C code in
        # the right case block.
        for transition in fsm.transitions:
            case = f"case STATE_{transition.source.upper()}:"
            target = f"fsm->state = STATE_{transition.target.upper()};"
            case_pos = source.index(case)
            assert source.index(target, case_pos) > case_pos
        simulator = FsmSimulator(fsm)
        assert simulator.run(["unlock", "lock"]) == ["open", "closed"]
