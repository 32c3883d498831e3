"""The MPSoC flow's multithreaded C, printed from the static schedule."""

import pytest

from repro.codegen import CodegenError, build_schedule
from repro.codegen.cemit import generate_threaded_c
from repro.simulink import Block, CaamModel


def _threaded(caam) -> str:
    files = generate_threaded_c(build_schedule(caam))
    (source,) = [text for name, text in files.items() if name.endswith(".c")]
    return source


def _one_thread_caam():
    caam = CaamModel("c")
    caam.add_cpu("CPU1")
    return caam, caam.add_thread("CPU1", "T")


class TestGeneratedStructure:
    def test_one_thread_function_per_cpu(self, didactic_result):
        files = generate_threaded_c(build_schedule(didactic_result.caam))
        assert set(files) == {"didactic_threads.c", "didactic.h"}
        source = files["didactic_threads.c"]
        assert source.count("_thread(void *arg) {") == 2

    def test_thread_functions_present(self, didactic_result):
        source = _threaded(didactic_result.caam)
        cpu1 = source[source.index("static void *cpu_CPU1_thread") :]
        cpu1 = cpu1[: cpu1.index("\n}\n")]
        assert cpu1.index("pe_T1_step();") < cpu1.index("pe_T2_step();")
        assert "pe_T3_step();" not in cpu1
        assert "pthread_create(&thread, NULL, cpu_CPU1_thread, NULL);" in source

    def test_sfunction_calls_emitted(self, didactic_result):
        source = _threaded(didactic_result.caam)
        # calc = 2x + 1 and dec = 1x - 1, lowered from their codegen_spec.
        assert "0x1.0000000000000p+1 * rb1_pop + 0x1.0000000000000p+0;" in source
        assert "0x1.0000000000000p+0 * rb1_pop + -0x1.0000000000000p+0;" in source

    def test_product_block_lowered_to_multiplication(self, didactic_result):
        source = _threaded(didactic_result.caam)
        assert "v_CPU1_T1_mult = v_CPU1_T1_calc * v_CPU1_T1_dec;" in source

    def test_channel_reads_use_protocol_flavour(self, didactic_result):
        source = _threaded(didactic_result.caam)
        # T3 (CPU2) -> T1 (CPU1) crosses CPUs; T1 -> T2 stays on CPU1.
        assert "/* GFIFO T3 -> T1: didactic/ch_T3_T1_value */" in source
        assert "/* SWFIFO T1 -> T2: didactic/CPU1/ch_T1_partial */" in source
        assert "rb1_pop = fifo_pop(&rb1);" in source
        assert "fifo_push(&rb0, v_CPU1_T1_dec);" in source

    def test_io_ports_use_io_flavour(self, crane_result):
        source = _threaded(crane_result.caam)
        step = source[source.index("void crane_step(") :]
        assert "inputs[0];" in step
        assert "outputs[0] = " in step

    def test_delay_state_variables(self, crane_result):
        source = _threaded(crane_result.caam)
        assert "/* UnitDelay " in source
        # The state is read first and updated after every signal is final.
        read_pos = source.index("= s_")
        update_pos = source.index(
            "    s_", source.index("\n", read_pos)
        )
        assert update_pos > read_pos

    def test_balanced_braces(self, crane_result):
        source = _threaded(crane_result.caam)
        assert source.count("{") == source.count("}")


class TestDataflowOrder:
    def test_topological_over_feedthrough(self):
        caam, thread = _one_thread_caam()
        # Added consumer-first: the schedule still orders a before b.
        b = thread.system.add(Block("b", "Gain"))
        a = thread.system.add(Block("a", "Constant", inputs=0))
        thread.system.connect(a.output(), b.input())
        source = _threaded(caam)
        assert source.index("v_CPU1_T_a = ") < source.index("v_CPU1_T_b = ")

    def test_algebraic_loop_rejected(self):
        caam, thread = _one_thread_caam()
        a = thread.system.add(Block("a", "Gain"))
        b = thread.system.add(Block("b", "Gain"))
        thread.system.connect(a.output(), b.input())
        thread.system.connect(b.output(), a.input())
        with pytest.raises(CodegenError, match="algebraic loop"):
            build_schedule(caam)

    def test_delay_breaks_order_requirement(self):
        caam, thread = _one_thread_caam()
        a = thread.system.add(Block("a", "Gain"))
        z = thread.system.add(Block("z", "UnitDelay"))
        thread.system.connect(a.output(), z.input())
        thread.system.connect(z.output(), a.input())
        source = _threaded(caam)
        assert "static double s_CPU1_T_z;" in source


class TestGenericBlocks:
    def test_unknown_block_type_rejected(self):
        caam, thread = _one_thread_caam()
        thread.system.add(Block("odd", "Quantizer"))
        with pytest.raises(CodegenError, match="unsupported type 'Quantizer'"):
            build_schedule(caam)

    def test_sum_with_signs(self):
        caam, thread = _one_thread_caam()
        a = thread.system.add(Block("a", "Constant", inputs=0, parameters={"Value": 1}))
        b = thread.system.add(Block("b", "Constant", inputs=0, parameters={"Value": 2}))
        s = thread.system.add(Block("s", "Sum", inputs=2, parameters={"Inputs": "+-"}))
        thread.system.connect(a.output(), s.input(1))
        thread.system.connect(b.output(), s.input(2))
        source = _threaded(caam)
        assert "v_CPU1_T_s = 0.0 + v_CPU1_T_a - v_CPU1_T_b;" in source
