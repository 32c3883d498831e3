"""Unit tests for the command-line interface (repro.cli)."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture()
def crane_xmi(tmp_path):
    path = tmp_path / "crane.xmi"
    assert main(["demo", "crane", str(path)]) == 0
    return str(path)


@pytest.fixture()
def didactic_xmi(tmp_path):
    path = tmp_path / "didactic.xmi"
    assert main(["demo", "didactic", str(path)]) == 0
    return str(path)


class TestDemo:
    def test_exports_every_case_study(self, tmp_path, capsys):
        for name in ("didactic", "crane", "synthetic", "mjpeg"):
            path = tmp_path / f"{name}.xmi"
            assert main(["demo", name, str(path)]) == 0
            assert path.exists() and path.stat().st_size > 100
        assert "wrote" in capsys.readouterr().out

    def test_unknown_demo(self, tmp_path, capsys):
        assert main(["demo", "nonsense", str(tmp_path / "x.xmi")]) == 2
        assert "unknown demo" in capsys.readouterr().err


class TestValidate:
    def test_ok_model(self, didactic_xmi, capsys):
        assert main(["validate", didactic_xmi]) == 0
        assert "OK" in capsys.readouterr().out

    def test_warnings_do_not_fail(self, crane_xmi, capsys):
        assert main(["validate", crane_xmi]) == 0
        assert "warning" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.xmi"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_require_deployment_flag(self, crane_xmi):
        assert main(["validate", crane_xmi, "--require-deployment"]) == 0


class TestSynthesize:
    def test_produces_mdl(self, crane_xmi, tmp_path, capsys):
        out = tmp_path / "crane.mdl"
        code = main(
            ["synthesize", crane_xmi, "-o", str(out), "--summary"]
        )
        assert code == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "CAAM" in output
        assert "temporal barriers inserted: 1" in output

    def test_intermediate_artifact(self, didactic_xmi, tmp_path):
        out = tmp_path / "d.mdl"
        inter = tmp_path / "d.caam.xml"
        assert (
            main(
                [
                    "synthesize",
                    didactic_xmi,
                    "-o",
                    str(out),
                    "--intermediate",
                    str(inter),
                ]
            )
            == 0
        )
        assert inter.read_text().startswith("<?xml")

    def test_auto_allocate(self, tmp_path):
        xmi = tmp_path / "s.xmi"
        main(["demo", "synthetic", str(xmi)])
        out = tmp_path / "s.mdl"
        assert (
            main(["synthesize", str(xmi), "-o", str(out), "--auto-allocate"])
            == 0
        )

    def test_strict_mode_fails_on_inference(self, tmp_path, capsys):
        from repro.uml import ModelBuilder, write_xmi

        b = ModelBuilder("ghosted")
        b.thread("T1")
        b.instance("Obj")
        b.processor("CPU1", threads=["T1"])
        sd = b.interaction("main")
        sd.call("T1", "Obj", "f", args=["ghost"])  # no producer anywhere
        xmi = tmp_path / "g.xmi"
        write_xmi(b.build(), str(xmi))
        out = tmp_path / "g.mdl"
        assert main(["synthesize", str(xmi), "-o", str(out), "--strict"]) != 0
        assert "ghost" in capsys.readouterr().err
        assert main(["synthesize", str(xmi), "-o", str(out)]) == 0


class TestSimulate:
    def test_runs_generated_model(self, didactic_xmi, tmp_path, capsys):
        out = tmp_path / "d.mdl"
        main(["synthesize", didactic_xmi, "-o", str(out)])
        code = main(
            ["simulate", str(out), "--steps", "3", "--input", "In1=2,4,6"]
        )
        assert code == 0
        assert "Out1:" in capsys.readouterr().out

    def test_deadlocked_model_reports_failure(self, crane_xmi, tmp_path, capsys):
        out = tmp_path / "c.mdl"
        main(
            ["synthesize", crane_xmi, "-o", str(out), "--no-barriers"]
        )
        assert main(["simulate", str(out)]) == 1
        assert "deadlock" in capsys.readouterr().err

    def test_bad_stimulus_syntax(self, didactic_xmi, tmp_path, capsys):
        out = tmp_path / "d.mdl"
        main(["synthesize", didactic_xmi, "-o", str(out)])
        assert main(["simulate", str(out), "--input", "oops"]) == 2
        assert "expected NAME=" in capsys.readouterr().err

    def test_bad_stimulus_values(self, didactic_xmi, tmp_path, capsys):
        out = tmp_path / "d.mdl"
        main(["synthesize", didactic_xmi, "-o", str(out)])
        code = main(["simulate", str(out), "--input", "In1=2,x,6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad sample values" in err
        assert "Traceback" not in err  # argparse error line, not a crash

    def test_model_without_output_ports_prints_hint(self, tmp_path, capsys):
        from repro.simulink.mdl import to_mdl
        from repro.simulink.model import Block, SimulinkModel

        model = SimulinkModel("quiet")
        const = model.root.add(
            Block("c", "Constant", inputs=0, parameters={"Value": 1.0})
        )
        gain = model.root.add(Block("g", "Gain", parameters={"Gain": 2.0}))
        model.root.connect(const.output(), gain.input())
        path = tmp_path / "quiet.mdl"
        path.write_text(to_mdl(model), encoding="utf-8")

        assert main(["simulate", str(path), "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "no root-level output ports" in out
        assert "--monitor" in out

        # With a monitor the same model produces a trace and no hint.
        assert (
            main(
                ["simulate", str(path), "--steps", "3", "--monitor", "quiet/g"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quiet/g: 2, 2, 2" in out
        assert "no root-level output ports" not in out


class TestCodegen:
    @pytest.mark.parametrize("backend", ["simulink", "java"])
    def test_backends(self, crane_xmi, tmp_path, backend):
        out = tmp_path / backend
        assert (
            main(
                ["codegen", crane_xmi, "--backend", backend, "-o", str(out)]
            )
            == 0
        )
        assert os.listdir(out)

    def test_fsm_backend_takes_the_same_lang_flag(self, tmp_path):
        from repro.uml.xmi import write_xmi
        from repro.zoo import generate_corpus

        scenario = next(s for s in generate_corpus(42, 10) if s.params.fsms)
        xmi = tmp_path / "fsm.xmi"
        write_xmi(scenario.model, str(xmi))
        out = tmp_path / "fsm"
        argv = ["codegen", str(xmi), "--backend", "fsm", "-o", str(out)]
        assert main(argv + ["--lang", "c", "--lang", "java"]) == 0
        suffixes = {os.path.splitext(name)[1] for name in os.listdir(out)}
        assert suffixes == {".c", ".h", ".java"}

    def test_sdf_backend_writes_sources_and_manifest(
        self, crane_xmi, tmp_path, capsys
    ):
        out = tmp_path / "sdf"
        code = main(
            [
                "codegen",
                crane_xmi,
                "--backend",
                "sdf",
                "--lang",
                "c",
                "--lang",
                "java",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert sorted(os.listdir(out)) == [
            "CraneSchedule.java",
            "crane.c",
            "crane.h",
            "trace_manifest.json",
        ]
        output = capsys.readouterr().out
        assert "schedule: 3 PE(s)" in output
        assert "firing order T1 -> T2 -> T3" in output
        manifest = json.loads((out / "trace_manifest.json").read_text())
        assert manifest["schema"] == "repro.codegen.trace/1"

    def test_sdf_backend_separate_manifest_path(self, crane_xmi, tmp_path):
        out = tmp_path / "src"
        manifest = tmp_path / "thread.json"
        code = main(
            [
                "codegen",
                crane_xmi,
                "--backend",
                "sdf",
                "-o",
                str(out),
                "--trace-manifest",
                str(manifest),
            ]
        )
        assert code == 0
        assert sorted(os.listdir(out)) == ["crane.c", "crane.h"]
        assert json.loads(manifest.read_text())["model"] == "crane"

    def test_unknown_backend(self, crane_xmi, tmp_path, capsys):
        assert (
            main(
                [
                    "codegen",
                    crane_xmi,
                    "--backend",
                    "cobol",
                    "-o",
                    str(tmp_path / "x"),
                ]
            )
            == 2
        )
        assert "unknown backend" in capsys.readouterr().err


class TestAllocateAndExplore:
    def test_allocate_prints_clustering(self, tmp_path, capsys):
        xmi = tmp_path / "s.xmi"
        main(["demo", "synthetic", str(xmi)])
        assert main(["allocate", str(xmi)]) == 0
        output = capsys.readouterr().out
        assert "task graph: 12 threads" in output
        assert "critical path: A -> B -> C -> D -> F -> J" in output

    def test_explore_prints_pareto(self, crane_xmi, capsys):
        assert main(["explore", crane_xmi]) == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output

    def test_explore_with_budget(self, crane_xmi, capsys):
        assert main(["explore", crane_xmi, "--max-cpus", "1"]) == 0


class TestCsvAndPartition:
    def test_simulate_csv_output(self, didactic_xmi, tmp_path, capsys):
        out = tmp_path / "d.mdl"
        main(["synthesize", didactic_xmi, "-o", str(out)])
        csv = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "simulate",
                    str(out),
                    "--steps",
                    "2",
                    "--input",
                    "In1=2,4",
                    "--csv",
                    str(csv),
                ]
            )
            == 0
        )
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("step,Out1")
        assert len(lines) == 3

    def test_partition_command(self, tmp_path, capsys):
        from repro.uml import ModelBuilder, read_xmi, write_xmi

        b = ModelBuilder("mono")
        b.thread("Main")
        b.io_device("Dev")
        sd = b.interaction("main")
        sd.call("Main", "Dev", "getIn", result="v0")
        sd.call("Main", "Main", "f0", args=["v0"], result="v1")
        sd.call("Main", "Main", "f1", args=["v1"], result="v2")
        sd.call("Main", "Dev", "setOut", args=["v2"])
        xmi = tmp_path / "mono.xmi"
        write_xmi(b.build(), str(xmi))
        out = tmp_path / "split.xmi"
        assert (
            main(["partition", str(xmi), "Main", "2", "-o", str(out)]) == 0
        )
        loaded = read_xmi(str(out))
        names = {i.name for i in loaded.all_instances()}
        assert {"Main_p0", "Main_p1"} <= names
        assert "split into" in capsys.readouterr().out

    def test_partition_error_path(self, tmp_path, capsys):
        from repro.uml import ModelBuilder, write_xmi

        b = ModelBuilder("m")
        b.thread("T")
        sd = b.interaction("main")
        sd.call("T", "T", "only")
        xmi = tmp_path / "m.xmi"
        write_xmi(b.build(), str(xmi))
        assert (
            main(["partition", str(xmi), "T", "5", "-o", str(tmp_path / "o.xmi")])
            != 0
        )
        assert "cannot split" in capsys.readouterr().err


class TestRenderCommand:
    def test_render_without_diagrams_fails(self, tmp_path, capsys):
        from repro.uml import Model, write_xmi

        xmi = tmp_path / "empty.xmi"
        write_xmi(Model("empty"), str(xmi))
        assert main(["render", str(xmi), "-o", str(tmp_path / "d")]) == 1
        assert "no diagrams" in capsys.readouterr().err

    def test_render_produces_puml_per_diagram(self, crane_xmi, tmp_path):
        out = tmp_path / "diagrams"
        assert main(["render", crane_xmi, "-o", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "deployment.puml" in files
        assert "sd_T3_control.puml" in files


class TestProcessConventions:
    def test_argparse_errors_return_2_instead_of_exiting(self, capsys):
        # main() must stay embeddable: argparse failures become return
        # codes, never SystemExit escaping to the caller.
        assert main(["serve", "--port", "not-a-number"]) == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(["no-such-command"]) == 2

    def test_keyboard_interrupt_exits_130(
        self, didactic_xmi, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_cmd_validate", interrupt)
        assert main(["validate", didactic_xmi]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err
