"""The `repro zoo` command: generate / run."""

import json

from repro.cli import main


class TestZooGenerate:
    def test_manifest_to_stdout(self, capsys):
        assert main(["zoo", "generate", "--count", "3"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 3
        assert len(document["scenarios"]) == 3

    def test_manifest_file_and_xmi_export(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.json"
        xmi_dir = tmp_path / "models"
        assert (
            main(
                [
                    "zoo",
                    "generate",
                    "--count",
                    "4",
                    "--manifest",
                    str(manifest),
                    "--xmi-dir",
                    str(xmi_dir),
                ]
            )
            == 0
        )
        document = json.loads(manifest.read_text(encoding="utf-8"))
        assert len(list(xmi_dir.glob("*.xmi"))) == 4
        names = {record["name"] for record in document["scenarios"]}
        assert {p.stem for p in xmi_dir.glob("*.xmi")} == names

    def test_bad_family_is_a_cli_error(self, capsys):
        # CliError maps to the CLI's usage-error status (2).
        assert main(["zoo", "generate", "--families", "spaghetti"]) == 2
        assert "unknown scenario families" in capsys.readouterr().err


class TestZooRun:
    def test_corpus_green(self, capsys):
        assert main(["zoo", "run", "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "6/6 scenarios ok" in out

    def test_verify_manifest_first(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.json"
        assert (
            main(
                ["zoo", "generate", "--count", "3", "--manifest", str(manifest)]
            )
            == 0
        )
        assert (
            main(
                [
                    "zoo",
                    "run",
                    "--count",
                    "3",
                    "--verify",
                    str(manifest),
                ]
            )
            == 0
        )
        assert "reproduces byte-identically" in capsys.readouterr().out

    def test_verify_rejects_tampered_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.json"
        main(["zoo", "generate", "--count", "3", "--manifest", str(manifest)])
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["corpus_digest"] = "0" * 64
        document["scenarios"][0]["model_fingerprint"] = "0" * 64
        manifest.write_text(json.dumps(document), encoding="utf-8")
        assert (
            main(["zoo", "run", "--count", "3", "--verify", str(manifest)])
            == 1
        )
        assert "manifest:" in capsys.readouterr().err
