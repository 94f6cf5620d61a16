"""Tests for the `python -m repro` figure-regeneration CLI."""

import json

import pytest

from repro.__main__ import SECTIONS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig5", "fig9"):
            assert name in out

    def test_table1_section(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "330" in out

    def test_snr_section(self, capsys):
        assert main(["snr"]) == 0
        out = capsys.readouterr().out
        assert "Section 7.2" in out
        assert "SOI" in out

    def test_traffic_section(self, capsys):
        assert main(["traffic"]) == 0
        out = capsys.readouterr().out
        assert "all-to-all rounds" in out

    def test_fig9_section(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "c=0.75" in out

    def test_model_figures(self, capsys):
        assert main(["fig5", "fig6", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 6" in out and "Figure 8" in out
        assert "speedup SOI over MKL" in out

    def test_unknown_section_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig42"])

    def test_all_section_names_registered(self):
        assert set(SECTIONS) == {
            "table1",
            "snr",
            "traffic",
            "trace",
            "serve",
            "check",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
        }


def _json_payload(out: str) -> dict:
    """The JSON object `--json` appends after the text output."""
    return json.loads(out[out.index("{\n") :])


class TestJsonOutput:
    def test_json_flag_appends_parseable_payload(self, capsys):
        assert main(["snr", "traffic", "--json"]) == 0
        out = capsys.readouterr().out
        assert "Section 7.2" in out  # text tables still printed
        payload = _json_payload(out)
        assert set(payload) == {"snr", "traffic"}
        assert payload["snr"]["soi_snr_db"] > 280.0
        assert payload["traffic"]["soi_alltoall_rounds"] == 1
        assert payload["traffic"]["std_alltoall_rounds"] == 3

    def test_traffic_payload_embeds_stats_as_dict(self, capsys):
        assert main(["traffic", "--json"]) == 0
        payload = _json_payload(capsys.readouterr().out)
        phases = payload["traffic"]["soi_stats"]["phases"]
        assert "alltoall" in phases
        # Pair keys are the JSON-safe "src->dst" form.
        assert all(
            "->" in key for key in phases["alltoall"]["bytes_by_pair"]
        )

    def test_without_flag_no_json_dump(self, capsys):
        assert main(["snr"]) == 0
        assert "{\n" not in capsys.readouterr().out


class TestTraceSection:
    def test_timelines_and_epoch_counts(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "SOI (one all-to-all)" in out
        assert "six-step (three all-to-alls)" in out
        assert "ms virtual" in out
        assert "1 vs 3 all-to-all epochs" in out

    def test_trace_out_writes_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "soi.trace.json"
        assert main(["trace", "--trace-out", str(path), "--json"]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        payload = _json_payload(capsys.readouterr().out)
        assert payload["trace"]["runs"]["soi"]["rollup"]["alltoall_epochs"] == 1
        assert payload["trace"]["runs"]["transpose"]["rollup"]["alltoall_epochs"] == 3
        assert payload["trace"]["trace_out"] == str(path)

    def test_chaos_seed_puts_retransmits_on_timeline(self, capsys):
        assert main(["trace", "--chaos-seed", "7", "--json"]) == 0
        out = capsys.readouterr().out
        assert "chaos seed 7" in out
        payload = _json_payload(out)
        soi = payload["trace"]["runs"]["soi"]
        assert soi["rollup"]["retransmits"] > 0
        assert soi["snr_db"] > 280.0  # transport recovered the run


class TestServeSection:
    def test_serve_demo_prints_slo_table(self, capsys):
        assert main(["serve", "--json"]) == 0
        out = capsys.readouterr().out
        assert "serve —" in out
        assert "interactive" in out and "best_effort" in out
        payload = _json_payload(out)
        report = payload["serve"]["report"]
        assert report["completed"] == report["requests"] == 48
        classes = report["classes"]
        assert set(classes) == {"interactive", "batch", "best_effort"}
        for cls in classes.values():
            assert cls["p50_ms"] <= cls["p95_ms"] <= cls["p99_ms"]
        # The demo load coalesces: fewer batches than requests.
        assert report["batches"] < report["requests"]
        assert payload["serve"]["warmup"]["shapes"]["requested"] == 1


class TestCheckSection:
    def test_check_smoke_with_report(self, capsys, tmp_path):
        path = tmp_path / "check.json"
        assert (
            main(
                [
                    "check",
                    "--check-size", "small",
                    "--schedules", "3",
                    "--seed", "0",
                    "--report-out", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "conformance registry" in out
        assert "deterministic: True" in out
        assert "clean: True" in out
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["ok"] is True
        assert doc["conformance"]["schema"] == "repro.check.conformance/2"
        assert doc["conformance"]["summary"]["entry_points"] >= 12
        assert {"entry", "oracle", "options"} <= set(doc["conformance"]["rows"][0])
        assert doc["fuzz"]["schedules"] == 3
        assert doc["hb"]["clean"] is True

    def test_check_json_payload_carries_verdict(self, capsys):
        assert main(["check", "--check-size", "small", "--schedules", "2", "--json"]) == 0
        payload = _json_payload(capsys.readouterr().out)
        assert payload["check"]["ok"] is True
        assert payload["check"]["fuzz"]["deterministic"] is True

    def test_failed_audit_fails_the_run(self, capsys, monkeypatch):
        """main() must exit non-zero when a section reports ok=False."""
        from repro import __main__ as cli

        monkeypatch.setitem(
            cli.SECTIONS, "check", lambda args: {"ok": False, "reason": "forced"}
        )
        assert main(["check"]) == 1
