"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from .golden_trials import study_argv, study_goldens, study_outputs


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(["run"])
        assert args.minutes is None  # flag absent: scenario decides
        assert args.seed is None
        assert not args.direct
        spec = _run_scenario_spec(args)
        assert spec.run_minutes == 105.0
        assert spec.config.seed == 7
        assert spec.script == "none"

    def test_run_scenario_flag_layers_overrides(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(
            ["run", "--scenario", "eight-zone", "--minutes", "5",
             "--seed", "11"])
        spec = _run_scenario_spec(args)
        assert spec.topology.zone_count == 8
        assert spec.run_minutes == 5.0
        assert spec.config.seed == 11

    def test_paper_events_aliases_script(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(["run", "--paper-events"])
        assert _run_scenario_spec(args).script == "paper-phase-two"

    def test_lifetime_args(self):
        args = build_parser().parse_args(["lifetime", "--hours", "1.5"])
        assert args.hours == 1.5


class TestBenchCommand:
    """``repro bench`` hands its arguments to repro.bench untouched."""

    def _forwarded(self, monkeypatch, argv):
        import repro.bench

        seen = []
        monkeypatch.setattr(repro.bench, "main",
                            lambda args: seen.append(list(args)) or 0)
        assert main(["bench", *argv]) == 0
        return seen

    def test_flags_missing_from_the_old_copy_reach_the_bench(
            self, monkeypatch):
        for argv in (["--sweep-lockstep", "4"], ["--parallel-runs", "2"],
                     ["--baseline", "x.json"]):
            assert self._forwarded(monkeypatch, argv) == [argv]

    def test_argument_order_is_kept(self, monkeypatch):
        argv = ["--trial", "hvac", "--grid", "4,32", "-o", "out.json",
                "--no-macro"]
        assert self._forwarded(monkeypatch, argv) == [argv]

    def test_other_commands_still_reject_unknown_flags(self):
        with pytest.raises(SystemExit):
            main(["lifetime", "--sweep-lockstep", "4"])


class TestRunCommand:
    def test_short_direct_run(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "s.json"
        code = main(["run", "--minutes", "5", "--direct", "--seed", "3",
                     "--export-csv", str(csv_path),
                     "--export-json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "condensation events: 0" in out
        assert csv_path.exists()
        summary = json.loads(json_path.read_text())
        assert summary["seed"] == 3

    def test_short_network_run(self, capsys):
        code = main(["run", "--minutes", "3", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "collision rate" in out

    def test_fixed_tx_flag(self, capsys):
        code = main(["run", "--minutes", "2", "--fixed-tx", "--seed", "3"])
        assert code == 0


class TestScenariosCommand:
    def test_lists_registered_scenarios(self, capsys):
        code = main(["scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("paper-va", "paper-vc", "eight-zone"):
            assert name in out

    def test_show_describes_one(self, capsys):
        code = main(["scenarios", "--show", "eight-zone"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8 zones" in out
        assert "grid-8" in out

    def test_show_unknown_exits_2(self, capsys):
        code = main(["scenarios", "--show", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestCopCommand:
    def test_cop_report(self, capsys):
        code = main(["cop", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BubbleZERO" in out
        assert "improvement over AirCon" in out


class TestCampaignCommand:
    def test_only_filters_cells(self, capsys, tmp_path):
        code = main(study_argv("campaign", tmp_path))
        assert code == 0
        loaded = json.loads((tmp_path / "campaign.json").read_text())
        names = [cell["name"] for cell in loaded["cells"]]
        assert names == ["stuck-high", "stuck-low"]
        assert "2 cells + baseline, 1 worker(s)" in capsys.readouterr().out
        assert (study_outputs("campaign", tmp_path)
                == study_goldens("campaign"))

    def test_minutes_override_revalidates_warmup(self, capsys):
        # Shrinking the run below the default 30 min warmup must fail
        # loudly at argument time, not crash mid-campaign.
        code = main(["campaign", "--quick", "--minutes", "6"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_only_with_no_match_fails_loudly(self, capsys):
        code = main(["campaign", "--quick", "--only", "no-such-cell"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no campaign cell matches" in err
        assert "stuck-high" in err  # lists the available names

    def test_cells_selects_exact_names(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        code = main(["campaign", "--quick",
                     "--cells", "crash-room-temp,stuck-high",
                     "--minutes", "6", "--warmup-minutes", "2",
                     "--workers", "1", "--json", str(json_path)])
        assert code == 0
        loaded = json.loads(json_path.read_text())
        names = [cell["name"] for cell in loaded["cells"]]
        assert names == ["crash-room-temp", "stuck-high"]

    def test_cells_unknown_name_exits_2(self, capsys):
        code = main(["campaign", "--quick", "--cells", "no-such"])
        assert code == 2
        assert "unknown campaign cell" in capsys.readouterr().err

    def test_duplicate_cells_exit_2(self, capsys):
        # --cells goes through CampaignConfig validation like every
        # other selection: a repeated cell fails before any run starts.
        code = main(["campaign", "--quick", "--cells",
                     "stuck-high,stuck-high", "--minutes", "6",
                     "--warmup-minutes", "2"])
        assert code == 2
        assert ("campaign cell names must be unique"
                in capsys.readouterr().err)


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == 5
        assert args.seed_base == 1
        assert args.minutes == 105.0
        assert args.workers is None

    def test_short_sweep(self, capsys, tmp_path):
        code = main(study_argv("sweep", tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "# Seed sweep report" in out
        assert "2 replicates (seeds 1..2)" in out
        loaded = json.loads((tmp_path / "sweep.json").read_text())
        assert loaded["seeds"] == [1, 2]
        assert loaded["failures"] == []
        assert study_outputs("sweep", tmp_path) == study_goldens("sweep")

    def test_invalid_sweep_config_exits_2(self, capsys):
        code = main(["sweep", "--seeds", "2", "--minutes", "5",
                     "--warmup-minutes", "5"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err
