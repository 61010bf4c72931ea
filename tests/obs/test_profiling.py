"""Unit tests for the ZScope phase timer and heartbeat."""

import io
from types import SimpleNamespace

from repro.obs import (
    NULL_HEARTBEAT,
    NULL_PHASE_TIMER,
    PROGRESS_LOG_ENV,
    Heartbeat,
    PhaseTimer,
)
from repro.obs import profiling


class TestPhaseTimer:
    def test_phases_accumulate_and_count(self):
        timer = PhaseTimer()
        with timer.phase("replay"):
            pass
        with timer.phase("replay"):
            pass
        timer.add("capture", 1.5)
        assert timer.seconds("replay") >= 0.0
        assert timer.seconds("capture") == 1.5
        assert set(timer.report()) == {"replay", "capture"}

    def test_report_sorted_by_time_descending(self):
        timer = PhaseTimer()
        timer.add("small", 0.1)
        timer.add("big", 9.0)
        assert list(timer.report()) == ["big", "small"]

    def test_render_includes_shares_and_total(self):
        timer = PhaseTimer()
        timer.add("capture", 3.0)
        timer.add("replay", 1.0)
        text = timer.render()
        assert "capture" in text and "75.0%" in text and "total" in text

    def test_render_counts_nested_phases_once(self, monkeypatch):
        # A fake clock makes every phase's wall time exact.
        ticks = iter([0.0, 0.0, 1.0, 1.0, 4.0, 4.0])
        monkeypatch.setattr(
            profiling, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        timer = PhaseTimer()
        with timer.phase("sweep"):  # 0 -> 4
            with timer.phase("capture"):  # 0 -> 1
                pass
            with timer.phase("replay"):  # 1 -> 4
                pass
        timer.add("report", 1.0)
        lines = timer.render().splitlines()
        shares = {}
        for line in lines[1:-1]:
            name, _seconds, share, _calls = line.split()
            shares[name] = float(share.rstrip("%"))
        assert shares == {
            "sweep": 80.0, "replay": 60.0, "capture": 20.0, "report": 20.0
        }
        assert shares["sweep"] + shares["report"] == 100.0
        assert shares["capture"] + shares["replay"] == shares["sweep"]
        assert lines[-1].split() == ["total", "5.000"]

    def test_render_empty(self):
        assert PhaseTimer().render() == "(no phases recorded)"

    def test_disabled_timer_records_nothing(self):
        with NULL_PHASE_TIMER.phase("x"):
            pass
        assert NULL_PHASE_TIMER.report() == {}

    def test_unknown_phase_reads_zero(self):
        assert PhaseTimer().seconds("never") == 0.0


class TestHeartbeat:
    def test_disabled_by_default(self):
        hb = Heartbeat()
        hb.beat("ignored")
        assert hb.enabled is False
        assert hb.beats == 0
        assert NULL_HEARTBEAT.enabled is False

    def test_beats_append_to_one_file(self, tmp_path):
        log = tmp_path / "sweep" / "progress.log"
        hb = Heartbeat(path=log)
        hb.beat("captured stream")
        hb.beat("replayed Z4/16", done=2, total=12)
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert "captured stream" in lines[0]
        assert lines[1].endswith("replayed Z4/16 (2/12)")

    def test_stream_output(self):
        buf = io.StringIO()
        Heartbeat(stream=buf).beat("alive")
        assert "alive" in buf.getvalue()

    def test_min_interval_rate_limits(self):
        buf = io.StringIO()
        hb = Heartbeat(stream=buf, min_interval=3600.0)
        hb.beat("first")
        hb.beat("suppressed")
        assert hb.beats == 1
        assert "suppressed" not in buf.getvalue()

    def test_from_env_disabled_without_variable(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_LOG_ENV, raising=False)
        assert Heartbeat.from_env().enabled is False

    def test_from_env_uses_configured_path(self, tmp_path, monkeypatch):
        log = tmp_path / "hb.log"
        monkeypatch.setenv(PROGRESS_LOG_ENV, str(log))
        hb = Heartbeat.from_env()
        hb.beat("hello")
        assert "hello" in log.read_text()

    def test_construction_creates_missing_parents(self, tmp_path):
        # Fail fast on an unwritable location: the parent chain is
        # created when the heartbeat is built, not on the first beat
        # hours into a sweep (mirroring the JSONL sink's constructor).
        log = tmp_path / "deep" / "nested" / "run" / "progress.log"
        assert not log.parent.exists()
        Heartbeat(path=log)
        assert log.parent.is_dir()

    def test_from_env_creates_missing_parents(self, tmp_path, monkeypatch):
        log = tmp_path / "not" / "yet" / "there" / "hb.log"
        monkeypatch.setenv(PROGRESS_LOG_ENV, str(log))
        hb = Heartbeat.from_env()
        assert log.parent.is_dir()
        hb.beat("alive", done=1, total=2)
        assert "alive (1/2)" in log.read_text()
