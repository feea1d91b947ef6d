"""BatchJournal + journaled run_many/run_table: crash-safe checkpointing."""

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.errors import PipelineError
from repro.io.json_report import strict_loads
from repro.pipeline import (
    BatchJournal,
    Pipeline,
    ResumedResult,
    pipeline_fingerprint,
    run_many,
)
from repro.pipeline.journal import JOURNAL_SCHEMA


class TestJournalFile:
    def test_header_written_on_create(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={"k": 1}):
            pass
        lines = path.read_text().splitlines()
        header = strict_loads(lines[0])
        assert header == {"schema": JOURNAL_SCHEMA, "meta": {"k": 1}}

    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={"k": 1}) as j:
            j.record("a", {"x": 1})
            j.record("b", {"x": 2})
            assert j.written_count == 2
        with BatchJournal(path, meta={"k": 1}, resume=True) as j2:
            assert j2.completed("a") == {"x": 1}
            assert j2.completed("b") == {"x": 2}
            assert j2.completed("c") is None
            assert j2.completed_count == 2
            assert j2.written_count == 0

    def test_resume_meta_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={"preset": "ci"}):
            pass
        with pytest.raises(PipelineError, match="different sweep"):
            BatchJournal(path, meta={"preset": "paper"}, resume=True)

    def test_resume_non_journal_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(PipelineError, match=JOURNAL_SCHEMA):
            BatchJournal(path, resume=True)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={}) as j:
            j.record("a", {"x": 1})
            j.record("b", {"x": 2})
        # simulate a crash mid-append: the final line is half-written
        text = path.read_text()
        path.write_text(text + '{"key": "c", "repo')
        with BatchJournal(path, meta={}, resume=True) as j2:
            assert j2.completed("a") == {"x": 1}
            assert j2.completed("b") == {"x": 2}
            assert j2.completed("c") is None

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={}) as j:
            j.record("a", {"x": 1})
        lines = path.read_text().splitlines()
        lines.insert(1, '{"key": "z", "repo')  # corrupt NON-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PipelineError, match="corrupt"):
            BatchJournal(path, meta={}, resume=True)

    def test_fresh_mode_truncates_existing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, meta={}) as j:
            j.record("a", {"x": 1})
        with BatchJournal(path, meta={}) as j2:
            assert j2.completed("a") is None


class TestJournaledRunMany:
    def test_journal_records_every_job(self, tmp_path):
        path = tmp_path / "j.jsonl"
        nets = [ripple_carry_adder(b) for b in (4, 6)]
        pipe = Pipeline.standard(verify="none")
        with BatchJournal(path) as j:
            run_many(nets, pipeline=pipe, journal=j)
            assert j.written_count == 2
        assert len(path.read_text().splitlines()) == 3  # header + 2

    def test_resume_replays_bit_identically_and_skips_work(self, tmp_path):
        path = tmp_path / "j.jsonl"
        nets = [ripple_carry_adder(b) for b in (4, 6, 8)]
        pipe = Pipeline.standard(verify="none")
        with BatchJournal(path) as j:
            fresh = run_many(nets, pipeline=pipe, journal=j)
        with BatchJournal(path, resume=True) as j2:
            replayed = run_many(nets, pipeline=pipe, journal=j2)
            assert j2.written_count == 0  # nothing re-ran
        for orig, back in zip(fresh, replayed):
            assert isinstance(back, ResumedResult)
            assert back.num_dffs == orig.num_dffs
            assert back.area_jj == orig.metrics.area_jj
            assert back.depth_cycles == orig.metrics.depth_cycles
            assert back.t1_found == orig.t1_found
            assert back.t1_used == orig.t1_used

    def test_partial_resume_runs_only_missing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        nets = [ripple_carry_adder(b) for b in (4, 6)]
        pipe = Pipeline.standard(verify="none")
        with BatchJournal(path) as j:
            run_many(nets[:1], pipeline=pipe, journal=j)
        with BatchJournal(path, resume=True) as j2:
            results = run_many(nets, pipeline=pipe, journal=j2)
            assert j2.written_count == 1  # only the missing job ran
        assert isinstance(results[0], ResumedResult)
        assert not isinstance(results[1], ResumedResult)

    def test_on_result_fires_for_resumed_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        nets = [ripple_carry_adder(b) for b in (4, 6)]
        pipe = Pipeline.standard(verify="none")
        with BatchJournal(path) as j:
            run_many(nets, pipeline=pipe, journal=j)
        seen = []
        with BatchJournal(path, resume=True) as j2:
            run_many(nets, pipeline=pipe, journal=j2,
                     on_result=lambda i, r: seen.append(i))
        assert seen == [0, 1]

    def test_journal_with_jobs2_matches_serial(self, tmp_path):
        nets = [build(name, "ci") for name in ("adder", "c6288")]
        pipe = Pipeline.standard(verify="none")
        with BatchJournal(tmp_path / "s.jsonl") as js:
            serial = run_many(nets, pipeline=pipe, jobs=1, journal=js)
        with BatchJournal(tmp_path / "p.jsonl") as jp:
            pooled = run_many(nets, pipeline=pipe, jobs=2, journal=jp)
        for s, p in zip(serial, pooled):
            assert s.metrics == p.metrics
        # same keys, same semantic records (timing fields vary per run)
        s_lines = (tmp_path / "s.jsonl").read_text().splitlines()
        p_lines = (tmp_path / "p.jsonl").read_text().splitlines()
        for s_line, p_line in zip(s_lines[1:], p_lines[1:]):
            s_rec, p_rec = strict_loads(s_line), strict_loads(p_line)
            assert s_rec["key"] == p_rec["key"]
            for field in ("benchmark", "metrics", "t1", "verified", "events"):
                assert s_rec["report"][field] == p_rec["report"][field]


class TestFingerprint:
    def test_same_flow_same_fingerprint(self):
        a = Pipeline.standard(verify="none")
        b = Pipeline.standard(verify="none")
        assert pipeline_fingerprint(a) == pipeline_fingerprint(b)

    def test_different_flow_different_fingerprint(self):
        a = Pipeline.standard(verify="none")
        b = Pipeline.standard(verify="none", n_phases=5)
        c = Pipeline.standard(verify="cec")
        assert pipeline_fingerprint(a) != pipeline_fingerprint(b)
        assert pipeline_fingerprint(a) != pipeline_fingerprint(c)

    def test_metricless_resumed_result_raises(self):
        broken = ResumedResult("k", {"no": "metrics"})
        with pytest.raises(PipelineError, match="no metrics"):
            broken.num_dffs
