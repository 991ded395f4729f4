"""Crash-safety suite for the streaming result sink (repro.dist.sink).

The contract under test: a sweep streamed to disk and killed at **any byte
offset** — torn write, full disk, failed fsync, ``kill -9`` — resumes from
exactly the records that reached the disk and produces results (and tables)
bit-identical to the clean serial run.  The truncation sweep below is
exhaustive: every byte offset of a multi-record segment is torn once and
must recover to a clean record boundary.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.dist import (
    SINK_SCHEMA,
    SinkError,
    SinkFullError,
    StreamingResultSink,
    expand_points,
    merge_streams,
    point_run_from_payload,
    spec_fingerprint,
    stream_payloads,
    streamed_table,
)
from repro.dist.durability import atomic_write_text
from repro.dist.sink import encode_record, iter_records, scan_segment
from repro.faultinject import (
    FaultPlan,
    FaultRule,
    bundled_stream_plans,
    save_plan,
)
from repro.spec import run_spec, save_spec

from test_dist import assert_bit_identical, sweep_spec


def fake_payload(index: int) -> dict:
    """A tiny sink payload: the sink only requires an 'index' key."""
    return {"index": index, "label": f"p{index}", "pad": "x" * 10}


def make_segment_dir(tmp_path, count: int = 3) -> tuple:
    """A stream directory holding one clean segment of ``count`` records."""
    spec = sweep_spec()
    sink = StreamingResultSink(tmp_path, spec, durable=False)
    boundaries = [0]
    for i in range(count):
        _, _, end = sink.append(fake_payload(i))
        boundaries.append(end)
    sink.close()
    (segment,) = sorted(tmp_path.glob("segment-*.jsonl"))
    return spec, segment, boundaries


class TestRecordFraming:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        payloads = [fake_payload(i) for i in range(3)]
        path.write_bytes(b"".join(encode_record(p) for p in payloads))
        read = list(iter_records(path))
        assert [r["index"] for r in read] == [0, 1, 2]
        for original, record in zip(payloads, read):
            assert record["schema_version"] == SINK_SCHEMA
            assert record["pad"] == original["pad"]

    def test_header_is_fixed_width_and_self_describing(self):
        record = encode_record(fake_payload(7))
        header, body = record[:18], record[18:-1]
        length, crc = header.split()
        assert len(header) == 18 and record.endswith(b"\n")
        assert int(length, 16) == len(body)
        import zlib

        assert int(crc, 16) == zlib.crc32(body) & 0xFFFFFFFF

    def test_torn_record_fails_strict_iteration(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        data = encode_record(fake_payload(0))
        path.write_bytes(data[:-5])
        with pytest.raises(SinkError, match="torn or corrupt"):
            list(iter_records(path))

    def test_newer_schema_version_rejected(self, tmp_path):
        body = json.dumps(
            {"schema_version": SINK_SCHEMA + 1, "index": 0},
            separators=(",", ":"),
        ).encode()
        import zlib

        header = b"%08x %08x " % (len(body), zlib.crc32(body) & 0xFFFFFFFF)
        path = tmp_path / "seg.jsonl"
        path.write_bytes(header + body + b"\n")
        with pytest.raises(SinkError, match="schema"):
            list(iter_records(path))


class TestSchemaRefusal:
    """A directory written under another sink schema is refused, untouched."""

    def write_schema1_dir(self, directory: Path, spec) -> None:
        directory.mkdir()
        manifest = {
            "schema_version": 1,
            "fingerprint": spec_fingerprint(spec),
            "tag": "",
            "segments": ["segment-0000.jsonl"],
            "fsync_every": 1,
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        point = expand_points(spec)[0]
        body = json.dumps(
            {
                "schema_version": 1,
                "index": 0,
                "values": point.values,
                "label": point.label,
                "spec": point.spec.to_dict(),
                "elapsed_seconds": 0.0,
                "results": [],
            },
            separators=(",", ":"),
        ).encode()
        import zlib

        header = b"%08x %08x " % (len(body), zlib.crc32(body) & 0xFFFFFFFF)
        (directory / "segment-0000.jsonl").write_bytes(header + body + b"\n")

    def test_schema_1_directory_is_refused_untouched(self, tmp_path):
        spec = sweep_spec()
        directory = tmp_path / "old"
        self.write_schema1_dir(directory, spec)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        names_both = r"schema 1\b.*schema 2\b"
        with pytest.raises(SinkError, match=names_both):
            run_spec(spec, stream_dir=directory, resume=True)
        with pytest.raises(SinkError, match=names_both):
            list(stream_payloads(directory, spec))
        with pytest.raises(SinkError, match=names_both):
            list(iter_records(directory / "segment-0000.jsonl"))
        after = {path.name: path.read_bytes() for path in directory.iterdir()}
        assert after == before


class TestTruncationSweep:
    """Tear a segment at EVERY byte offset; recovery must be exact."""

    def test_scan_finds_the_exact_boundary_at_every_offset(self, tmp_path):
        _, segment, boundaries = make_segment_dir(tmp_path / "clean")
        data = segment.read_bytes()
        assert boundaries[-1] == len(data)
        torn = tmp_path / "torn.jsonl"
        for offset in range(len(data) + 1):
            torn.write_bytes(data[:offset])
            complete = [b for b in boundaries[1:] if b <= offset]
            indices, valid_end, is_torn = scan_segment(torn)
            assert indices == list(range(len(complete))), offset
            assert valid_end == max([0] + complete), offset
            assert is_torn == (offset not in boundaries), offset

    def test_sink_recovery_repairs_every_offset(self, tmp_path):
        # Recovery must truncate to the boundary, quarantine the torn bytes,
        # and leave a directory that appends and merges cleanly — for a tear
        # at every single byte offset of the segment.
        spec = sweep_spec()
        _, reference, boundaries = make_segment_dir(tmp_path / "ref")
        data = reference.read_bytes()
        for offset in range(len(data) + 1):
            directory = tmp_path / f"at-{offset:05d}"
            directory.mkdir()
            seed_sink = StreamingResultSink(directory, spec, durable=False)
            for i in range(3):
                seed_sink.append(fake_payload(i))
            seed_sink.close()
            (segment,) = sorted(directory.glob("segment-*.jsonl"))
            with segment.open("rb+") as handle:
                handle.truncate(offset)
            sink = StreamingResultSink(
                directory, spec, durable=False, resume=True
            )
            survivors = sum(1 for b in boundaries[1:] if b <= offset)
            assert sorted(sink.recovered_indices) == list(range(survivors))
            assert segment.stat().st_size in boundaries
            torn_file = segment.with_name(segment.name + ".torn")
            assert torn_file.exists() == (offset not in boundaries)
            # The repaired directory is immediately usable again.
            for i in range(survivors, 3):
                sink.append(fake_payload(i))
            sink.close()
            merged = [r["index"] for r in sink.iter_merged()]
            assert merged == [0, 1, 2]


class TestSinkBasics:
    def test_refuses_populated_directory_without_resume(self, tmp_path):
        spec, _, _ = make_segment_dir(tmp_path)
        with pytest.raises(ConfigurationError, match="resume"):
            StreamingResultSink(tmp_path, spec, durable=False)

    def test_resume_of_an_empty_directory_is_a_fresh_start(self, tmp_path):
        sink = StreamingResultSink(
            tmp_path, sweep_spec(), durable=False, resume=True
        )
        assert sink.recovered_indices == frozenset()
        sink.append(fake_payload(0))
        sink.close()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        make_segment_dir(tmp_path)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            StreamingResultSink(
                tmp_path, sweep_spec(master_seed=99), durable=False, resume=True
            )

    def test_manifest_is_written_ahead_of_the_first_byte(self, tmp_path):
        spec = sweep_spec()
        sink = StreamingResultSink(tmp_path, spec, durable=False)
        sink.append(fake_payload(0))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == SINK_SCHEMA
        assert manifest["segments"] == ["segment-0000.jsonl"]
        sink.close()

    def test_out_of_order_appends_roll_sorted_segments(self, tmp_path):
        spec = sweep_spec()
        sink = StreamingResultSink(tmp_path, spec, durable=False)
        for index in [2, 0, 1, 3]:  # parallel completion order
            sink.append(fake_payload(index))
        sink.close()
        segments = sorted(tmp_path.glob("segment-*.jsonl"))
        assert len(segments) == 2  # 2 ascending runs: [2], [0,1,3] -> rolled
        for segment in segments:
            indices = [r["index"] for r in iter_records(segment)]
            assert indices == sorted(indices)
        assert [r["index"] for r in merge_streams(segments)] == [0, 1, 2, 3]

    def test_append_after_close_raises(self, tmp_path):
        sink = StreamingResultSink(tmp_path, sweep_spec(), durable=False)
        sink.close()
        with pytest.raises(SinkError, match="closed"):
            sink.append(fake_payload(0))

    def test_tagged_sinks_share_a_directory(self, tmp_path):
        spec = sweep_spec()
        for tag, indices in [("0of2", [0, 1]), ("1of2", [2, 3])]:
            sink = StreamingResultSink(tmp_path, spec, durable=False, tag=tag)
            for index in indices:
                sink.append(fake_payload(index))
            sink.close()
        assert (tmp_path / "manifest-0of2.json").exists()
        assert (tmp_path / "manifest-1of2.json").exists()
        merged = [r["index"] for r in stream_payloads(tmp_path, spec)]
        assert merged == [0, 1, 2, 3]

    def test_stream_payloads_checks_the_fingerprint(self, tmp_path):
        make_segment_dir(tmp_path)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            list(stream_payloads(tmp_path, sweep_spec(master_seed=99)))

    def test_stream_payloads_requires_a_manifest(self, tmp_path):
        with pytest.raises(SinkError, match="manifest"):
            stream_payloads(tmp_path)

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync_every"):
            StreamingResultSink(tmp_path, sweep_spec(), fsync_every=0)
        with pytest.raises(ConfigurationError, match="tag"):
            StreamingResultSink(tmp_path, sweep_spec(), tag="bad/tag")

    def test_stats_are_json_safe(self, tmp_path):
        sink = StreamingResultSink(tmp_path, sweep_spec(), durable=False)
        sink.append(fake_payload(0))
        sink.close()
        stats = json.loads(json.dumps(sink.stats()))
        assert stats["records_appended"] == 1
        assert stats["segments"] == 1


class TestShardReassembly:
    """An untagged resume adopts every tagged shard manifest, read-only."""

    @staticmethod
    def shard_files(directory) -> dict:
        return {
            path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())
        }

    def test_unsharded_resume_over_two_shards_runs_nothing(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        for i in range(2):
            run_spec(spec, shard=(i, 2), stream_dir=tmp_path, workers=2)
        before = self.shard_files(tmp_path)
        events = []
        full = run_spec(
            spec, stream_dir=tmp_path, resume=True, progress=events.append
        )
        assert_bit_identical(serial, full)
        assert full.provenance["points_run"] == 0
        assert full.provenance["points_resumed"] == 4
        assert {e.source for e in events} == {"stream"}
        # Adoption never wrote to, truncated or quarantined a shard's files.
        assert self.shard_files(tmp_path) == before
        # Without resume the shards' records are refused, not duplicated.
        with pytest.raises(ConfigurationError, match="resume"):
            run_spec(spec, stream_dir=tmp_path)

    def test_unsharded_resume_finishes_a_half_run_sweep(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        run_spec(spec, shard=(0, 2), stream_dir=tmp_path)
        full = run_spec(spec, stream_dir=tmp_path, resume=True)
        assert_bit_identical(serial, full)
        assert full.provenance["points_resumed"] == 2
        assert full.provenance["points_run"] == 2
        # A tagged resume still reads only its own tag.
        shard = run_spec(spec, shard=(1, 2), stream_dir=tmp_path, resume=True)
        assert shard.provenance["points_resumed"] == 0

    def test_torn_shard_segment_raises_and_is_left_alone(self, tmp_path):
        spec = sweep_spec()
        for i in range(2):
            run_spec(spec, shard=(i, 2), stream_dir=tmp_path)
        (segment,) = sorted(tmp_path.glob("segment-1of2-*.jsonl"))
        with segment.open("rb+") as handle:
            handle.truncate(segment.stat().st_size - 5)  # torn last record
        before = self.shard_files(tmp_path)
        with pytest.raises(SinkError, match="1of2") as excinfo:
            run_spec(spec, stream_dir=tmp_path, resume=True)
        assert "--shard 1/2" in str(excinfo.value)
        assert "--resume" in str(excinfo.value)
        assert self.shard_files(tmp_path) == before
        # The named repair works, and then the unsharded resume does too.
        run_spec(spec, shard=(1, 2), stream_dir=tmp_path, resume=True)
        full = run_spec(spec, stream_dir=tmp_path, resume=True)
        assert_bit_identical(run_spec(spec), full)

    def test_index_recorded_under_two_tags_raises_at_open(self, tmp_path):
        spec = sweep_spec()
        for tag, indices in [("0of2", [0, 1, 2]), ("1of2", [2, 3])]:
            sink = StreamingResultSink(tmp_path, spec, durable=False, tag=tag)
            for index in indices:
                sink.append(fake_payload(index))
            sink.close()
        with pytest.raises(SinkError, match="grid point 2") as excinfo:
            StreamingResultSink(tmp_path, spec, durable=False, resume=True)
        assert "0of2" in str(excinfo.value) and "1of2" in str(excinfo.value)


class TestSinkLifecycle:
    def test_failed_sweep_closes_the_sink(self, tmp_path, monkeypatch):
        # A worker pool that dies past its restart budget raises
        # WorkerPoolError mid-sweep; the sink must still be closed once, so
        # the records appended since the last fsync get one and the segment
        # handle is released.
        from repro.dist import RetryPolicy, WorkerPoolError
        from repro.spec import load_spec

        closed = []
        real_close = StreamingResultSink.close

        def spy(self, strict=True):
            closed.append(strict)
            return real_close(self, strict)

        monkeypatch.setattr(StreamingResultSink, "close", spy)
        spec = load_spec(
            Path(__file__).resolve().parents[1]
            / "examples"
            / "specs"
            / "e1_round_complexity.json"
        )
        plan = FaultPlan(
            rules=(FaultRule(kind="kill-worker", index=11, dispatches=()),)
        )
        with pytest.raises(WorkerPoolError):
            run_spec(
                spec,
                workers=2,
                stream_dir=tmp_path,
                fsync_every=1000,
                retry=RetryPolicy(max_pool_restarts=0, serial_fallback=False),
                fault_plan=plan,
            )
        assert closed == [False]


class TestMergeStreams:
    def test_duplicate_index_across_segments_rejected(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            (tmp_path / name).write_bytes(encode_record(fake_payload(5)))
        with pytest.raises(SinkError, match="more than one"):
            list(merge_streams(sorted(tmp_path.glob("*.jsonl"))))

    def test_non_ascending_segment_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            encode_record(fake_payload(3)) + encode_record(fake_payload(1))
        )
        with pytest.raises(SinkError, match="ascending"):
            list(merge_streams([path]))

    def test_merge_is_a_true_k_way_interleave(self, tmp_path):
        runs = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
        paths = []
        for i, run in enumerate(runs):
            path = tmp_path / f"run-{i}.jsonl"
            path.write_bytes(
                b"".join(encode_record(fake_payload(j)) for j in run)
            )
            paths.append(path)
        assert [r["index"] for r in merge_streams(paths)] == list(range(9))


class TestStreamingExecution:
    def test_streamed_run_is_bit_identical_to_serial(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        streamed = run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        assert_bit_identical(serial, streamed)
        stream = streamed.provenance["stream"]
        assert stream["records_appended"] == 4
        assert stream["durable"] is False

    def test_parallel_streamed_run_is_bit_identical(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        streamed = run_spec(
            spec, workers=2, stream_dir=tmp_path, stream_durable=False
        )
        assert_bit_identical(serial, streamed)

    def test_durable_default_fsyncs_every_record(self, tmp_path):
        run = run_spec(sweep_spec(), stream_dir=tmp_path)
        assert run.provenance["stream"]["durable"] is True
        assert run.provenance["stream"]["fsync_calls"] >= 4

    def test_fsync_cadence_reduces_fsync_calls(self, tmp_path):
        run = run_spec(sweep_spec(), stream_dir=tmp_path, fsync_every=4)
        assert run.provenance["stream"]["fsync_calls"] <= 2

    def test_full_stream_resume_runs_nothing(self, tmp_path):
        spec = sweep_spec()
        first = run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        events = []
        again = run_spec(
            spec,
            stream_dir=tmp_path,
            stream_durable=False,
            resume=True,
            progress=events.append,
        )
        assert_bit_identical(first, again)
        assert again.provenance["points_run"] == 0
        assert again.provenance["points_resumed"] == 4
        assert {e.source for e in events} == {"stream"}

    def test_reusing_a_stream_dir_without_resume_is_refused(self, tmp_path):
        spec = sweep_spec()
        run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        with pytest.raises(ConfigurationError, match="resume"):
            run_spec(spec, stream_dir=tmp_path, stream_durable=False)

    @pytest.mark.parametrize("cut_record", [0, 1, 3])
    def test_resume_after_torn_tail_is_bit_identical(self, tmp_path, cut_record):
        # Tear the stream so that records > cut_record are gone and
        # cut_record itself is torn mid-record; the resume must re-run
        # exactly the missing points and match the serial run bit-for-bit.
        spec = sweep_spec()
        serial = run_spec(spec)
        run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        (segment,) = sorted(tmp_path.glob("segment-*.jsonl"))
        boundaries = [0]
        with segment.open("rb") as handle:
            while True:
                header = handle.read(18)
                if not header:
                    break
                handle.seek(int(header[:8], 16) + 1, os.SEEK_CUR)
                boundaries.append(handle.tell())
        with segment.open("rb+") as handle:
            handle.truncate(boundaries[cut_record] + 9)  # mid-header tear
        resumed = run_spec(
            spec, stream_dir=tmp_path, stream_durable=False, resume=True
        )
        assert_bit_identical(serial, resumed)
        assert resumed.provenance["points_resumed"] == cut_record
        assert resumed.provenance["points_run"] == 4 - cut_record
        assert segment.with_name(segment.name + ".torn").exists()

    def test_streamed_table_matches_in_memory_table(self, tmp_path):
        spec = sweep_spec()
        serial_table = run_spec(spec).to_table()
        run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        table = streamed_table(spec, tmp_path)
        assert table.rows == serial_table.rows
        assert table.columns == serial_table.columns
        assert table.metadata["spec"] == serial_table.metadata["spec"]

    def test_stream_provenance_survives_table_round_trip(self, tmp_path):
        from repro.experiments.results_io import load_table_json, save_table_json

        table = run_spec(
            sweep_spec(), stream_dir=tmp_path / "s", stream_durable=False
        ).to_table()
        loaded = load_table_json(
            save_table_json(table, tmp_path / "table.json")
        )
        assert loaded.metadata["distributed"]["stream"]["records_appended"] == 4


class TestDiskFaultChaos:
    def test_enospc_degrades_to_a_resumable_error(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        plan = bundled_stream_plans(4)["enospc"]
        with pytest.raises(SinkFullError) as excinfo:
            run_spec(
                spec, stream_dir=tmp_path, stream_durable=False, fault_plan=plan
            )
        assert excinfo.value.directory == str(tmp_path)
        assert "resume" in str(excinfo.value)
        # Everything before the full disk is durable; the resume finishes.
        resumed = run_spec(
            spec, stream_dir=tmp_path, stream_durable=False, resume=True
        )
        assert_bit_identical(serial, resumed)
        assert resumed.provenance["points_resumed"] == 2

    def test_torn_write_recovers_bit_identically(self, tmp_path):
        from repro.dist import SweepInterrupted

        spec = sweep_spec()
        serial = run_spec(spec)
        plan = bundled_stream_plans(4)["torn-write"]
        with pytest.raises(SweepInterrupted):
            run_spec(
                spec, stream_dir=tmp_path, stream_durable=False, fault_plan=plan
            )
        resumed = run_spec(
            spec, stream_dir=tmp_path, stream_durable=False, resume=True
        )
        assert_bit_identical(serial, resumed)
        stream = resumed.provenance["stream"]
        assert stream["torn_quarantined"] == ["segment-0000.jsonl.torn"]

    def test_transient_fsync_failure_retries_and_completes(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        plan = bundled_stream_plans(4)["fsync-error"]
        run = run_spec(spec, stream_dir=tmp_path, fault_plan=plan)
        assert_bit_identical(serial, run)
        stream = run.provenance["stream"]
        assert stream["fsync_failures"] == 1
        assert stream["fsync_calls"] > stream["fsync_failures"]


class TestKill9Survival:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        # A subprocess streams the sweep and is SIGKILL'd by the
        # kill-after-records rule the instant record 2 hits the sink; the
        # parent then resumes the directory and must match the serial run.
        spec = sweep_spec()
        serial = run_spec(spec)
        stream = tmp_path / "stream"
        spec_path = save_spec(spec, tmp_path / "spec.json")
        plan_path = save_plan(
            bundled_stream_plans(4, include_kill=True)["kill-9"],
            tmp_path / "plan.json",
        )
        script = tmp_path / "victim.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import json
                from repro.faultinject import load_plan
                from repro.spec import ScenarioSpec, run_spec

                spec = ScenarioSpec.from_dict(
                    json.load(open({str(spec_path)!r}))
                )
                run_spec(
                    spec,
                    stream_dir={str(stream)!r},
                    stream_durable=False,
                    fault_plan=load_plan({str(plan_path)!r}),
                )
                raise SystemExit("survived a kill -9 plan")
                """
            )
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        victim = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert victim.returncode == -signal.SIGKILL, victim.stderr
        # Exactly the records appended before the kill are on disk.
        recovered = [r["index"] for r in stream_payloads(stream, spec)]
        assert recovered == [0, 1]
        resumed = run_spec(
            spec, stream_dir=stream, stream_durable=False, resume=True
        )
        assert_bit_identical(serial, resumed)
        assert resumed.provenance["points_resumed"] == 2


class TestDurableWrites:
    """``atomic_write_text`` commits the sink's manifest: fsync the temp
    file, rename it into place, fsync the directory entry."""

    def test_atomic_write_fsyncs_file_and_directory_by_default(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        atomic_write_text(tmp_path / "manifest.json", '{"segments": []}')
        assert len(synced) == 2  # temp file + directory entry
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "segments": []
        }

    def test_durable_false_skips_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        atomic_write_text(tmp_path / "manifest.json", "{}", durable=False)
        assert synced == []
        assert (tmp_path / "manifest.json").exists()

    def test_atomic_write_removes_temp_on_failure(self, tmp_path, monkeypatch):
        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "out.json", "{}", durable=False)
        assert list(tmp_path.iterdir()) == []

    def test_failed_manifest_commit_leaves_no_temp_behind(
        self, tmp_path, monkeypatch
    ):
        sink = StreamingResultSink(tmp_path, sweep_spec(), durable=False)

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(SinkFullError):
            sink.append(fake_payload(0))
        assert not list(tmp_path.glob("*.tmp"))


class TestPointRunPayloads:
    def test_point_run_round_trips_through_the_stream(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        run_spec(spec, stream_dir=tmp_path, stream_durable=False)
        rebuilt = [
            point_run_from_payload(payload)
            for payload in stream_payloads(tmp_path, spec)
        ]
        for ours, theirs in zip(serial.points, rebuilt):
            assert ours.index == theirs.index
            assert ours.label == theirs.label
            assert ours.results == theirs.results


class TestStreamCLI:
    def _write_spec(self, tmp_path) -> Path:
        return save_spec(sweep_spec(), tmp_path / "spec.json")

    def test_stream_dir_flag_matches_serial_save(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        serial_out = tmp_path / "serial.json"
        streamed_out = tmp_path / "streamed.json"
        assert main(["run-spec", str(path), "--save", str(serial_out)]) == 0
        assert (
            main(
                [
                    "run-spec",
                    str(path),
                    "--stream-dir",
                    str(tmp_path / "stream"),
                    "--save",
                    str(streamed_out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.experiments.results_io import load_table_json

        serial = load_table_json(serial_out)
        streamed = load_table_json(streamed_out)
        assert streamed.rows == serial.rows
        assert streamed.metadata["distributed"]["stream"]["records_appended"] == 4

    def test_stream_resume_round_trip(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        stream = tmp_path / "stream"
        assert main(["run-spec", str(path), "--stream-dir", str(stream)]) == 0
        first = capsys.readouterr().out
        assert (
            main(
                ["run-spec", str(path), "--stream-dir", str(stream), "--resume"]
            )
            == 0
        )
        second = capsys.readouterr().out
        assert first == second

    def test_multi_host_round_trip(self, tmp_path, capsys):
        # Two "hosts" stream their shards into one directory; an unsharded
        # --resume reassembles and saves the full table without re-running.
        path = self._write_spec(tmp_path)
        stream = str(tmp_path / "stream")
        serial_out = tmp_path / "serial.json"
        full_out = tmp_path / "full.json"
        assert main(["run-spec", str(path), "--save", str(serial_out)]) == 0
        for shard in ("0/2", "1/2"):
            assert main(
                ["run-spec", str(path), "--shard", shard, "--stream-dir", stream]
            ) == 0
        assert main(
            [
                "run-spec",
                str(path),
                "--stream-dir",
                stream,
                "--resume",
                "--save",
                str(full_out),
            ]
        ) == 0
        capsys.readouterr()
        from repro.experiments.results_io import load_table_json

        serial = load_table_json(serial_out)
        full = load_table_json(full_out)
        assert full.title == serial.title
        assert full.columns == serial.columns
        assert full.rows == serial.rows
        assert full.notes == serial.notes
        assert full.metadata["distributed"]["points_run"] == 0

    def test_resume_requires_a_durable_directory(self, tmp_path):
        path = self._write_spec(tmp_path)
        with pytest.raises(ConfigurationError, match="stream-dir"):
            main(["run-spec", str(path), "--resume"])

    def test_enospc_exits_tempfail_with_resume_hint(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        plan = tmp_path / "plan.json"
        save_plan(bundled_stream_plans(4)["enospc"], plan)
        code = main(
            [
                "run-spec",
                str(path),
                "--stream-dir",
                str(tmp_path / "stream"),
                "--fault-plan",
                str(plan),
            ]
        )
        captured = capsys.readouterr()
        assert code == 75  # EX_TEMPFAIL
        assert "resume" in captured.err
