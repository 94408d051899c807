import json
import math

import pytest

from polyak_opt.cli import _emit
from polyak_opt.traces import (
    CSV_HEADER,
    TraceRecord,
    parse_trace_csv,
    trace_to_csv,
    trace_to_json,
)


def sample_records():
    return [
        TraceRecord(1, 1.0, 0.75, 0.5, dist_to_opt=2.0, aux_value=0.1,
                    growth_ratio=0.9, tau=0.3, alpha_bar=0.25),
        TraceRecord(2, 2.0, 0.5, 0.25),
    ]


class TestCsv:
    def test_header_and_row_count(self):
        text = trace_to_csv(sample_records())
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_none_fields_serialize_as_empty_cells(self):
        text = trace_to_csv([TraceRecord(3, 3.0, 0.1, 0.05)])
        row = text.splitlines()[1]
        assert row == "3,3.0,0.1,0.05,,,,,"

    def test_floats_written_with_repr(self):
        rec = TraceRecord(1, 1.0, 1 / 3, 0.1)
        row = trace_to_csv([rec]).splitlines()[1]
        assert repr(1 / 3) in row

    def test_round_trip_exact(self):
        recs = sample_records()
        back = parse_trace_csv(trace_to_csv(recs))
        assert back == recs

    def test_round_trip_preserves_nonfinite_loss(self):
        recs = [TraceRecord(1, 1.0, math.inf, math.nan)]
        back = parse_trace_csv(trace_to_csv(recs))
        assert back[0].full_loss == math.inf
        assert math.isnan(back[0].grad_norm)

    def test_parse_skips_comment_lines(self):
        text = trace_to_csv(sample_records())
        text += "# best gamma=0.5\n"
        assert len(parse_trace_csv(text)) == 2

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_trace_csv("epoch,loss\n1,0.5\n")

    def test_parse_rejects_short_row(self):
        text = CSV_HEADER + "\n1,1.0,0.5\n"
        with pytest.raises(ValueError):
            parse_trace_csv(text)

    def test_epoch_parses_as_int(self):
        back = parse_trace_csv(trace_to_csv(sample_records()))
        assert isinstance(back[0].epoch, int)


class TestJson:
    def test_json_lists_all_fields(self):
        rows = json.loads(trace_to_json(sample_records()))
        assert len(rows) == 2
        assert rows[0]["growth_ratio"] == 0.9
        assert rows[1]["aux_value"] is None

    def test_json_none_maps_to_null(self):
        text = trace_to_json([TraceRecord(1, 1.0, 0.5, 0.2)])
        assert '"tau": null' in text


class TestWriteTrace:
    """A trace file is ``cli._emit`` of the serialized records."""

    def test_csv_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        _emit(trace_to_csv(sample_records()), str(path))
        assert parse_trace_csv(path.read_text(encoding="utf-8")) == sample_records()

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        _emit(trace_to_json(sample_records()), str(path))
        assert json.loads(path.read_text(encoding="utf-8"))[0]["epoch"] == 1
